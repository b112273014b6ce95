"""The algebra core on eliminator rows against the scalar-tuple code it
replaced: the bracket loop over the nonzero structure constants, the
tuple square map (``test_bracket.reference_pmap_eval``), and plain
Gaussian elimination on tuples for the centre, centralisers, ideals and
subspaces."""

from functools import lru_cache

from hypothesis import given, settings, strategies as st

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.families import (
    example_7_1, family_i, family_iii, family_iv, family_v, free_class2, heisenberg,
    negative_class2, random_instance,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import span, span_rows

from test_bracket import reference_pmap_eval

FIELDS = (GF2, gf(4), gf(8))


def reference_bracket(L, u, v):
    """The loop over the nonzero structure constants, on scalar tuples."""
    f = L.field
    out = [f.zero] * L.n
    for i, j in L._nonzero:
        c = f.add(f.mul(u[i], v[j]), f.mul(u[j], v[i]))
        if not f.is_zero(c):
            for t, ct in enumerate(L._table[i][j]):
                if not f.is_zero(ct):
                    out[t] = f.add(out[t], f.mul(c, ct))
    return tuple(out)


def reference_rref(f, vecs):
    """The reduced row echelon form of vecs: pivots at the first nonzero
    column, scaled to 1, zero in every other row."""
    rows = []
    for v in vecs:
        v = list(v)
        for r in rows:
            p = next(t for t, c in enumerate(r) if not f.is_zero(c))
            if not f.is_zero(v[p]):
                c = v[p]
                v = [f.add(a, f.mul(c, b)) for a, b in zip(v, r)]
        lead = next((t for t, c in enumerate(v) if not f.is_zero(c)), None)
        if lead is None:
            continue
        inv = f.inv(v[lead])
        v = [f.mul(inv, a) for a in v]
        rows = [[f.add(a, f.mul(r[lead], b)) for a, b in zip(r, v)] for r in rows]
        rows.append(v)
    rows.sort(key=lambda r: next(t for t, c in enumerate(r) if not f.is_zero(c)))
    return tuple(tuple(r) for r in rows)


def reference_kernel(f, images, dom):
    """A basis of {c : sum c_i images[i] = 0}, from the RREF of [images | I]."""
    codom = len(images[0]) if images else 0
    tagged = [tuple(img) + tuple(f.one if t == i else f.zero for t in range(dom))
              for i, img in enumerate(images)]
    return [r[codom:] for r in reference_rref(f, tagged)
            if all(f.is_zero(c) for c in r[:codom])]


def reference_center(L):
    units = [L.basis_vector(i) for i in range(L.n)]
    return reference_kernel(L.field, [sum((reference_bracket(L, e, b) for b in units), ())
                                      for e in units], L.n)


def reference_centralizer(L, vecs):
    units = [L.basis_vector(i) for i in range(L.n)]
    return reference_kernel(L.field, [sum((reference_bracket(L, e, v) for v in vecs), ())
                                      for e in units], L.n)


def reference_is_ideal(L, vecs):
    f, base = L.field, reference_rref(L.field, vecs)
    return all(len(reference_rref(f, base + (reference_bracket(L, v, L.basis_vector(j)),)))
               == len(base) for v in vecs for j in range(L.n))


@lru_cache(maxsize=None)
def curated(field):
    return (heisenberg(field), family_i(field), free_class2(field, gens=3),
            free_class2(field, gens=3, center_squares=True), family_iii(field),
            family_iii(field, central_dim=1, central_bracket=True),
            family_iv(field, h_dim=2), family_v(field, h_dim=2), negative_class2(field))


@st.composite
def algebra_and_vectors(draw):
    field = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        L = random_instance(draw(st.integers(3, 6)), field, draw(st.integers(0, 400)))[0]
    else:
        L = draw(st.sampled_from(curated(field)))
    # mostly zero coordinates: RREF rows and sparse sums are what the core brackets
    coord = st.one_of(st.just(field.zero), st.just(field.zero),
                      st.sampled_from(list(field.elements())))
    vecs = draw(st.lists(st.tuples(*[coord] * L.n), min_size=2, max_size=4))
    return L, vecs


def check_against_reference(L, vecs):
    f, n, form = L.field, L.n, L.form
    units = [L.basis_vector(i) for i in range(n)]
    for u in vecs + units[:2]:
        for v in vecs + units:
            want = reference_bracket(L, u, v)
            assert L.bracket_row(form.encode(u), form.encode(v)) == form.encode(want), (L, u, v)
            assert L.bracket(u, v) == want, (L, u, v)
        if isinstance(L, RestrictedLieAlgebra):
            want = reference_pmap_eval(L, u)
            assert L.pmap_row(form.encode(u)) == form.encode(want), (L, u)
            assert L.pmap_eval(u) == want, (L, u)
    # subspaces from rows equal subspaces from tuples, row for row
    s = span(f, n, vecs)
    assert s == span_rows(f, n, map(form.encode, vecs)) and s.rows == reference_rref(f, vecs)
    assert hash(s) == hash(span_rows(f, n, map(form.encode, reversed(vecs))))
    assert L.center() == span(f, n, reference_center(L)), L
    assert L.centralizer(s) == span(f, n, reference_centralizer(L, s.rows)), (L, vecs)
    for sub in (s, L.center(), L.derived_subalgebra(), L.bracket_span(s, L.full_space())):
        assert L.is_ideal(sub) == reference_is_ideal(L, sub.rows), (L, sub.rows)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(algebra_and_vectors())
def test_row_core_matches_the_tuple_reference(case):
    check_against_reference(*case)


def test_row_core_matches_the_tuple_reference_over_f2xy():
    L = example_7_1()
    f = L.field
    o, x, y = f.zero, f.X, f.Y
    vecs = [(x, f.one, o, y, o, o, o), (o, f.add(x, y), f.div(f.one, x), o, f.one, o, o),
            (f.one, o, o, f.mul(x, x), o, y, f.one), (f.one, o, o, o, o, o, f.one)]
    check_against_reference(L, vecs)
