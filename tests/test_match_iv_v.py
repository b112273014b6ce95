"""Conditions (iv)/(v) and (iii) from the toral elements and the eigenspace's
bracket forms, against the enumeration of every y and complement they
replaced."""

import collections
import itertools

import pytest

from liesolv.classify import (
    LadderExhausted, _abelian, _abelian_hyperplanes, _eigen_one_space, _finish_iv_v,
    _match_iv_v, _toral_ys, _verify_certificate, eigenvector_pair,
    isotropic_functionals, projective_vectors, subspace_points,
)
from liesolv.algebra import LieAlgebra, RestrictedLieAlgebra
from liesolv.families import family_iii, family_iv, family_v, random_instance
from liesolv.fields import GF2, gf
from liesolv.linalg import Quotient, lin_comb, span, vec_add, vec_scale

from test_abelian_ideals import central_forms, random_algebras

FIELDS = (GF2, gf(4), gf(8))
# complements the reference may visit per algebra and tag; above it the
# new result is only checked for soundness
BUDGET = 20000


class OverBudget(Exception):
    pass


def points_within(f, dim, cap):
    return f.order ** dim <= cap


def reference_candidate_ys(L):
    """The y that (iii)-(v) tried before the toral solve: points of L with
    first nonzero coordinate 1, or sums of at most three basis vectors."""
    f = L.field
    if points_within(f, L.n, 1 << 14):
        yield from subspace_points(f, L.full_space())
        return
    for i in range(L.n):
        yield L.basis_vector(i)
    for size in (2, 3):
        for combo in itertools.combinations(range(L.n), size):
            v = [f.zero] * L.n
            for i in combo:
                v[i] = f.one
            yield tuple(v)


def first_of_each_class(L, ys):
    """The y of ys whose class modulo the centre was not seen before."""
    zelim, seen = L.center().elim(), set()
    for y in ys:
        key = zelim.residue(y)
        if key not in seen:
            seen.add(key)
            yield y


def reference_complements_of_line(L, k, x):
    """All hyperplanes of k complementary to the line through x."""
    f = L.field
    basis = k.basis()
    d = k.dim
    x_coords = tuple(x[p] for p in k.pivots)
    lead = next(i for i, c in enumerate(x_coords) if not f.is_zero(c))
    others = [i for i in range(d) if i != lead]
    for lams in itertools.product(list(f.elements()), repeat=d - 1):
        yield [lin_comb(f, (f.one, lam), (basis[idx], x), L.n)
               for idx, lam in zip(others, lams)]


def reference_match_iv_v(L, tag, budget=BUDGET):
    f = L.field
    z = L.center()
    zelim = z.elim()
    visited = 0
    for y in reference_candidate_ys(L):
        k = _eigen_one_space(L, y)
        if k.dim < 2:
            continue
        if k.dim + 1 + z.dim != L.n:
            continue
        total = span(f, L.n, list(k.basis()) + [y] + list(z.basis()))
        if total.dim != L.n:
            continue
        if not points_within(f, k.dim, 1 << 12):
            raise LadderExhausted("eigenspace too large for point enumeration")
        for x in subspace_points(f, k):
            if not all(zelim.contains_vector(L.bracket(x, kb)) for kb in k.basis()):
                continue
            for hs in reference_complements_of_line(L, k, x):
                visited += 1
                if visited > budget:
                    raise OverBudget
                if not _abelian(L, hs):
                    continue
                cert = _finish_iv_v(L, tag, x, y, hs)
                if cert is not None:
                    return cert
    return None


def reference_eigenvector_pair(L, budget=BUDGET):
    """eigenvector_pair over every candidate y, with no dedup mod the centre."""
    f = L.field
    z = L.center()
    if L.n - z.dim != 3:
        return None
    zelim = z.elim()
    visited = 0
    for y in reference_candidate_ys(L):
        k = _eigen_one_space(L, y)
        if k.dim < 2:
            continue
        if not points_within(f, k.dim, 1 << 12):
            raise LadderExhausted("eigenspace too large for pair enumeration")
        pts = list(subspace_points(f, k))
        for x1, x2 in itertools.combinations(pts, 2):
            visited += 1
            if visited > budget:
                raise OverBudget
            if span(f, L.n, [x1, x2]).dim != 2:
                continue
            if not zelim.contains_vector(L.bracket(x1, x2)):
                continue
            total = span(f, L.n, [x1, x2, y] + list(z.basis()))
            if total.dim == L.n:
                return x1, x2, y
    return None


def outcome(fn, *args):
    try:
        result = fn(*args)
    except LadderExhausted:
        return "LadderExhausted"
    return getattr(result, "relations", result)


def z_first(L, field):
    """L on the basis (last vector, b_0, t*b_1, b_2, ...) with t a generator of
    the field: the y of (iii)-(v) is then t^-1 times the third vector, and the
    first candidate of its class mod Z is z + t^-1 * u2."""
    n = L.n
    t = 2
    basis = [L.basis_vector(n - 1), L.basis_vector(0),
             tuple(field.mul(t, c) for c in L.basis_vector(1))]
    basis += [L.basis_vector(i) for i in range(2, n - 1)]
    return L.rebase(basis)


def scaled_toral(field, c, restricted=True):
    """Basis (Y, x1, x2, z) with [x_i, Y] = c x_i and [x1, x2] = z; as a
    restricted algebra Y^[2] = c Y, z^[2] = z and x_i^[2] = 0.  The toral
    element is Y / c, whose first coordinate is 1 only when c = 1."""
    def vec(i, a=field.one):
        return tuple(a if j == i else field.zero for j in range(4))

    names = ["Y", "x1", "x2", "z"]
    brackets = {(0, 1): vec(1, c), (0, 2): vec(2, c), (1, 2): vec(3)}
    if not restricted:
        return LieAlgebra(field, names, brackets)
    zero = (field.zero,) * 4
    return RestrictedLieAlgebra(field, names, brackets, [vec(0, c), zero, zero, vec(3)])


def matcher_cases():
    for field in FIELDS:
        for h_dim in (1, 2, 3):
            yield f"family_iv-h{h_dim}-q{field.order}", family_iv(field, h_dim)
            yield f"family_v-h{h_dim}-q{field.order}", family_v(field, h_dim)
        for n in (4, 5):
            for seed in range(40):
                yield f"random-n{n}-s{seed}-q{field.order}", random_instance(n, field, seed)[0]
    for field in FIELDS[1:]:
        for family in (family_iv, family_v):
            yield f"z-first-{family.__name__}-q{field.order}", z_first(family(field), field)
        yield f"z-first-family_v-h2-q{field.order}", z_first(family_v(field, 2), field)


def compare_with_reference(cases):
    """Counts of _match_iv_v against reference_match_iv_v, and its new finds.

    The result equals the reference wherever the reference finds a
    certificate.  Where it finds none, a new find must verify; where the
    reference goes over BUDGET or its point cap, every find must verify.
    """
    counts, new_finds = collections.Counter(), set()
    for label, L in cases:
        for tag in ("iv", "v"):
            counts["cases"] += 1
            new = outcome(_match_iv_v, L, tag)
            counts["matched"] += isinstance(new, list)
            try:
                old = outcome(reference_match_iv_v, L, tag)
            except OverBudget:
                old = "OverBudget"
            if old in ("OverBudget", "LadderExhausted"):
                counts["skipped"] += 1
                cert = _match_iv_v(L, tag)
                assert cert is None or _verify_certificate(L, cert), (label, tag)
                continue
            counts["compared"] += 1
            if old is None and new is not None:
                assert _verify_certificate(L, _match_iv_v(L, tag)), (label, tag)
                new_finds.add((label, tag))
                continue
            assert new == old, (label, tag)
    return counts, new_finds


def test_match_iv_v_matches_enumeration():
    counts, new_finds = compare_with_reference(matcher_cases())
    assert counts["cases"] == 2 * (258 + 6)
    assert (counts["compared"], counts["skipped"], counts["matched"]) == (521, 7, 36)
    # the one new find: y = 5·u2 is toral, and the walk of points with
    # first coordinate 1 tried only its multiple u2
    assert new_finds == {("z-first-family_v-h2-q8", "v")}


def test_match_iv_v_matches_enumeration_at_degree_2():
    # the GF(2) and GF(4) cases over GF(4) and GF(16), where the walk
    # over every point x and every complement costs q^dim k
    cases = [(f"{label}-deg2", L.base_change(*L.field.extend(2)))
             for label, L in matcher_cases() if L.field.order <= 4]
    counts, new_finds = compare_with_reference(cases)
    assert counts["cases"] == 2 * (86 + 89)
    assert (counts["compared"], counts["skipped"], counts["matched"]) == (341, 9, 22)
    # as at degree 1, a toral y that the reference's walk of points with
    # first coordinate 1 misses: z_first makes it t^-1 times a basis vector
    assert new_finds == {(f"z-first-{name}-q4-deg2", tag) for name, tag in (
        ("family_iv", "iv"), ("family_v", "iv"), ("family_v", "v"), ("family_v-h2", "v"))}


def test_a_match_depends_on_the_hyperplane_only():
    # for every abelian hyperplane H that the walk meets, x may be replaced
    # by c x + h' (c != 0, h' in H) and the basis of H by another one:
    # _finish_iv_v completes a certificate for all of them or for none
    checked = found = 0
    for label, L in matcher_cases():
        f = L.field
        t = max(f.elements())
        for y in _toral_ys(L, L.center()):
            for x, hs in _abelian_hyperplanes(L, _eigen_one_space(L, y)):
                h_sum = lin_comb(f, [f.one] * len(hs), hs, L.n)
                other = [vec_add(f, vec_scale(f, t, h), hs[-1]) for h in hs[:-1]] + hs[-1:]
                for tag in ("iv", "v"):
                    want = _finish_iv_v(L, tag, x, y, hs) is not None
                    for c, h_prime, basis in itertools.product(
                            (f.one, t), (L.zero_vec(), hs[0], h_sum), (hs, other)):
                        x_new = vec_add(f, vec_scale(f, c, x), h_prime)
                        cert = _finish_iv_v(L, tag, x_new, y, basis)
                        assert (cert is not None) == want, (label, tag)
                        assert cert is None or _verify_certificate(L, cert), (label, tag)
                        checked += 1
                        found += cert is not None
    assert (checked, found) == (70872, 23484)


def reference_pair_loop(L):
    """eigenvector_pair as it was before the dim k <= 2 lemma and the
    toral solve: every pair of points of each eigenspace, in enumeration
    order, for the first candidate y of each class mod the centre."""
    f = L.field
    z = L.center()
    if L.n - z.dim != 3:
        return None
    zelim = z.elim()
    for y in first_of_each_class(L, reference_candidate_ys(L)):
        k = _eigen_one_space(L, y)
        if k.dim < 2:
            continue
        if not points_within(f, k.dim, 1 << 12):
            raise LadderExhausted("eigenspace too large for pair enumeration")
        pts = list(subspace_points(f, k))
        for x1, x2 in itertools.combinations(pts, 2):
            if span(f, L.n, [x1, x2]).dim != 2:
                continue
            if not zelim.contains_vector(L.bracket(x1, x2)):
                continue
            total = span(f, L.n, [x1, x2, y] + list(z.basis()))
            if total.dim == L.n:
                return x1, x2, y
    return None


def is_eigenvector_pair(L, found):
    x1, x2, y = found
    f, z = L.field, L.center()
    return (L.bracket(x1, y) == x1 and L.bracket(x2, y) == x2
            and z.contains_vector(L.bracket(x1, x2))
            and span(f, L.n, [x1, x2, y] + list(z.basis())).dim == L.n)


def agrees_or_verifies(L, new, old):
    """new equals old where old is a pair; where old is None, new is None or
    a pair: the reference walk misses a toral y with a first coordinate
    other than 1.  Returns whether new is such a find."""
    if old is None and new is not None:
        assert is_eigenvector_pair(L, new), L
        return True
    assert new == old, L
    return False


def test_eigenvector_pair_lemma_matches_pair_loop():
    # random_algebras() holds the draws of test_abelian_ideals and their
    # base changes; the family_iii cases have a pair, rebased or not
    cases = list(random_algebras()) + [L for _, L in matcher_cases()]
    for field in FIELDS:
        L = family_iii(field, central_dim=1, central_bracket=True)
        cases += [L, z_first(L, field)] if field is not GF2 else [L]
    cases += [scaled_toral(FIELDS[1], c, restricted) for c in (1, 2, 3)
              for restricted in (True, False)]
    found = new_finds = 0
    for L in cases:
        new = outcome(eigenvector_pair, L)
        new_finds += agrees_or_verifies(L, new, outcome(reference_pair_loop, L))
        if new is not None:
            found += 1
            assert is_eigenvector_pair(L, new)
    # the new finds are scaled_toral over GF(4) with c = 2 and 3, both kinds
    assert (len(cases), found, new_finds) == (2304 + 264 + 5 + 6, 25, 4)
    # over GF(2^8) and up an eigenspace of dimension 2 has more than
    # 2^12 points, so the pair loop gave up where the lemma decides
    for m in (8, 9, 12):
        L = family_iii(GF2, central_dim=1, central_bracket=True).base_change(*GF2.extend(m))
        with pytest.raises(LadderExhausted):
            reference_pair_loop(L)
        assert is_eigenvector_pair(L, eigenvector_pair(L))


def test_eigenvector_pair_dedup_matches_every_candidate():
    cases = list(matcher_cases())
    for field in FIELDS[1:]:
        L = family_iii(field, central_dim=1, central_bracket=True)
        cases += [("family_iii", L), ("z-first-family_iii", z_first(L, field))]
    compared = found = new_finds = 0
    for label, L in cases:
        new = outcome(eigenvector_pair, L)
        try:
            old = outcome(reference_eigenvector_pair, L)
        except OverBudget:
            continue
        compared += 1
        found += new is not None
        new_finds += agrees_or_verifies(L, new, old)
    assert (compared, found, new_finds) == (268, 14, 0)


# -- hand-built eigenspaces ------------------------------------------------

HAND_BUILT = {
    # no bracket at all: every hyperplane is abelian
    "abelian": (3, {(0, 1): (0,)}, "all"),
    # one rank-2 form x0^x1 (x2 free): S = span(x0*, x1*)
    "rank-2": (3, {(0, 1): (1,)}, 2),
    # x0^x1 + x2^x3: rank 4, no abelian hyperplane
    "rank-4": (4, {(0, 1): (1,), (2, 3): (1,)}, 0),
}


def isotropic_by_enumeration(L, basis):
    """Projective points phi of k* whose kernel brackets to zero pairwise."""
    f, d = L.field, len(basis)
    found = set()
    for phi in projective_vectors(f, d):
        # ker phi is spanned by phi_i b_j + phi_j b_i for a fixed phi_i != 0
        i = next(i for i in range(d) if not f.is_zero(phi[i]))
        ker = [lin_comb(f, (phi[i], phi[j]), (basis[j], basis[i]), L.n)
               for j in range(d) if j != i]
        if _abelian(L, ker):
            found.add(phi)
    return found


def projective_points(f, s):
    out = set()
    for c in projective_vectors(f, s.dim):
        v = lin_comb(f, c, s.basis(), s.ambient)
        lead = next(a for a in v if not f.is_zero(a))
        out.add(tuple(f.div(a, lead) for a in v))
    return out


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_isotropic_functionals_hand_built(name):
    d, forms, expected = HAND_BUILT[name]
    for field in FIELDS[:2]:
        L = central_forms(field, d, forms)
        assert L.check_axioms().ok
        k = L.span_of(L.basis_vector(i) for i in range(d))
        s = isotropic_functionals(L, k.basis())
        assert s.dim == (d if expected == "all" else expected), field
        assert projective_points(field, s) == isotropic_by_enumeration(L, k.basis())
        # the walk over P(S) meets each abelian hyperplane once, with the
        # x and the basis under which the walk over every point x and
        # every complement of x, in enumeration order, first meets it
        old, seen = [], set()
        for x in subspace_points(field, k):
            for hs in reference_complements_of_line(L, k, x):
                key = span(field, L.n, hs).rows
                if _abelian(L, hs) and key not in seen:
                    seen.add(key)
                    old.append((x, hs))
        walk = list(_abelian_hyperplanes(L, k))
        assert walk == old, field
        assert len(walk) == len(projective_points(field, s))
        assert walk or expected == 0


def _noncentral_eigenspace(field):
    """[a,y] = a, [b,y] = b, [c,y] = c, [a,b] = w, [a,w] = b: the eigenspace
    of y is span{a, b, c}, and only the line of c brackets it into Z = 0."""
    def unit(i):
        return tuple(field.one if j == i else field.zero for j in range(5))

    L = LieAlgebra(field, ["y", "a", "b", "c", "w"],
                   {(0, 1): unit(1), (0, 2): unit(2), (0, 3): unit(3), (1, 2): unit(4),
                    (1, 4): unit(2)})
    assert L.check_axioms().ok
    return L


def is_toral(L, y):
    """Whether y passes every filter of the y walk that _toral_ys replaced,
    with the eigenspace k of ad y for 1 bracketing into the centre Z: dim
    k >= 2 and L = k ⊕ Fy ⊕ Z directly."""
    f, z = L.field, L.center()
    k, zelim = _eigen_one_space(L, y), z.elim()
    return (k.dim >= 2 and k.dim + 1 + z.dim == L.n
            and span(f, L.n, list(k.basis()) + [y] + list(z.basis())).dim == L.n
            and all(zelim.contains_vector(L.bracket(a, b))
                    for a, b in itertools.combinations(k.basis(), 2)))


def test_toral_ys_are_the_candidates_that_pass_every_filter():
    # _toral_ys yields first, in their order, the candidates of the walk
    # it replaced (the first of each class mod Z) that pass every filter
    # that walk applied and the one [x, k] in Z on every x of k, then
    # rescaled toral elements of new classes; so the search of (iii)-(v)
    # keeps the reference's certificates and adds only new finds
    checked = rescaled = 0
    cases = list(matcher_cases())
    cases += [(f"noncentral-q{f.order}", _noncentral_eigenspace(f)) for f in FIELDS]
    for field in FIELDS:
        L = family_iii(field, central_dim=1, central_bracket=True)
        cases += [("family_iii", L)] + ([("z-first-family_iii", z_first(L, field))]
                                        if field is not GF2 else [])
    for label, L in cases:
        ys = list(_toral_ys(L, L.center()))
        want = [y for y in first_of_each_class(L, reference_candidate_ys(L))
                if is_toral(L, y)]
        assert ys[:len(want)] == want, label
        assert all(is_toral(L, y) for y in ys[len(want):]), label
        assert list(first_of_each_class(L, ys)) == ys, label
        checked += bool(ys)
        rescaled += len(ys) - len(want)
    assert (len(cases), checked, rescaled) == (264 + 3 + 5, 29, 247)
