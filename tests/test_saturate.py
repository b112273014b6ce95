"""The worklist closures against the loops they replaced.

``restricted_closure``, ``p_closure``, the saturation of the sz ideal and
the power loops of ``sz_nilpotency`` and ``envelope_augmentation_nilpotent``
all run on ``linalg.saturate``.  The references are the round-based
closures, which recompute every image until the span repeats, the
saturation of the sz ideal from the RREF basis of its seeds
(``_all_pairs_sz_ideal``), and the power loops that form all |I^p|*|I|
products.  Every comparison is exact.
"""

import random
from functools import partial

import pytest

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.classify import _central_2nilpotent_locus
from liesolv.envelope import SZResult, Envelope, envelope_augmentation_nilpotent
from liesolv.families import (
    example_7_1, example_7_1_extended, family_i, family_iv, family_v, free_class2, heisenberg,
    negative_class2, random_instance, witness_chain,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import Eliminator, saturate, span

from test_series_module import _all_pairs_sz_ideal, _mix_centre

GF4 = gf(4)
GF8 = gf(8)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def round_restricted_closure(L, gens):
    current = L.span_of(gens)
    while True:
        vecs = list(current.basis())
        for v in current.basis():
            for j in range(L.n):
                vecs.append(L.bracket(v, L.basis_vector(j)))
            vecs.append(L.pmap_eval(v))
        nxt = L.span_of(vecs)
        if nxt == current:
            return current
        current = nxt


def round_p_closure(L, s):
    current = s
    while True:
        nxt = L.span_of(list(current.basis()) + [L.pmap_eval(v) for v in current.basis()])
        if nxt == current:
            return current
        current = nxt


def all_products_index(env, base):
    """I^(p+1) as the span of every product u*v, u in I^p and v in I."""
    cur, power = base, 1
    while True:
        products = []
        for u in cur:
            table, fill = env._products(u)
            products.extend(env._apply(table, fill, v) for v in base)
        nxt = env._span(products).basis_planes()
        if not nxt:
            return power + 1, None
        if nxt == cur:
            return None, nxt
        cur, power = nxt, power + 1


def reference_sz_nilpotency(env):
    base = [env._native(e) for e in _all_pairs_sz_ideal(env)]
    if not base:
        return base, SZResult(True, 1, 0)
    index, stable = all_products_index(env, base)
    if index is not None:
        return base, SZResult(True, index, len(base))
    return base, SZResult(False, None, len(base), env._pick_non_nilpotent(stable))


def reference_augmentation_nilpotent(L):
    env = Envelope(L)
    index, _ = all_products_index(env, [env._mono(m) for m in range(1, env.dim)])
    return index is not None, index


# ----------------------------------------------------------------------
# the worklist itself
# ----------------------------------------------------------------------

def test_saturate_closes_under_the_maps_and_returns_accepted_inputs():
    # the shift e_i -> e_(i+1) on GF(2)^6: the closure of e_2 is e_2..e_5
    n = 6
    elim = Eliminator(GF2, n)

    def shift(v):
        return (0,) + tuple(v[:-1])

    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    accepted = saturate(elim.add_vector, [unit[2], unit[4], unit[1]], [shift])
    assert accepted == [unit[2], unit[1]]
    assert elim.to_subspace() == span(GF2, n, unit[1:])
    # stopping at rank 2 leaves the rest unread and unmapped
    elim = Eliminator(GF2, n)
    seen = []

    def read():
        for v in unit:
            seen.append(v)
            yield v

    accepted = saturate(elim.add_vector, read(), [shift], ceiling=2)
    assert accepted == [unit[0]] and elim.rank == 2 and seen == [unit[0]]


# ----------------------------------------------------------------------
# restricted algebras
# ----------------------------------------------------------------------

def _closure_inputs():
    """(algebra, generators) pairs: the inputs the other test files close,
    the generators classify builds, and random draws."""
    h = heisenberg()
    yield h, [(0, 0, 1)]
    yield h, [(1, 0, 0)]
    yield h, [h.basis_vector(i) for i in range(3)]
    n7 = negative_class2()
    yield n7, [(0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0)]
    # the ideal J of Example 7.1 over F2(sqrt X, sqrt Y)
    Lx, big, embed = example_7_1_extended()
    idx = {name: i for i, name in enumerate(Lx.names)}
    F = example_7_1().field

    def central(c, zi, zj):
        v = [big.zero] * Lx.n
        v[idx[zi]], v[idx[zj]] = c, big.one
        return tuple(v)

    yield Lx, [central(big.sqrt(embed(F.X)), "z1", "z2"),
               central(big.sqrt(embed(F.Y)), "z1", "z3")]
    families = [heisenberg(GF4), n7, negative_class2(GF4), family_iv(GF2, 2), family_v(GF4, 2),
                family_i(GF2, 3, 3, 2), witness_chain(2),
                free_class2(GF4, gens=3, center_squares=True)]
    for L in families:
        # the generators of necessary test (a) and the alternative core
        d1 = L.derived_subalgebra()
        d2 = L.bracket_span(d1, d1)
        yield L, [L.bracket(v, L.basis_vector(j)) for v in d2.basis() for j in range(L.n)]
        yield L, list(_central_2nilpotent_locus(L, L.center()).rows)
    for field in (GF2, GF4, GF8):
        for n in range(2, 9):
            for seed in range(4):
                L = random_instance(n, field, seed)[0]
                rng = random.Random(seed * 100 + n)
                yield L, [tuple(field.random(rng) for _ in range(n)) for _ in range(1 + seed % 2)]


def test_restricted_closure_matches_round_based_closure():
    count = 0
    for L, gens in _closure_inputs():
        got = L.restricted_closure(gens)
        assert got == round_restricted_closure(L, gens), (L.names, gens)
        count += 1
    assert count == 5 + 16 + 84


def test_p_closure_matches_round_based_closure():
    cases = 0
    for L, gens in _closure_inputs():
        d1 = L.derived_subalgebra()
        # bracket-closed inputs: L', L'', Z(L), and the ideal the gens generate
        for s in (d1, L.bracket_span(d1, d1), L.center(), L.restricted_closure(gens)):
            assert L.p_closure(s) == round_p_closure(L, s), L.names
            cases += 1
    assert cases == 4 * (5 + 16 + 84)


# ----------------------------------------------------------------------
# ideals of u(L)
# ----------------------------------------------------------------------

SZ_INSTANCES = [
    ("family_v-h3-gf2", lambda: family_v(GF2, 3)),
    ("family_iv-h3-gf2", lambda: family_iv(GF2, 3)),
    ("witness_chain-2-gf2", lambda: witness_chain(2)),
    ("negative_class2-gf2", lambda: negative_class2()),
    ("negative_class2-gf4", lambda: negative_class2(GF4)),
    ("family_v-h2-gf4", lambda: family_v(GF4, 2)),
    ("family_v-h2-gf2-mixed", lambda: _mix_centre(family_v(GF2, 2))),
]


@pytest.mark.parametrize("force_dict", [False, True])
@pytest.mark.parametrize("label,build", SZ_INSTANCES, ids=[s[0] for s in SZ_INSTANCES])
def test_sz_matches_all_products_reference(label, build, force_dict):
    L = build()
    if label.endswith("mixed"):
        assert Envelope(L)._central_gens() == []
    env = Envelope(L, force_dict)
    want_basis, want = reference_sz_nilpotency(Envelope(L, force_dict))
    assert env.sz_ideal() == [env._to_dict(e) for e in want_basis]
    got = Envelope(L, force_dict).sz_nilpotency()
    assert got == want, label
    assert got.ideal_dim > 0


def test_augmentation_nilpotent_matches_all_products_reference():
    algebras = [heisenberg(), family_iv(GF2, 2), family_v(GF2, 2), negative_class2(),
                RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (0, 0)])]
    algebras += [random_instance(n, field, s)[0] for field in (GF2, GF4)
                 for n in (2, 3, 4, 5) for s in range(4)]
    outcomes = set()
    for L in algebras:
        got = envelope_augmentation_nilpotent(L)
        assert got == reference_augmentation_nilpotent(L), L.names
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_power_index_closes_the_products_under_right_multiplication():
    # [x, y] = x with y toral: the two-sided ideal generated by the seed y
    # holds x = xy + yx, so it is the augmentation ideal and I^2 = I, but
    # the products a*y of a basis of I span only y and xy
    L = RestrictedLieAlgebra(GF2, ["x", "y"], {(0, 1): (1, 0)}, [(0, 0), (0, 1)])
    assert L.check_axioms().ok
    env = Envelope(L)
    aug = [env._mono(m) for m in (1, 2, 3)]
    assert env._span(env._mul_gen(a, 1) for a in aug).rank == 2
    index, stable = env._power_index(aug, [partial(env._mul_gen, g=1)])
    assert index is None and len(stable) == 3
