"""The derived series and sz ideal of u(L) as modules over the centre.

``lie_derived_series`` and ``sz_ideal`` bracket module generators over
the central subalgebra A generated by the central basis vectors of L.
The references below are the all-pairs loops they replaced, which work
over the field alone; every comparison is of canonical RREF subspaces.
"""

from dataclasses import replace

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.classify import PATTERN_DIM_LIMIT, classify, necessary_tests, verify_verdict
from liesolv.envelope import MAX_ENVELOPE_N, Envelope
from liesolv.families import (
    example_7_1, family_i, family_iv, family_v, free_class2, heisenberg,
    negative_class2, random_instance, witness_chain,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import Subspace

GF4 = gf(4)
GF8 = gf(8)


def _all_pairs_series(env, max_steps=64, keep_terms=False):
    """The derived series over the field: D_1 from all n*2^n brackets
    [m, x_g], D_{k+1} from every pair of a basis of D_k."""
    dims = [env.dim]
    terms = [Subspace.full(env.field, env.dim)] if keep_terms else None
    prev = elems = None
    for _ in range(max_steps):
        elim = env._span(env._d1_brackets() if elems is None
                         else env._pair_brackets(elems))
        cur = elim.basis_planes()
        dims.append(len(cur))
        if keep_terms:
            terms.append(elim.to_subspace())
        if not cur:
            return dims, "reached_zero", len(dims) - 1, terms
        if cur == prev:
            return dims, "stabilized", len(cur), terms
        prev = elems = cur
    return dims, "budget_exceeded", dims[-1], terms


def _all_pairs_sz_ideal(env):
    """The sz ideal seeded from [u, x_g] for every u in a basis of D_2."""
    d1 = env._span(env._d1_brackets()).basis_planes()
    d2 = env._span(env._pair_brackets(d1)).basis_planes()
    gen = env._span(env._lie_gen(u, g) for u in d2 for g in range(env.n))
    queue = gen.basis_planes()
    while queue:
        v = queue.pop()
        for g in range(env.n):
            for w in (env._mul_gen(v, g), env._gen_mul(g, v)):
                if gen.add_planes(w):
                    queue.append(w)
    return [env._to_dict(e) for e in gen.basis_planes()]


def _assert_matches_reference(L, force_dict=False, sz=True):
    env = Envelope(L, force_dict)
    got = env.lie_derived_series(keep_terms=True)
    want = _all_pairs_series(Envelope(L, force_dict), keep_terms=True)
    assert (got.dims, got.outcome, got.value, got.terms) == want, (L.names, L.field)
    if sz:
        assert env.sz_ideal() == _all_pairs_sz_ideal(Envelope(L, force_dict)), L.names
    return got


def _mix_centre(L):
    """L on a basis where each central basis vector z becomes z + x for a
    non-central x, so no basis vector is central any more."""
    central = Envelope(L)._central_gens()
    x = next(g for g in range(L.n) if g not in central)
    basis = [list(L.basis_vector(i)) for i in range(L.n)]
    for z in central:
        basis[z][x] = L.field.one
    return L.rebase(basis)


# the families of the series-gf2, series-gf2k and sz-ideal benchmark workloads
_BENCHMARK_FAMILIES = [
    witness_chain(2), family_v(GF2, 3), family_i(GF2, 3, 3, 2), negative_class2(),
    family_v(GF4, 3), family_i(GF4, 3, 2, 2), family_iv(GF4, 3),
    free_class2(GF4, gens=3, center_squares=True), family_v(GF8, 2), negative_class2(GF8),
    family_iv(GF2, 3), negative_class2(GF4), family_v(GF4, 2),
]

# (n, seed) of a random_instance draw with r central basis vectors, r = 1..6;
# the draws with r = 0 are these rebased by _mix_centre
_DRAWS = {
    GF2: {1: (3, 7), 2: (6, 167), 3: (5, 1), 4: (6, 4), 5: (7, 2), 6: (8, 0)},
    GF4: {1: (3, 3), 2: (6, 148), 3: (5, 3), 4: (6, 7), 5: (7, 0), 6: (8, 3)},
    GF8: {1: (3, 3), 2: (6, 18), 3: (5, 6), 4: (6, 1), 5: (7, 17), 6: (8, 2)},
}


def _draws():
    for field, by_r in _DRAWS.items():
        for r, (n, seed) in by_r.items():
            yield r, random_instance(n, field, seed)[0]


def test_central_gens_are_central():
    for L in _BENCHMARK_FAMILIES + [heisenberg(), example_7_1()]:
        env = Envelope(L)
        central = env._central_gens()
        assert central == [i for i in range(L.n) if L.center().contains_vector(L.basis_vector(i))]
        for z in central:
            for g in range(L.n):
                assert env.lie(env.gen(z), env.gen(g)) == {}


def test_benchmark_families_match_all_pairs():
    for L in _BENCHMARK_FAMILIES:
        assert len(Envelope(L)._central_gens()) >= 2, L.names
        _assert_matches_reference(L)


def test_random_draws_with_0_to_6_central_vectors_match_all_pairs():
    seen = set()
    for r, L in _draws():
        assert len(Envelope(L)._central_gens()) == r, (L.field, L.n, r)
        res = _assert_matches_reference(L)
        assert res.dims[1] > 0
        if r == 2:
            M = _mix_centre(L)
            assert Envelope(M)._central_gens() == []
            _assert_matches_reference(M)
            seen.add((L.field, 0))
        seen.add((L.field, r))
    assert seen == {(f, r) for f in (GF2, GF4, GF8) for r in range(7)}


def test_force_dict_matches_all_pairs():
    for L in [family_v(GF4, 2), negative_class2(GF8), random_instance(6, GF4, 7)[0],
              random_instance(7, GF8, 17)[0]]:
        _assert_matches_reference(L, force_dict=True)


def test_example_7_1_matches_all_pairs():
    res = _assert_matches_reference(example_7_1())
    assert res.dims == [128, 99, 60, 60] and res.outcome == "stabilized"


def test_series_invariant_under_mixing_the_centre_into_the_basis():
    # family_v with h_dim = 3, family_iv and Example 7.1 are left out: with
    # no central basis vector their series take seconds
    for L in [witness_chain(2), family_i(GF2, 3, 3, 2), negative_class2(),
              family_i(GF4, 3, 2, 2), free_class2(GF4, gens=3, center_squares=True),
              family_v(GF8, 2), negative_class2(GF8), family_v(GF4, 2)]:
        M = _mix_centre(L)
        assert Envelope(M)._central_gens() == []
        got, want = Envelope(M).lie_derived_series(), Envelope(L).lie_derived_series()
        assert (got.dims, got.outcome) == (want.dims, want.outcome), L.names


def test_stable_step_stops_at_its_ceiling():
    # D_{k+1} lies in D_k, so the step that repeats D_k stops bracketing as
    # soon as its rank reaches dim D_k
    env = Envelope(negative_class2())
    pairs = []
    bracket_pairs = env._pair_brackets

    def counted(elems):
        pairs.append([len(elems) * (len(elems) - 1) // 2, 0])
        for w in bracket_pairs(elems):
            pairs[-1][1] += 1
            yield w

    env._pair_brackets = counted
    res = env.lie_derived_series()
    assert res.dims == [128, 96, 60, 60] and res.outcome == "stabilized"
    total, used = pairs[-1]
    assert used < total


def test_stabilization_is_read_by_rank():
    # D_{k+1} lies in D_k, so terms of equal rank are equal: the series
    # compares ranks and reads a term's rows only as generators (no
    # central basis vector) or for keep_terms, which must change nothing
    mixed = _mix_centre(negative_class2(GF8))
    for L in [negative_class2(), negative_class2(GF4), negative_class2(GF8), mixed]:
        assert Envelope(L)._central_gens() == ([] if L is mixed else [4, 5, 6])
        kept = Envelope(L).lie_derived_series(keep_terms=True)
        assert (kept.dims, kept.outcome, kept.value) == ([128, 96, 60, 60], "stabilized", 60)
        assert kept.terms[-1] == kept.terms[-2] != kept.terms[-3]
        assert [t.dim for t in kept.terms] == kept.dims
        for max_steps, want in [(64, kept), (2, None)]:
            bare = Envelope(L).lie_derived_series(max_steps)
            with_terms = Envelope(L).lie_derived_series(max_steps, keep_terms=True)
            assert (bare.dims, bare.outcome, bare.value) == \
                (with_terms.dims, with_terms.outcome, with_terms.value)
            if want is None:
                assert (bare.dims, bare.outcome, bare.value) == \
                    ([128, 96, 60], "budget_exceeded", 60)
                assert with_terms.terms == kept.terms[:3]
            else:
                assert bare.terms is None and with_terms.terms == kept.terms


def test_verify_verdict_checks_a_witness_in_dimension_max_envelope_n():
    # an sz witness must be the one necessary_tests re-derives, and its
    # pattern tests build u(L) for n <= PATTERN_DIM_LIMIT only: the z14
    # witness of negative_class2 verifies on L, and carried into a direct
    # sum with an abelian algebra of dimension MAX_ENVELOPE_N it is refuted
    L = negative_class2()
    v = classify(L)
    assert v.outcome == "not_solvable" and v.witness_elem == {1 << 6: 1}
    assert verify_verdict(L, v)
    pad = MAX_ENVELOPE_N - L.n
    M = L.direct_sum(RestrictedLieAlgebra(GF2, [f"a{i}" for i in range(pad)], {},
                                          [(0,) * pad] * pad))
    assert M.n == MAX_ENVELOPE_N > PATTERN_DIM_LIMIT
    assert necessary_tests(M) is None
    assert not verify_verdict(M, v)
    # b1 has zero square, so a witness made of it is refuted as well
    assert not verify_verdict(M, replace(v, witness_elem={1: 1}))
