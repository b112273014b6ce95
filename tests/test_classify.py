import itertools
import random

import pytest

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.classify import (
    ClassifyOptions, LadderExhausted, NotTriangularizable, classify,
    match_condition, necessary_tests, nilpotent_core, triangularize,
    verify_verdict, _bracket_patterns, _pairing_elements,
)
from liesolv.envelope import Envelope
from liesolv.families import (
    family_i, family_iii, family_iv, family_v, free_class2, heisenberg,
    negative_class2, random_instance,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import Quotient, span

GF4 = gf(4)


def test_necessary_tests_pass_on_abelian():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0)] * 2)
    assert necessary_tests(L) is None


def test_necessary_tests_refute_n7():
    v = necessary_tests(negative_class2())
    assert v is not None and v.outcome == "not_solvable"
    env = Envelope(negative_class2())
    nil, _ = env.is_nilpotent(v.witness_elem)
    assert not nil


# The dict formulas that the native pattern evaluation replaced; run on
# Envelope(L, force_dict=True) they are the reference for it.

def _ref_pairing(env, e1, e2, e3, e4):
    a = env.lie(env.mul(env.mul(e4, e3), e1), e4)
    b = env.lie(env.mul(e4, e1), e1)
    return env.lie(env.lie(a, b), e2)


def _ref_bracket_pattern(env, z, b, y, x):
    zby = env.mul(env.mul(z, b), y)
    xb = env.mul(x, b)
    return env.lie(env.lie(env.lie(zby, z), env.lie(x, xb)), y)


def _ref_pattern_tests(L, budget):
    """(reason, pattern elements) of tests (b) and (c), on the dict products."""
    ref = Envelope(L, force_dict=True)
    tests = []
    cls = L.nilpotency_class()
    if cls is not None and cls <= 2:
        lifts = Quotient(L.full_space(), L.center()).lifted
        tests.append(("pairing-combination element is not nilpotent", [
            _ref_pairing(ref, *(ref.from_algebra_vec(sub[i]) for i in order))
            for sub in itertools.combinations(lifts, 4)
            for order in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3))]))
    gens = [ref.gen(i) for i in range(L.n)]
    perms = itertools.islice(itertools.permutations(range(L.n), 4), budget)
    tests.append(("bracket-pattern element is not nilpotent", [
        _ref_bracket_pattern(ref, *(gens[i] for i in tup)) for tup in perms]))
    return ref, tests


def _scaled(L):
    """L on the basis t*x_i for odd i and x_i for even i: constants leave GF(2)."""
    t = 2
    return L.rebase([[(t if i % 2 else 1) if i == j else 0 for j in range(L.n)]
                     for i in range(L.n)])


def _with_toral_pair(L):
    """L plus [h, e] = e, h^[2] = h: not nilpotent, so test (b) is skipped."""
    f = L.field
    return L.direct_sum(RestrictedLieAlgebra(f, ["h", "e"], {(0, 1): (f.zero, f.one)},
                                             [(f.one, f.zero), (f.zero, f.zero)]))


def _pattern_instances():
    """(algebra, whether some pattern element is nonzero)."""
    GF8 = gf(8)
    return [(negative_class2(GF2), True), (negative_class2(GF4), True),
            (family_v(GF4, h_dim=2), True), (family_v(GF8, h_dim=2), True),
            # constants outside GF(2), but every pattern element is zero;
            # test_native_helpers_agree_with_dict_products covers them
            (random_instance(6, GF4, 353)[0], False), (random_instance(6, GF8, 1)[0], False),
            (_scaled(family_v(GF8, h_dim=2)), True), (_scaled(negative_class2(GF8)), True),
            # refuted by a bracket pattern, test (c)
            (_with_toral_pair(negative_class2(GF4)), True)]


def test_native_pattern_elements_match_dict_formulas():
    budget = ClassifyOptions().pattern_budget
    for L, has_nonzero in _pattern_instances():
        env = Envelope(L)
        ref, tests = _ref_pattern_tests(L, budget)
        native = []
        cls = L.nilpotency_class()
        if cls is not None and cls <= 2:
            lifts = Quotient(L.full_space(), L.center()).lifted
            native.append(list(_pairing_elements(env, lifts)))
        native.append(list(_bracket_patterns(env, budget)))
        assert len(native) == len(tests)
        nonzero = 0
        for got, (_, want) in zip(native, tests):
            assert len(got) == len(want)
            for w_native, w_ref in zip(got, want):
                assert env._to_dict(w_native) == w_ref
                nonzero += bool(w_ref)
        assert bool(nonzero) == has_nonzero, L
        # necessary_tests reports the first non-nilpotent reference element
        first = next(((reason, w) for reason, elems in tests for w in elems
                      if not ref.is_nilpotent(w)[0]), None)
        verdict = necessary_tests(L)
        if first is None:
            assert verdict is None or verdict.witness_kind == "necessary_test"
        else:
            reason, w = first
            assert verdict is not None and verdict.reason == reason
            assert verdict.witness_str == ref.element_str(w)
            assert verdict.witness_elem == w


def test_nilpotent_core_h3():
    core = nilpotent_core(heisenberg())
    assert core.space == span(GF2, 3, [(0, 0, 1)])


def test_nilpotent_core_n7():
    core = nilpotent_core(negative_class2())
    assert core.space == span(GF2, 7, [(0, 0, 0, 0, 1, 0, 0),
                                       (0, 0, 0, 0, 0, 1, 0)])


def test_nilpotent_core_trivial_when_center_toral():
    assert nilpotent_core(family_iii()).space.dim == 0


def test_classify_h3():
    v = classify(heisenberg())
    assert v.outcome == "solvable" and v.condition == "i"
    assert verify_verdict(heisenberg(), v)
    assert v.oracle["outcome"] == "reached_zero"


def test_classify_n7_triple_agreement():
    L = negative_class2()
    v = classify(L)
    assert v.outcome == "not_solvable"
    assert v.oracle["outcome"] == "stabilized" and v.oracle["value"] > 0
    res = Envelope(L).sz_nilpotency()
    assert not res.nilpotent


def test_classify_families_solvable_with_verified_certificates():
    cases = [
        ("i", family_i()),
        ("i", family_i(toral=0, nilchain=2, moved=2, toral_action=True)),
        ("ii", free_class2(gens=3)),
        ("ii", free_class2(gens=3, center_squares=True)),
        ("iii", family_iii()),
        ("iii", family_iii(central_dim=1, central_bracket=True)),
        ("iv", family_iv(h_dim=1)),
        ("iv", family_iv(h_dim=3)),
        ("v", family_v(h_dim=1)),
        ("v", family_v(h_dim=3)),
    ]
    order = ["i", "ii", "iii", "iv", "v"]
    for expected, L in cases:
        v = classify(L)
        assert v.outcome == "solvable", (expected, v.reason)
        # first-match-wins may certify an earlier condition than the family name
        assert order.index(v.condition) <= order.index(expected)
        assert verify_verdict(L, v)
        assert v.oracle["outcome"] == "reached_zero"


def test_classify_gf4_families():
    for L in [heisenberg(GF4), family_iii(GF4), family_v(GF4, h_dim=1)]:
        v = classify(L)
        assert v.outcome == "solvable"
        assert verify_verdict(L, v)
        assert v.oracle["outcome"] == "reached_zero"


def test_classify_gf4_negative_control():
    L = negative_class2(GF4)
    v = classify(L)
    assert v.outcome == "not_solvable"
    assert v.oracle["outcome"] == "stabilized"
    assert verify_verdict(L, v)


def test_match_condition_v_directly():
    cert = match_condition(family_v(h_dim=2), "v")
    assert cert is not None
    assert cert.condition == "v"


def test_match_condition_v_with_sqrt_rescaling():
    # scale [x,h] by the generator t of GF(4): beta = t^2, x is rescaled by 1/t
    t = 2
    n = 4
    def unit(i, c=1):
        v = [0] * n
        v[i] = c
        return tuple(v)
    L = RestrictedLieAlgebra(
        GF4, ["x", "y", "h", "z"],
        {(0, 1): unit(0), (1, 2): unit(2), (0, 2): unit(3, t)},
        [(0,) * n, unit(1), unit(3), unit(3)],
    )
    assert L.check_axioms().ok
    cert = match_condition(L, "v")
    assert cert is not None
    x = cert.data["x"]
    h = cert.data["H"][0]
    assert L.pmap_eval(L.bracket(x, h)) == L.pmap_eval(h)
    v = classify(L)
    assert v.outcome == "solvable"
    assert v.oracle["outcome"] == "reached_zero"


def test_match_condition_no_match_on_n7_quotient():
    L = negative_class2()
    core = nilpotent_core(L)
    q, _ = L.quotient(core)
    for tag in ("i", "ii", "iii", "iv", "v"):
        assert match_condition(q, tag) is None, tag


def test_classify_invariant_under_rebase():
    rng = random.Random(611)
    for L in [heisenberg(), negative_class2(), family_v(h_dim=1)]:
        base = classify(L)
        for _ in range(3):
            while True:
                m = [tuple(GF2.random(rng) for _ in range(L.n)) for _ in range(L.n)]
                if span(GF2, L.n, m).dim == L.n:
                    break
            v = classify(L.rebase(m))
            assert v.outcome == base.outcome
            assert v.condition == base.condition


def test_classify_oracle_agreement_random():
    mismatches = []
    inconclusive = 0
    total = 0
    for field in [GF2, GF4]:
        for seed in range(20):
            L, _ = random_instance(4, field, seed)
            v = classify(L)
            total += 1
            if v.outcome == "inconclusive":
                inconclusive += 1
                continue
            want = "reached_zero" if v.outcome == "solvable" else "stabilized"
            if v.oracle is None or v.oracle["outcome"] != want:
                mismatches.append((field, seed, v.outcome, v.oracle))
    assert not mismatches
    assert inconclusive <= total // 10


def test_base_change_invariance_of_oracle():
    for L in [heisenberg(), family_iii(), negative_class2()]:
        res = Envelope(L).lie_derived_series()
        big, emb = GF2.extend(2, 0b111)
        res4 = Envelope(L.base_change(big, emb)).lie_derived_series()
        assert res.outcome == res4.outcome
        assert res.value == res4.value


# ----------------------------------------------------------------------
# triangularization
# ----------------------------------------------------------------------

def _apply(f, mat, v):
    n = len(mat)
    out = [f.zero] * n
    for i, c in enumerate(v):
        if not f.is_zero(c):
            for j in range(n):
                out[j] = f.add(out[j], f.mul(c, mat[i][j]))
    return tuple(out)


def _check_flag(f, mats, flag):
    n = len(flag)
    for k in range(1, n + 1):
        vk = span(f, n, flag[:k])
        assert vk.dim == k
        for m in mats:
            for v in flag[:k]:
                assert vk.contains_vector(_apply(f, m, v))


def test_triangularize_strictly_upper():
    mats = [
        ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
    ]
    flag = triangularize(mats, GF2)
    _check_flag(GF2, mats, flag)


def test_triangularize_swap_matrix():
    # char poly (x+1)^2 splits; eigenvector (1,1)
    mats = [((0, 1), (1, 0))]
    flag = triangularize(mats, GF2)
    assert flag[0] == (1, 1)
    _check_flag(GF2, mats, flag)


def test_triangularize_needs_extension():
    # companion matrix of t^2+t+1 has no eigenvalue over GF(2)
    mats = [((0, 1), (1, 1))]
    flag = triangularize(mats, GF2, ladder_max=2)
    assert len(flag) == 2
    with pytest.raises(LadderExhausted):
        triangularize(mats, GF2, ladder_max=1)


def test_triangularize_rejects_non_nilpotent_commutator():
    a = ((0, 1), (0, 0))
    b = ((0, 0), (1, 0))
    with pytest.raises(NotTriangularizable):
        triangularize([a, b], GF2)


def test_triangularize_commuting_family():
    mats = [((1, 0), (0, 0)), ((1, 1), (0, 1))]
    # commutator = [[0,1],[0,0]], nilpotent
    flag = triangularize(mats, GF2)
    _check_flag(GF2, mats, flag)
