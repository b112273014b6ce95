import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest

import liesolv.classify as classify_module
from liesolv.algebra import RestrictedLieAlgebra
from liesolv.classify import (
    PATTERN_BUDGET, TAG_ORDER, ClassifyOptions, CoreNotNilpotent, LadderExhausted, Verdict,
    classify, match_condition, necessary_tests, nilpotent_core, verify_verdict,
    _alternative_core, _bracket_patterns, _central_2nilpotent_locus,
    _match_over, _pairing_elements, _quotient, _run_oracle, _solvable_verdict,
    subspace_points,
)
from liesolv.envelope import MAX_ENVELOPE_N, Envelope
from liesolv.families import (
    example_7_1, family_i, family_iii, family_iv, family_v, free_class2, heisenberg,
    negative_class2, random_instance, witness_chain,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import Quotient, Subspace, span, vec_is_zero
from liesolv.ordinary import corollary_classify

from test_bracket import perturbed, reference_jacobi
from test_match_iv_v import matcher_cases, scaled_toral

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
        lifts = Quotient(L.center()).lifted
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


def _pattern_is_zero(L, z, b, y, x):
    """Whether [[z b y, z], [x, x b], y] is 0 by the brackets of L alone:
    [x b, x] = x [b, x] and [z b y, z] = z ([b, z] y + b [y, z])."""
    def commute(i, j):
        return vec_is_zero(L.field, L.bracket(L.basis_vector(i), L.basis_vector(j)))
    return commute(b, x) or (commute(b, z) and commute(y, z))


def test_native_pattern_elements_match_dict_formulas():
    budget = PATTERN_BUDGET
    skipped = 0
    for L, has_nonzero in _pattern_instances():
        env = Envelope(L)
        ref, tests = _ref_pattern_tests(L, budget)
        native = []
        cls = L.nilpotency_class()
        if cls is not None and cls <= 2:
            lifts = Quotient(L.center()).lifted
            native.append(list(_pairing_elements(env, lifts)))
        native.append(list(_bracket_patterns(env, budget)))
        assert len(native) == len(tests)
        # test (c) yields the reference stream less the permutations whose
        # element is 0 by the brackets of L, and each of those is 0
        perms = itertools.islice(itertools.permutations(range(L.n), 4), budget)
        screen = [_pattern_is_zero(L, *tup) for tup in perms]
        want_c = tests[-1][1]
        assert len(screen) == len(want_c)
        assert not any(w for w, zero in zip(want_c, screen) if zero)
        skipped += sum(screen)
        streams = [want for _, want in tests[:-1]]
        streams.append([w for w, zero in zip(want_c, screen) if not zero])
        for got, want in zip(native, streams):
            assert len(got) == len(want)
            for w_native, w_ref in zip(got, want):
                assert env._to_dict(w_native) == w_ref
        nonzero = any(w for _, want in tests for w in want)
        assert nonzero == has_nonzero, L
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
    assert skipped > 0


def _unscreened_bracket_patterns(env, budget):
    """Test (c) on every one of the first ``budget`` permutations."""
    for z, b, y, x in itertools.islice(itertools.permutations(range(env.n), 4), budget):
        zby = env._mul_gen(env._mul_gen(env._mono(1 << z), b), y)
        ad = env._ad(env._lie_gen(env._mul_gen(env._mono(1 << x), b), x))
        yield env._lie_gen(ad(env._lie_gen(zby, z)), y)


def _random_rebase(L, rng):
    f = L.field
    while True:
        m = [tuple(f.random(rng) for _ in range(L.n)) for _ in range(L.n)]
        if span(f, L.n, m).dim == L.n:
            return L.rebase(m)


def test_screens_agree_with_unscreened_references_on_random_rebases(monkeypatch):
    # a random basis still leaves some basis pairs commuting, so the
    # screens skip part of the work here too; the last base is refuted
    # by test (c) after every rebase
    rng = random.Random(16)
    reasons, violated = [], 0
    for field in (GF2, GF4):
        for base in (negative_class2(field), family_v(field, h_dim=2),
                     family_iv(field, h_dim=2), free_class2(field, 3, center_squares=True),
                     _with_toral_pair(negative_class2(field))):
            for _ in range(3):
                L = _random_rebase(base, rng)
                got = necessary_tests(L)
                with monkeypatch.context() as m:
                    m.setattr(classify_module, "_bracket_patterns", _unscreened_bracket_patterns)
                    want = necessary_tests(L)
                assert (got is None) == (want is None), L
                if want is not None:
                    assert (got.reason, got.witness_str, got.witness_elem) == \
                        (want.reason, want.witness_str, want.witness_elem)
                    reasons.append(want.reason.split()[0])
                assert L.check_axioms().ok
                key = rng.choice(sorted(L._brackets()))
                bad = perturbed(L, key, rng.randrange(L.n), field.random(rng))
                violations = bad.check_axioms().violations
                assert violations == reference_jacobi(bad).violations, L
                violated += bool(violations)
    assert sorted(set(reasons)) == ["bracket-pattern", "pairing-combination"]
    assert len(reasons) == 12 and violated > 0


def test_nilpotent_core_h3():
    core = nilpotent_core(heisenberg())
    assert core == span(GF2, 3, [(0, 0, 1)])


def test_nilpotent_core_n7():
    core = nilpotent_core(negative_class2())
    assert core == span(GF2, 7, [(0, 0, 0, 0, 1, 0, 0),
                                 (0, 0, 0, 0, 0, 1, 0)])


def test_nilpotent_core_trivial_when_center_toral():
    assert nilpotent_core(family_iii()).dim == 0


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
            v = classify(_random_rebase(L, rng))
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
# the alternative core
# ----------------------------------------------------------------------

def _with_central_w(L, square_w, w_toral=False):
    """L plus a central basis vector w, with w^[2] = w when w_toral and 0
    otherwise, and w added to the squares of the basis vectors in square_w."""
    f = L.field
    n = L.n + 1
    pmap = [row + (f.one if name in square_w else f.zero,)
            for name, row in zip(L.names, L.pmap)]
    pmap.append((f.zero,) * L.n + (f.one if w_toral else f.zero,))
    brackets = {key: row + (f.zero,) for key, row in L._brackets().items()}
    M = RestrictedLieAlgebra(f, L.names + ["w"], brackets, pmap)
    assert M.check_axioms().ok
    return M


@pytest.mark.parametrize("q,h_dim", [(2, 2), (4, 2), (2, 3), (4, 3)])
def test_alternative_core_certifies_family_v_with_central_w(q, h_dim):
    # z1^[2] = z1 + w: the canonical core is 0 and matches nothing; the
    # closure of the centre's 2-nilpotent locus, span(w), gives (iv)
    L = _with_central_w(family_v(gf(q), h_dim=h_dim), {"z1"})
    assert nilpotent_core(L).dim == 0
    v = classify(L)
    assert (v.outcome, v.condition, v.core_basis) == ("solvable", "iv", ["w"])
    assert v.oracle["outcome"] == "reached_zero"
    assert verify_verdict(L, v)


def test_bracket_pattern_test_refutes_a_central_extension():
    # family_v(GF(4), h_dim=2) plus a toral central w added to the squares
    # of y, h1, z1 and z2 is not nilpotent, so the pairing test (b) does
    # not run; the bracket-pattern test (c) refutes it, and so does the oracle
    L = _with_central_w(family_v(GF4, h_dim=2), {"y", "h1", "z1", "z2"}, w_toral=True)
    assert L.nilpotency_class() is None
    v = classify(L)
    assert (v.witness_kind, v.reason) == ("sz_witness", "bracket-pattern element is not nilpotent")
    assert v.oracle["outcome"] == "stabilized"
    assert verify_verdict(L, v)


def _try_core_and_match(Lm, degree, core):
    """Match Lm modulo core against the conditions: the per-degree step of
    the reference below, which runs on L⊗K itself."""
    quotient_alg, _ = Lm.quotient(core) if core.dim else (Lm, None)
    for tag in TAG_ORDER:
        cert = match_condition(quotient_alg, tag)
        if cert is not None:
            return Verdict(
                outcome="solvable", condition=tag, extension_degree=degree,
                core_basis=[Lm.element_str(r) for r in core.rows],
                certificate=cert, core_space=core)
    return None


def _classify_subset_search(L):
    """classify with the former alternative-core search, as the reference:
    after the canonical core, the restricted closures of every subset of a
    basis of the centre's 2-nilpotent locus, largest first.  Returns the
    verdict and whether an alternative core decided it."""
    options = ClassifyOptions()
    refute = necessary_tests(L)
    if refute is not None:
        core = Subspace.zero(L.field, L.n) if refute.witness_kind == "necessary_test" \
            else nilpotent_core(L)
        refute.oracle = _run_oracle(L, options, core)
        return refute, False
    for degree in range(1, options.extension_ladder_max + 1):
        if degree == 1:
            Lm = L
        else:
            big, embed = L.field.extend(degree)
            Lm = L.base_change(big, embed)
        core = nilpotent_core(Lm)
        try:
            verdict = _try_core_and_match(Lm, degree, core)
        except LadderExhausted:
            verdict = None
        if verdict is not None:
            verdict.oracle = _run_oracle(L, options, nilpotent_core(L))
            return verdict, False
        rows = list(_central_2nilpotent_locus(Lm, Lm.center()).rows)
        for size in range(len(rows), -1, -1):
            for subset in itertools.combinations(rows, size):
                alt = Lm.restricted_closure(subset)
                if alt == core or not Lm.is_2nilpotent_ideal(alt)[0]:
                    continue
                try:
                    verdict = _try_core_and_match(Lm, degree, alt)
                except LadderExhausted:
                    verdict = None
                if verdict is not None:
                    verdict.oracle = _run_oracle(L, options, nilpotent_core(L))
                    return verdict, True
    oracle = _run_oracle(L, options, nilpotent_core(L))
    if oracle["outcome"] == "stabilized":
        return Verdict(outcome="not_solvable", witness_kind="oracle_stabilized",
                       witness_str=f"derived series stabilized at dimension {oracle['value']}",
                       oracle=oracle), False
    return Verdict(outcome="inconclusive",
                   reason="no condition matched within the ladder, but the derived "
                          "series oracle reached zero (matcher incompleteness)",
                   oracle=oracle), False


def _central_extensions(seed):
    """Central extensions by one w of small families over GF(2) and GF(4),
    with w added to the squares of a random set of basis vectors."""
    rng = random.Random(seed)
    for q in (2, 4):
        f = gf(q)
        bases = [heisenberg(f), family_iii(f), family_iv(f, h_dim=2),
                 family_v(f, h_dim=1), family_v(f, h_dim=2),
                 random_instance(5, f, seed)[0]]
        for L in bases:
            for _ in range(3):
                square_w = {name for name in L.names if rng.random() < 0.5}
                yield _with_central_w(L, square_w, w_toral=rng.random() < 0.3)


def test_alternative_core_matches_subset_search():
    decided_by_alternative = 0
    for L in _central_extensions(0):
        want, by_alternative = _classify_subset_search(L)
        assert classify(L).to_json() == want.to_json(), (L.names, L.pmap)
        decided_by_alternative += by_alternative
    assert decided_by_alternative >= 3


# ----------------------------------------------------------------------
# match first, refute after
# ----------------------------------------------------------------------

def _matched_instances():
    """The matcher cases, the central extensions, the corpus families over
    GF(2), GF(4) and GF(8), and two random rebases each of family_iv and
    family_v (h_dim=2) over GF(2) and GF(4)."""
    yield from (L for _, L in matcher_cases())
    yield from _central_extensions(0)
    for f in (GF2, GF4, gf(8)):
        yield from _family_instances(f)
        yield from (family_iii(f, central_dim=2, central_bracket=True),
                    family_iv(f, h_dim=1), family_v(f, h_dim=1))
    rng = random.Random(22)
    for f in (GF2, GF4):
        for family in (family_iv, family_v):
            for _ in range(2):
                yield _random_rebase(family(f, h_dim=2), rng)


def test_solvable_verdicts_pass_the_refutation_tests():
    # classify runs tests (b)/(c) only when no condition matched.  On a
    # matched input they cannot refute, by the theorem; if they did, the
    # matcher would be wrong, and this test is where that shows
    solvable = 0
    for L in _matched_instances():
        v = classify(L, ClassifyOptions(oracle_crosscheck=False))
        if v.outcome == "solvable":
            assert necessary_tests(L) is None, (L.names, L.field.order, v.condition)
            solvable += 1
    assert solvable >= 340


def test_classify_matches_before_it_runs_the_refutation_tests(monkeypatch):
    def refuse(*args):
        raise AssertionError("tests (b)/(c) ran on a matched input")

    no_oracle = ClassifyOptions(oracle_crosscheck=False)
    cases = [(heisenberg(), None), (family_iv(GF4, h_dim=2), None),
             (family_v(GF4, h_dim=2), None),
             (_random_rebase(family_v(GF4, h_dim=3), random.Random(22)), no_oracle)]
    with monkeypatch.context() as m:
        m.setattr(classify_module, "_bracket_patterns", refuse)
        m.setattr(classify_module, "_pairing_elements", refuse)
        got = [classify(L, options) for L, options in cases]
    for (L, options), v in zip(cases, got):
        assert v.outcome == "solvable" and verify_verdict(L, v)
        assert v.to_json() == classify(L, options).to_json()
    # unmatched, N7 is still refuted by test (c), with the oracle on u(L/I)
    v = classify(negative_class2())
    assert (v.witness_kind, v.witness_elem) == ("sz_witness", {1 << 6: 1})
    assert v.oracle["dims"] == [32, 15, 15]


# ----------------------------------------------------------------------
# one core, over the base field
# ----------------------------------------------------------------------

def _nilpotent_core_rounds(L):
    """The core as computed before C was absorbed once: each round takes
    the closure of [[M',M'],M] on M = L/core, and only when it is 0 the
    2-nilpotent locus of M' intersected with the centre.  Returns the core
    and the number of rounds that grew it."""
    core_gens, rounds = [], 0
    while True:
        core = L.restricted_closure(core_gens)
        if core.dim == L.n:
            break
        if core.dim:
            M, quot = L.quotient(core)
            lift = quot.lift
        else:
            M, lift = L, lambda w: w
        d1 = M.derived_subalgebra()
        d2 = M.bracket_span(d1, d1)
        cl = M.restricted_closure(M.bracket(v, M.basis_vector(j))
                                  for v in d2.basis() for j in range(M.n))
        rounds += 1
        if cl.dim:
            if not M.is_2nilpotent_ideal(cl)[0]:
                raise CoreNotNilpotent("closure of [[M',M'],M] is not 2-nilpotent")
            core_gens.extend(lift(row) for row in cl.rows)
            continue
        locus = _central_2nilpotent_locus(M, M.center().intersect(d1))
        if not locus.dim:
            break
        core_gens.extend(lift(row) for row in locus.rows)
    ideal = L.restricted_closure(core_gens)
    assert L.is_2nilpotent_ideal(ideal)[0]
    return ideal, rounds


def _family_instances(f):
    return [heisenberg(f), family_i(f), family_i(f, toral=0, nilchain=2, moved=2,
                                                  toral_action=True),
            free_class2(f, gens=3), free_class2(f, gens=3, center_squares=True),
            family_iii(f), family_iii(f, central_dim=1, central_bracket=True),
            family_iv(f, h_dim=2), family_v(f, h_dim=2), negative_class2(f)]


def _core_instances():
    """random_instance for n = 2..7 and 35 seeds, and the families, over
    GF(2), GF(4) and GF(8), then the central extensions and gl_3, whose
    closure C is not 2-nilpotent."""
    for f in (GF2, GF4, gf(8)):
        for n in range(2, 8):
            for seed in range(35):
                yield random_instance(n, f, seed)[0]
        yield from _family_instances(f)
    yield from _central_extensions(0)
    yield _gl3()


def test_nilpotent_core_matches_the_per_round_closure():
    count = refuted = multi_round = 0
    for L in _core_instances():
        count += 1
        try:
            want, rounds = _nilpotent_core_rounds(L)
        except CoreNotNilpotent:
            with pytest.raises(CoreNotNilpotent):
                nilpotent_core(L)
            refuted += 1
            continue
        assert nilpotent_core(L) == want, (L.names, L.pmap)
        # a round on a nonzero core found the closure 0 there
        multi_round += rounds > 1
    assert count >= 600
    assert multi_round >= 10 and refuted >= 1


def _locus_algebras():
    """The core instances and, where the core is proper and nonzero, the
    quotient by it."""
    for L in _core_instances():
        yield L
        try:
            core = nilpotent_core(L)
        except CoreNotNilpotent:
            continue
        if 0 < core.dim < L.n:
            yield _quotient(L, core)


def test_central_2nilpotent_locus_matches_point_enumeration():
    # on the centre and its meet with L', the locus is exactly the points
    # that iterating the square map kills
    algebras = proper = 0
    for L in _locus_algebras():
        z = L.center()
        checked = False
        for s in (z, z.intersect(L.derived_subalgebra())):
            if L.field.order ** s.dim > 1 << 12:
                continue
            locus = _central_2nilpotent_locus(L, s)
            assert s.contains(locus)
            elim = locus.elim()
            for v in subspace_points(L.field, s):
                assert L.is_2nilpotent_element(v)[0] == elim.contains_vector(v), \
                    (L.names, L.pmap)
            checked = True
            proper += 0 < locus.dim < s.dim
        algebras += checked
    assert algebras >= 600 and proper >= 150, (algebras, proper)


def test_central_2nilpotent_locus_iterates_past_a_stall():
    # a^[2] = b, b^[2] = 0 on an abelian algebra: phi kills no point of
    # z = span{a} in dim z = 1 step, but a in two
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (0, 0)])
    z = span(GF2, 2, [(1, 0)])
    assert _central_2nilpotent_locus(L, z) == z
    # c^[2] = c + a: a point with a c-coordinate keeps it under phi, so
    # the locus of span{c, a} is span{a}
    M = RestrictedLieAlgebra(GF2, ["a", "b", "c"], {}, [(0, 1, 0), (0, 0, 0), (1, 0, 1)])
    assert _central_2nilpotent_locus(M, span(GF2, 3, [(0, 0, 1), (1, 0, 0)])) == \
        span(GF2, 3, [(1, 0, 0)])


def _embedded(ext, rows):
    return tuple(tuple(map(ext[1], r)) for r in rows)


def _base_change_cases():
    for f in (GF2, GF4, gf(8)):
        yield from _family_instances(f)
        for seed in range(4):
            yield random_instance(5, f, seed)[0]
    yield from itertools.islice(_central_extensions(1), 0, None, 3)


@pytest.mark.parametrize("degree", [2, 3])
def test_base_change_commutes_with_core_and_quotient(degree):
    for L in _base_change_cases():
        if necessary_tests(L) is not None:
            continue
        ext = L.field.extend(degree)
        Lm = L.base_change(*ext)
        core, core_m = nilpotent_core(L), nilpotent_core(Lm)
        assert core_m.rows == _embedded(ext, core.rows), L.names
        Q, Qm = _quotient(L, core).base_change(*ext), _quotient(Lm, core_m)
        assert (Q.names, Q._table, Q.pmap) == (Qm.names, Qm._table, Qm.pmap), L.names
        alt, alt_m = _alternative_core(L, core), _alternative_core(Lm, core_m)
        assert bool(alt) == bool(alt_m), L.names
        if alt:
            assert alt_m[0].rows == _embedded(ext, alt[0].rows)
            Q = alt[1].base_change(*ext)
            assert (Q._table, Q.pmap) == (alt_m[1]._table, alt_m[1].pmap)


def _first_match(Q, tags):
    for tag in tags:
        cert = match_condition(Q, tag)
        if cert is not None:
            return cert
    return None


@pytest.mark.parametrize("degree", [2, 3])
def test_verdict_over_an_extension_matches_the_core_of_the_extension(degree):
    # conditions (i)-(iii) match the quotient over K iff they match it
    # over the base field, so _match_over tries only (iv) and (v) over K
    cases = itertools.chain(_base_change_cases(), (
        random_instance(n, f, seed)[0] for f in (GF2, GF4) for n in range(3, 7)
        for seed in range(15)))
    matches = {True: 0, False: 0}
    for L in cases:
        if necessary_tests(L) is not None:
            continue
        Q = _quotient(L, nilpotent_core(L))
        Qm = Q.base_change(*L.field.extend(degree))
        for tag in ("i", "ii", "iii"):
            base = match_condition(Q, tag) is not None
            assert (match_condition(Qm, tag) is not None) == base, (L.names, L.pmap, tag)
            matches[base] += 1
    assert matches[True] >= 150 and matches[False] >= 150, matches
    # the first match of every condition over L⊗K of the quotient gives
    # the verdict that the core of L⊗K itself gives, and verify_verdict
    # rebuilds L⊗K and accepts it; _match_over gives its (iv)/(v) part
    matched = 0
    for f in (GF2, GF4):
        for L in _family_instances(f):
            core = nilpotent_core(L)
            ext = L.field.extend(degree)
            Lm = L.base_change(*ext)
            Qm = _quotient(L, core).base_change(*ext)
            try:
                want = _try_core_and_match(Lm, degree, nilpotent_core(Lm))
                cert = _first_match(Qm, TAG_ORDER)
                above = _match_over(_quotient(L, core), ext)
            except LadderExhausted:
                continue
            assert above == _first_match(Qm, ("iv", "v")), L.names
            assert (cert is None) == (want is None), L.names
            if cert is None:
                continue
            got = _solvable_verdict(L, degree, ext, core, cert)
            assert got.to_json() == want.to_json()
            assert got.core_space == want.core_space
            assert verify_verdict(L, got)
            matched += 1
    assert matched >= 10


def test_a_toral_element_with_any_first_coordinate_is_found():
    # over GF(4) the toral element of scaled_toral is Y / c; for c = ω, ω²
    # (the ints 2, 3) no point with first coordinate 1 is one, so a walk
    # of such points alone left these inconclusive
    for c in (1, 2, 3):
        L = scaled_toral(GF4, c)
        assert L.check_axioms().ok
        v = classify(L)
        assert (v.outcome, v.condition, v.extension_degree) == ("solvable", "iii", 1), c
        assert v.oracle["outcome"] == "reached_zero"
        assert verify_verdict(L, v)
        y = v.certificate.data["y"]
        assert y == tuple(GF4.div(a, c) for a in L.basis_vector(0))
        w = corollary_classify(scaled_toral(GF4, c, restricted=False))
        assert (w.outcome, w.condition) == ("solvable", "iv"), c


def _ladder_probe(f):
    """span{y, e1, e2, e3, z1, z2}: [e_i, y] = e_i, [e1, e2] = z1; y^[2] = y,
    e1^[2] = e2^[2] = z1, e3^[2] = 0, z1^[2] = z2, z2^[2] = z1.

    Z = span{z1, z2} is a non-split torus over GF(2), so the core is 0.  An
    abelian complement H of the line of e1 in span{e1, e2, e3} is ker φ for
    φ in P(span(e1*, e2*)); over GF(2) each holds an element squaring to
    z1, and over GF(4) H = span(ω e1 + e2, e3) is strongly abelian."""
    def vec(*idx):
        return tuple(f.one if j in idx else f.zero for j in range(6))

    return RestrictedLieAlgebra(
        f, ["y", "e1", "e2", "e3", "z1", "z2"],
        {(0, 1): vec(1), (0, 2): vec(2), (0, 3): vec(3), (1, 2): vec(4)},
        [vec(0), vec(4), vec(4), vec(), vec(5), vec(4)])


def test_the_ladder_decides_condition_iv_above_degree_1():
    # the one known input decided above degree 1, so the test of the
    # ladder that runs (iv) and (v) only
    L = _ladder_probe(GF2)
    assert L.check_axioms().ok
    assert nilpotent_core(L).dim == 0
    v = classify(L)
    assert (v.outcome, v.condition, v.extension_degree) == ("solvable", "iv", 2)
    assert v.oracle == {"outcome": "reached_zero", "value": 4, "dims": [64, 53, 33, 24, 0],
                        "quotient_dim": 6}
    assert verify_verdict(L, v)
    v = classify(_ladder_probe(GF4))
    assert (v.outcome, v.condition, v.extension_degree) == ("solvable", "iv", 1)
    assert verify_verdict(_ladder_probe(GF4), v)
    # GF(8) and GF(32) hold no root of t^2 + t + 1, GF(64) and GF(2^10) do;
    # one walk over the q+1 abelian hyperplanes decides there
    for q in (8, 32):
        L = _ladder_probe(gf(q))
        v = classify(L)
        assert (v.outcome, v.condition, v.extension_degree) == ("solvable", "iv", 2), q
        assert v.oracle["outcome"] == "reached_zero"
        assert verify_verdict(L, v)


def _gl3():
    """gl_3(GF(2)) on the matrix units E_ij, with x^[2] = x^2."""
    n = 9
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            (i, j), (k, l) = divmod(a, 3), divmod(b, 3)
            v = [0] * n
            if j == k:
                v[3 * i + l] ^= 1
            if l == i:
                v[3 * k + j] ^= 1
            if any(v):
                brackets[(a, b)] = tuple(v)
    pmap = [tuple(int(t == a) for t in range(n)) if a in (0, 4, 8) else (0,) * n
            for a in range(n)]
    return RestrictedLieAlgebra(GF2, [f"E{i}{j}" for i in range(3) for j in range(3)],
                                brackets, pmap)


def test_verify_verdict_decides_a_witness_above_max_envelope_n():
    # gl_3 plus a 4-dim abelian algebra with zero squares has n = 13, too
    # large for u(L).  A necessary_test witness is checked in L for any n:
    # it must be a degree-1 element of C that is not 2-nilpotent
    L = _gl3()
    assert L.check_axioms().ok
    M = L.direct_sum(RestrictedLieAlgebra(GF2, [f"a{i}" for i in range(4)], {},
                                          [(0,) * 4] * 4))
    assert M.n == 13 > MAX_ENVELOPE_N
    verdicts = {}
    for A in (L, M):
        v = verdicts[A.n] = classify(A)
        assert v.outcome == "not_solvable" and v.witness_str == "E00 + E22"
        assert v.witness_kind == "necessary_test"
        assert verify_verdict(A, v)
        # E01 squares to zero: nilpotent, so no witness
        assert not verify_verdict(A, replace(v, witness_elem={1 << 1: 1}))
        # E11 is toral, but it has trace 1, so it lies outside C = sl_3
        assert not verify_verdict(A, replace(v, witness_elem={1 << 4: 1}))
    # a padding vector has zero square
    assert not verify_verdict(M, replace(verdicts[13], witness_elem={1 << 12: 1}))
    # E00*E11 is a product of commuting idempotents, not nilpotent, but it
    # has PBW degree 2, so it is not an element of the closure C = sl_3
    for A in (L, M):
        v = verdicts[A.n]
        assert not verify_verdict(A, replace(v, witness_elem={1 | 1 << 4: 1}))
        # E00 + E11 is toral and lies in C
        assert verify_verdict(A, replace(v, witness_elem={1: 1, 1 << 4: 1}))
        # with no element, the verdict is re-derived from C alone
        assert verify_verdict(A, replace(v, witness_elem=None))


def test_classify_runs_test_a_once_on_its_refutation(monkeypatch):
    # nilpotent_core's failed check hands its stable chain term to the
    # refutation, so the closure of [[L',L'],L] is built once, not twice
    calls = []
    closure = classify_module._bracket_closure
    monkeypatch.setattr(classify_module, "_bracket_closure",
                        lambda L: calls.append(L) or closure(L))
    L = _gl3()
    v = classify(L)
    assert len(calls) == 1
    assert v.witness_kind == "necessary_test" and v.witness_str == "E00 + E22"
    assert verify_verdict(L, v)


def test_classify_runs_test_a_once_when_nothing_matches(monkeypatch):
    # nilpotent_core has passed test (a), so the refutation after the
    # ladder runs tests (b)/(c) alone and builds the closure no second time
    calls = []
    closure = classify_module._bracket_closure
    monkeypatch.setattr(classify_module, "_bracket_closure",
                        lambda L: calls.append(L) or closure(L))
    L = negative_class2()
    v = classify(L)
    assert len(calls) == 1
    assert v.witness_kind == "sz_witness"
    assert verify_verdict(L, v)
    assert len(calls) == 2      # verify_verdict re-derives it through necessary_tests


def test_verify_verdict_rederives_a_necessary_test_refutation():
    # C = 0 on the Heisenberg algebra: a bare necessary_test refutation is refuted
    bare = Verdict("not_solvable", witness_kind="necessary_test")
    assert not verify_verdict(heisenberg(), bare)
    assert not verify_verdict(heisenberg(), replace(bare, witness_elem={1 << 2: 1}))
    assert verify_verdict(_gl3(), bare)
    # the unit of u(L) is not an element of L
    assert not verify_verdict(_gl3(), replace(bare, witness_elem={0: 1}))


def test_verify_verdict_refutes_a_core_that_is_not_a_restricted_ideal():
    # span{e1} of H3 has zero squares, but [e1, e2] = e3 leaves it
    L = heisenberg()
    v = classify(L)
    assert verify_verdict(L, v)
    assert not verify_verdict(L, replace(v, core_space=span(GF2, 3, [(1, 0, 0)])))
    # a solvable verdict without its core or its certificate
    assert not verify_verdict(L, replace(v, core_space=None))
    assert not verify_verdict(L, replace(v, certificate=None))
    # a^[2] = b: span{a} is an ideal of the abelian algebra and its
    # closure span{a, b} is 2-nilpotent, but span{a} is not square-closed
    A = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (0, 0)])
    v = classify(A)
    assert v.outcome == "solvable" and verify_verdict(A, v)
    assert not verify_verdict(A, replace(v, core_space=span(GF2, 2, [(1, 0)])))


def test_verify_verdict_rederives_an_sz_witness():
    # the unit of u(H3) is not nilpotent, but necessary_tests finds no sz
    # witness on H3
    bare = Verdict("not_solvable", witness_kind="sz_witness", witness_elem={0: 1})
    assert not verify_verdict(heisenberg(), bare)
    L = negative_class2()
    v = classify(L)
    assert v.witness_kind == "sz_witness" and verify_verdict(L, v)
    # a non-nilpotent element other than the one necessary_tests finds
    assert not Envelope(L).is_nilpotent({0: 1})[0]
    assert not verify_verdict(L, replace(v, witness_elem={0: 1}))
    assert not verify_verdict(L, replace(v, witness_elem=None))
    assert not verify_verdict(heisenberg(), v)


def test_verify_verdict_rederives_an_oracle_refutation():
    # forged refutations of H3, which classify decides solvable
    L = heisenberg()
    assert classify(L).outcome == "solvable"
    forged = Verdict("not_solvable", witness_kind="oracle_stabilized",
                     oracle={"outcome": "stabilized", "value": 2, "dims": [8, 2, 2]})
    assert not verify_verdict(L, forged)
    assert not verify_verdict(L, replace(forged, witness_kind=None))
    assert not verify_verdict(L, replace(forged, witness_kind="made_up"))
    # the series of u(N7/I), I the core of dimension 2, stabilizes at 15;
    # the carried quotient_dim, value and dims must match it
    L = negative_class2(GF2)
    oracle = _run_oracle(L, ClassifyOptions(), nilpotent_core(L))
    assert oracle == {"outcome": "stabilized", "value": 15, "dims": [32, 15, 15],
                      "quotient_dim": 5}
    genuine = Verdict("not_solvable", witness_kind="oracle_stabilized", oracle=oracle)
    assert verify_verdict(L, genuine)
    assert not verify_verdict(L, replace(genuine, oracle={**oracle, "value": 32}))
    assert not verify_verdict(L, replace(genuine, oracle={**oracle, "dims": [32, 15, 16]}))
    assert not verify_verdict(L, replace(genuine, oracle=None))
    # a forged quotient_dim, or none
    for qd in (7, 4, None):
        assert not verify_verdict(L, replace(genuine, oracle={**oracle, "quotient_dim": qd}))
    no_key = {k: v for k, v in oracle.items() if k != "quotient_dim"}
    assert not verify_verdict(L, replace(genuine, oracle=no_key))
    # the dict of the full u(N7) series, as the oracle gave it before it ran
    # modulo the core, with or without a quotient_dim
    full = _full_oracle(L)
    assert full == {"outcome": "stabilized", "value": 60, "dims": [128, 96, 60, 60]}
    for forged in (full, {**full, "quotient_dim": 7}, {**full, "quotient_dim": 5}):
        assert not verify_verdict(L, replace(genuine, oracle=forged))
    # test (a) refutes gl_3 plus a 4-dim abelian algebra: no oracle refutation
    M = _gl3().direct_sum(RestrictedLieAlgebra(GF2, [f"a{i}" for i in range(4)], {},
                                               [(0,) * 4] * 4))
    assert M.n > MAX_ENVELOPE_N
    assert not verify_verdict(M, genuine)
    # the refusal above MAX_ENVELOPE_N applies to dim L/I: N7 ⊕ H3 ⊕ H3 has
    # n = 13 and a core of dimension 4, so its refutation is re-derived on
    # u(L/I) of dimension 2^9; N7 plus an 8-dim torus leaves dim L/I = 13
    L = negative_class2().direct_sum(heisenberg()).direct_sum(heisenberg())
    v = classify(L)
    assert L.n > MAX_ENVELOPE_N and v.witness_kind == "oracle_stabilized"
    assert v.oracle == {"outcome": "stabilized", "value": 240, "dims": [512, 240, 240],
                        "quotient_dim": 9}
    assert verify_verdict(L, v)
    torus = RestrictedLieAlgebra(GF2, [f"t{i}" for i in range(8)], {},
                                 [tuple(int(i == j) for j in range(8)) for i in range(8)])
    M = negative_class2().direct_sum(torus)
    assert M.n - nilpotent_core(M).dim == 13 > MAX_ENVELOPE_N
    assert classify(M).oracle is None
    forged = {"outcome": "stabilized", "value": 1, "dims": [8192, 1, 1], "quotient_dim": 13}
    assert not verify_verdict(M, replace(genuine, oracle=forged))


def _full_oracle(L):
    """The oracle dict of the derived series of u(L) itself: the reference
    for the oracle on u(L/I)."""
    res = Envelope(L).lie_derived_series()
    return {"outcome": res.outcome, "value": res.value, "dims": res.dims}


def _test_a_passes(L):
    return L.is_2nilpotent_ideal(classify_module._bracket_closure(L))[0]


def _oracle_differential_instances():
    """(label, algebra) for the oracle on u(L/I) against u(L): the corpus
    families over GF(2), GF(4) and GF(8), the central extensions, random
    draws with n <= 7, witness_chain(3), and three refutations: gl_3,
    which test (a) refutes, N7 plus a toral pair, which test (c) refutes,
    and N7 ⊕ H3, of dimension 10, whose oracle runs on dimension 7."""
    for f in (GF2, GF4, gf(8)):
        for L in _family_instances(f) + [family_iii(f, central_dim=2, central_bracket=True),
                                         family_iv(f, h_dim=1), family_v(f, h_dim=1)]:
            yield f"family {L.names} over GF({f.order})", L
        for n in range(3, 8):
            for seed in range(6):
                yield f"random_instance({n}, GF({f.order}), {seed})", random_instance(n, f, seed)[0]
    for i, L in enumerate(_central_extensions(0)):
        yield f"central extension {i}", L
    yield "witness_chain(3)", witness_chain(3)
    yield "gl_3", _gl3()
    yield "N7 plus a toral pair", _with_toral_pair(negative_class2(GF4))
    yield "N7 ⊕ H3", negative_class2().direct_sum(heisenberg())


def test_oracle_modulo_the_core_matches_the_full_series():
    # u(L) is Lie solvable iff u(L/I) is, I the core (0 when test (a)
    # refutes): the oracle of classify must reach the outcome of the full
    # series of u(L), on an algebra of dimension n - dim I
    count = shrunk = refuted_by_a = stabilized = 0
    for label, L in _oracle_differential_instances():
        v = classify(L)
        want = _full_oracle(L)
        if _test_a_passes(L):
            core_dim = nilpotent_core(L).dim
        else:
            core_dim, refuted_by_a = 0, refuted_by_a + 1
        assert v.oracle is not None, label
        assert v.oracle["outcome"] == want["outcome"], (label, v.oracle, want)
        assert v.oracle["quotient_dim"] == L.n - core_dim, label
        assert v.oracle["dims"][0] == 2 ** (L.n - core_dim), label
        if core_dim == 0:
            assert v.oracle == {**want, "quotient_dim": L.n}, label
        # the oracle on a freshly computed core gives the same dict
        if v.witness_kind != "necessary_test":
            assert _run_oracle(L, ClassifyOptions(), nilpotent_core(L)) == v.oracle, label
        assert v.outcome == "inconclusive" or verify_verdict(L, v), label
        count += 1
        shrunk += core_dim > 0
        stabilized += want["outcome"] == "stabilized"
    assert count >= 160 and shrunk >= 40
    assert stabilized >= 6 and refuted_by_a >= 1
    # N7 stabilizes on u(L/I) of dimension 2^5 over every field, and
    # witness_chain(3), n = 11 above ORACLE_DIM_LIMIT, reaches zero on its
    # 5-dimensional quotient
    for f in (GF2, GF4, gf(8)):
        assert classify(negative_class2(f)).oracle == {
            "outcome": "stabilized", "value": 15, "dims": [32, 15, 15], "quotient_dim": 5}
    assert classify(witness_chain(3)).oracle == {
        "outcome": "reached_zero", "value": 1, "dims": [32, 0], "quotient_dim": 5}


def test_the_oracle_refuses_a_core_that_fails_its_recheck():
    # a core that is not 2-nilpotent must not reach the oracle: family_iii
    # has a toral centre, so L itself fails is_2nilpotent_ideal
    L = family_iii()
    with pytest.raises(CoreNotNilpotent):
        _run_oracle(L, ClassifyOptions(), L.full_space())
    # span{e1} of H3 has zero squares but is no ideal
    with pytest.raises(CoreNotNilpotent):
        _run_oracle(heisenberg(), ClassifyOptions(), span(GF2, 3, [(1, 0, 0)]))
    # a^[2] = b: span{a} is an ideal but not square-closed
    A = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (0, 0)])
    with pytest.raises(CoreNotNilpotent):
        _run_oracle(A, ClassifyOptions(), span(GF2, 2, [(1, 0)]))
    assert _run_oracle(A, ClassifyOptions(), A.full_space())["quotient_dim"] == 0


def _pinned_inputs():
    """The curated families over GF(2)/GF(4)/GF(8), Example 7.1, and the
    fixed random_instance strata s = 0..17 of GF(4) n = 6 and GF(8) n = 5."""
    for field in (GF2, GF4, gf(8)):
        yield from [heisenberg(field), family_i(field), free_class2(field, gens=3),
                    free_class2(field, gens=3, center_squares=True), family_iii(field),
                    family_iii(field, central_dim=1, central_bracket=True),
                    family_iii(field, central_dim=2, central_bracket=True),
                    family_iv(field, h_dim=1), family_iv(field, h_dim=2),
                    family_v(field, h_dim=1), family_v(field, h_dim=2), negative_class2(field)]
    yield example_7_1()
    for n, q in ((6, 4), (5, 8)):
        for s in range(18):
            yield random_instance(n, gf(q), s)[0]


def test_verdicts_are_byte_identical_to_the_pinned_digest():
    # any change to core_basis, element strings, certificates, oracle dims
    # or verify_verdict on these 73 inputs changes the digest
    h = hashlib.sha256()
    count = 0
    for L in _pinned_inputs():
        v = classify(L)
        h.update(json.dumps([v.to_json(), verify_verdict(L, v)], sort_keys=True).encode() + b"\n")
        count += 1
    assert count == 73
    assert h.hexdigest() == "09e5fb2b7574b8366a2bb7352de8e01a919af9dc256bbdf10af057f63ac5a341"
