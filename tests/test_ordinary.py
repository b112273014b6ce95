import itertools
import random

import pytest

from liesolv.algebra import LieAlgebra
from liesolv.classify import abelian_ideal
from liesolv.families import example_7_1, family_v, heisenberg
from liesolv.fields import GF2, RATFUNC2, gf
from liesolv.linalg import span
from liesolv.specfile import serialize
from liesolv import ordinary
from liesolv.ordinary import (
    TwoEnvelopeResult, UEnvelope, corollary_classify,
    descent_abelian_codim1, random_ordinary_instance, two_envelope, witness_search,
)

GF4 = gf(4)


def unit(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def ordinary_h3():
    return LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): unit(3, 2)})


def two_dim_nonabelian():
    # [x, y] = x
    return LieAlgebra(GF2, ["x", "y"], {(0, 1): (1, 0)})


def free2_ordinary(gens=4, field=GF2):
    pairs = [(i, j) for i in range(gens) for j in range(i + 1, gens)]
    n = gens + len(pairs)
    names = [f"x{i+1}" for i in range(gens)]
    names += [f"z{i+1}{j+1}" for (i, j) in pairs]
    brackets = {}
    for idx, (i, j) in enumerate(pairs):
        vec = [field.zero] * n
        vec[gens + idx] = field.one
        brackets[(i, j)] = tuple(vec)
    return LieAlgebra(field, names, brackets)


def corollary_iv_family(field=GF2):
    # x1, x2, y, z: [x1,y] = x1, [x2,y] = x2, [x1,x2] = z central
    n = 4
    return LieAlgebra(field, ["x1", "x2", "y", "z"],
                      {(0, 2): unit(n, 0), (1, 2): unit(n, 1), (0, 1): unit(n, 3)})


def test_u_straightening_single_step():
    L = two_dim_nonabelian()
    env = UEnvelope(L)
    # y * x = x y + x
    prod = env.mul(env.gen(1), env.gen(0))
    assert prod == {(1, 1): 1, (1, 0): 1}


def test_u_no_truncation():
    env = UEnvelope(two_dim_nonabelian())
    sq = env.mul(env.gen(0), env.gen(0))
    assert sq == {(2, 0): 1}


def test_u_associativity_randomized():
    rng = random.Random(91)
    for L in [ordinary_h3(), free2_ordinary(3), corollary_iv_family(GF4)]:
        env = UEnvelope(L)
        f = L.field

        def rand_elem():
            out = {}
            for _ in range(3):
                m = tuple(rng.randrange(2) for _ in range(L.n))
                if sum(m) > 3:
                    continue
                c = f.random(rng)
                if not f.is_zero(c):
                    out[m] = c
            return out
        for _ in range(30):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert env.mul(env.mul(a, b), c) == env.mul(a, env.mul(b, c))


def test_u_domain_property_sampled():
    rng = random.Random(93)
    env = UEnvelope(ordinary_h3())
    for _ in range(25):
        def rand_nonzero():
            out = {}
            for _ in range(2):
                m = tuple(rng.randrange(2) for _ in range(3))
                out[m] = 1
            return out or {(0, 0, 0): 1}
        a, b = rand_nonzero(), rand_nonzero()
        assert env.mul(a, b)


class SparseElim:
    """RREF accumulator over the monomials of U(L), with pivots the least
    monomial by (total degree, exponent tuple): the elimination of the
    square-closure loop that ``two_envelope`` replaced."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot, row), sorted by pivot

    @staticmethod
    def _key(m):
        return (sum(m), m)

    def _reduce(self, vec):
        f = self.field
        vec = dict(vec)
        for piv, row in self.rows:
            c = vec.get(piv)
            if c is not None and not f.is_zero(c):
                for m, x in row.items():
                    s = f.add(vec.get(m, f.zero), f.mul(c, x))
                    if f.is_zero(s):
                        vec.pop(m, None)
                    else:
                        vec[m] = s
        return vec

    def add(self, vec):
        f = self.field
        vec = self._reduce(vec)
        if not vec:
            return False
        piv = min(vec, key=self._key)
        inv = f.inv(vec[piv])
        self.rows.append((piv, {m: f.mul(inv, c) for m, c in vec.items()}))
        self.rows.sort(key=lambda r: self._key(r[0]))
        return True

    @property
    def rank(self):
        return len(self.rows)


def _two_envelope_loop(L, m_max):
    """The spans V_t accumulated in U(L), as the reference for the closed
    form of ``two_envelope``: V_(t+1) adds the squares and brackets of a
    basis of V_t."""
    env = UEnvelope(L)
    elim = SparseElim(L.field)
    basis = [env.gen(i) for i in range(L.n) if elim.add(env.gen(i))]
    dims = [elim.rank]
    for _ in range(m_max):
        new_elems = [env.mul(w, w) for w in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                new_elems.append(env.lie(basis[i], basis[j]))
        basis += [e for e in new_elems if elim.add(e)]
        dims.append(elim.rank)
        if dims[-1] == dims[-2]:
            return TwoEnvelopeResult(True, dims)
    return TwoEnvelopeResult(False, dims)


def _envelope_cases():
    for field in (GF2, GF4):
        for n in (1, 2, 3, 4):
            for seed in range(6):
                yield random_ordinary_instance(n, field, seed)[0], 3
    yield heisenberg(), 3
    for field in (GF2, GF4):
        yield LieAlgebra(field, [], {}), 2
        yield LieAlgebra(field, ["x"], {}), 0
    one, zero = RATFUNC2.one, RATFUNC2.zero
    ratfunc = [free2_ordinary(2, RATFUNC2), free2_ordinary(3, RATFUNC2),
               heisenberg(RATFUNC2), family_v(RATFUNC2, 1), example_7_1(),
               LieAlgebra(RATFUNC2, ["x"], {}),
               LieAlgebra(RATFUNC2, ["x", "y"], {(0, 1): (one, zero)}),
               LieAlgebra(RATFUNC2, [], {})]
    for L in ratfunc:
        yield L, 2


def test_two_envelope_closed_form_matches_the_loop():
    cases = list(_envelope_cases())
    assert len(cases) >= 48 + 1 + 8
    for L, m_max in cases:
        assert two_envelope(L, m_max) == _two_envelope_loop(L, m_max), (L.names, m_max)


def test_sparse_elim_rank():
    elim = SparseElim(GF2)
    env = UEnvelope(ordinary_h3())
    e1, e2 = env.gen(0), env.gen(1)
    assert elim.add(e1)
    assert elim.add(e2)
    assert not elim.add(env.add(e1, e2))
    assert elim.add(env.gen(2))
    assert elim.rank == 3


def test_corollary_classify_abelian():
    L = LieAlgebra(GF2, ["a", "b"], {})
    v = corollary_classify(L)
    assert v.outcome == "solvable" and v.condition == "i"


def test_corollary_classify_ordinary_h3():
    v = corollary_classify(ordinary_h3())
    assert v.outcome == "solvable" and v.condition == "ii"
    assert abelian_ideal(ordinary_h3()) == ("hyperplane", span(GF2, 3, [(0, 1, 0), (0, 0, 1)]))


def test_corollary_classify_iv_family():
    v = corollary_classify(corollary_iv_family())
    assert v.outcome == "solvable"
    assert v.condition in ("ii", "iii", "iv")


def test_corollary_iv_matcher_reached():
    # kill condition (ii): no abelian hyperplane; class not 2 either
    L = corollary_iv_family()
    a = abelian_ideal(L)
    # the centralizer of L' = <x1,x2,z> is not abelian, so (ii) can still match
    # via enumeration; accept either answer but require a solvable verdict
    v = corollary_classify(L)
    assert v.outcome == "solvable"


def test_witness_search_free_class2_on_4():
    L = free2_ordinary(4)
    w = witness_search(L)
    assert w is not None
    # the witness is the pairing polynomial combination, nonzero in U(L)
    assert w.pattern == "pairing"
    env = UEnvelope(L)
    assert w.element
    # z14^2(z12 z34 + z13 z24 + z14 z23) under some relabeling: degree-4 terms
    assert all(sum(m) == 4 for m in w.element)


def test_witness_search_exhausted_on_h3():
    assert witness_search(ordinary_h3(), budget=3000) is None


def test_witness_search_abelian_exhausted():
    L = LieAlgebra(GF2, ["a", "b", "c"], {})
    assert witness_search(L, budget=2000) is None


def test_corollary_free_class2_not_solvable():
    v = corollary_classify(free2_ordinary(4))
    assert v.outcome == "not_solvable"
    assert v.witness_str


def test_two_envelope_never_stabilizes_on_polynomials():
    L = LieAlgebra(GF2, ["x"], {})
    res = two_envelope(L, m_max=5)
    assert not res.stabilized
    assert res.dims == [1, 2, 3, 4, 5, 6]


def test_two_envelope_grows_on_nonabelian():
    res = two_envelope(two_dim_nonabelian(), m_max=4)
    assert not res.stabilized
    assert res.dims[-1] > res.dims[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_envelope_never_stabilizes_for_positive_dim(n):
    # every element of V_t has PBW degree <= 2^t and b_1^(2^(t+1)) is a new
    # PBW monomial, so the span grows at every round
    for seed in range(5):
        L = random_ordinary_instance(n, GF2, seed)[0]
        res = two_envelope(L, m_max=3)
        assert not res.stabilized
        assert all(a < b for a, b in zip(res.dims, res.dims[1:])), (n, seed, res.dims)


def test_two_envelope_spans_nested():
    res = two_envelope(ordinary_h3(), m_max=3)
    assert res.dims == sorted(res.dims)


def test_two_envelope_degenerate_zero_dim():
    L = LieAlgebra(GF2, [], {})
    res = two_envelope(L, m_max=2)
    assert res.stabilized and res.dims == [0, 0]
    assert corollary_classify(L).outcome == "solvable"


def test_corollary_and_witness_search_consistent():
    # solvable verdict <=> witness hunt exhausted, on the curated corpus
    corpus = [
        LieAlgebra(GF2, ["a", "b"], {}),
        ordinary_h3(),
        corollary_iv_family(),
        two_dim_nonabelian(),
        free2_ordinary(3),
        free2_ordinary(4),
    ]
    for L in corpus:
        v = corollary_classify(L)
        w = witness_search(L, budget=8000)
        if v.outcome == "solvable":
            assert w is None, L.names
        elif v.outcome == "not_solvable":
            assert w is not None, L.names


def test_descent_h3():
    rep = descent_abelian_codim1(ordinary_h3())
    assert rep.base_has and rep.ext_has and rep.implication_holds


def test_descent_abelian():
    rep = descent_abelian_codim1(LieAlgebra(GF2, ["a", "b"], {}))
    assert rep.base_has and rep.ext_has and rep.implication_holds


def h3_plus_abelian(field, extra=15):
    # h3 + abelian(extra): dim L/L' = extra + 2 but dim L/Z = 2, and
    # span(x2, z, a_i) is an abelian ideal of codimension 1
    n = extra + 3
    return LieAlgebra(field, ["x1", "x2", "z"] + [f"a{i}" for i in range(extra)],
                      {(0, 1): unit(n, 2)})


def test_descent_checks_both_sides():
    rep = descent_abelian_codim1(h3_plus_abelian(GF2))
    assert rep.base_has and rep.ext_has and rep.implication_holds


def test_descent_checks_both_sides_gf4():
    rep = descent_abelian_codim1(h3_plus_abelian(GF4))
    assert rep.base_has and rep.ext_has and rep.implication_holds


def test_descent_random_metabelian():
    for seed in range(25):
        L, _ = random_ordinary_instance(4, GF2, seed, metabelian=True)
        rep = descent_abelian_codim1(L)
        assert rep.implication_holds, (seed, rep)


def test_random_ordinary_deterministic():
    a, na = random_ordinary_instance(4, GF2, 5)
    b, nb = random_ordinary_instance(4, GF2, 5)
    assert a._table == b._table and na == nb


# -- witness_search against the enumeration it replaced -----------------------

def _reference_compositions(total, slots, degrees):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for d in degrees:
        if d <= total - (slots - 1):
            for rest in _reference_compositions(total - d, slots - 1, degrees):
                yield (d,) + rest


def _reference_exponent_tuples(n, max_total):
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + [e], remaining - e, slots - 1)
    yield from rec([], max_total, n)


def _reference_witness_search(L, depth=3, total_degree=6, budget=20000):
    """The recursive enumeration witness_search used before it took its
    degree groups and profiles from itertools; returns (pattern, args,
    element) or None."""
    env = UEnvelope(L)
    groups = {}
    for m in _reference_exponent_tuples(L.n, depth):
        d = sum(m)
        if 0 < d <= depth:
            name = "*".join(nm for nm, e in zip(L.names, m) for _ in range(e))
            groups.setdefault(d, []).append((m, name))
    for d in groups:
        groups[d].sort()
    used = 0
    for total in range(4, total_degree + 1):
        for pname, arity, fn in ordinary._patterns(env):
            for profile in _reference_compositions(total, arity, sorted(groups)):
                for combo in itertools.product(*(groups[d] for d in profile)):
                    used += 1
                    if used > budget:
                        return None
                    val = fn(*[env.monomial(m) for m, _ in combo])
                    if val:
                        return pname, [name for _, name in combo], val
    return None


def test_witness_search_enumerates_as_the_reference(monkeypatch):
    # The two differ only in the order they try arguments in, so the
    # pattern values are memoised per structure constants and shared: the
    # reference run looks up what the witness_search run evaluated, any
    # argument it tries that witness_search did not is evaluated afresh,
    # and the 54 abelian draws among the 100 random ones are evaluated once.
    # Each run's sequence of (pattern, arguments) is recorded too, so an
    # order change shows even where both runs find nothing.
    real_patterns = ordinary._patterns
    memo, tried = {}, []

    def shared_patterns(env):
        cache = memo.setdefault(serialize(env.algebra), {})

        def cached(pname, fn):
            def call(*args):
                key = (pname,) + tuple(next(iter(a)) for a in args)
                tried.append(key)
                if key not in cache:
                    cache[key] = fn(*args)
                return cache[key]
            return call

        return [(p, k, cached(p, fn)) for p, k, fn in real_patterns(env)]

    monkeypatch.setattr(ordinary, "_patterns", shared_patterns)
    cases = [(free2_ordinary(4), {}),
             (ordinary_h3(), {"budget": 3000}),
             (ordinary_h3(), {"budget": 20000}),
             (free2_ordinary(4), {"depth": 2, "total_degree": 5})]
    cases += [(random_ordinary_instance(5, GF2, s)[0], {"budget": 3000}) for s in range(100)]
    found = 0
    for L, kw in cases:
        w = witness_search(L, **kw)
        seen = tried[:]
        tried.clear()
        ref = _reference_witness_search(L, **kw)
        assert (w and (w.pattern, w.args, w.element)) == ref, (L.names, kw)
        assert tried == seen, (L.names, kw)
        tried.clear()
        found += w is not None
    assert found == 8
