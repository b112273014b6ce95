import itertools
import random

import pytest

from liesolv.algebra import LieAlgebra, NotAbelian, RestrictedLieAlgebra, UnsupportedField
from liesolv.fields import GF2, RATFUNC2, FieldMismatch, gf
from liesolv.linalg import Subspace, span, vec_add, vec_is_zero

GF4 = gf(4)


def h3(field=GF2):
    z = field.zero
    o = field.one
    return RestrictedLieAlgebra(
        field, ["e1", "e2", "e3"],
        {(0, 1): (z, z, o)},
        [(z, z, z)] * 3,
    )


def n7(field=GF2):
    # class-2 negative control: x1..x4, z12, z13, z14 with
    # [x1,x2]=z12, [x1,x3]=z13, [x1,x4]=z14=[x2,x3], z14 toral
    z = field.zero
    o = field.one
    names = ["x1", "x2", "x3", "x4", "z12", "z13", "z14"]
    def vec(idx):
        v = [z] * 7
        v[idx] = o
        return tuple(v)
    brackets = {
        (0, 1): vec(4),
        (0, 2): vec(5),
        (0, 3): vec(6),
        (1, 2): vec(6),
    }
    pmap = [(z,) * 7] * 6 + [vec(6)]
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def all_vectors(field, n):
    return itertools.product(field.elements(), repeat=n)


def exhaustive_center(L):
    """Oracle: enumerate every vector and keep those commuting with the basis."""
    vecs = [v for v in all_vectors(L.field, L.n)
            if all(vec_is_zero(L.field, L.bracket(v, L.basis_vector(j)))
                   for j in range(L.n))]
    return span(L.field, L.n, vecs)


def test_h3_axioms_pass():
    assert h3().check_axioms().ok
    assert h3(GF4).check_axioms().ok


def test_h3_broken_pmap_reports_restricted_violation():
    z, o = 0, 1
    bad = RestrictedLieAlgebra(
        GF2, ["e1", "e2", "e3"],
        {(0, 1): (z, z, o)},
        [(o, z, z), (z, z, z), (z, z, z)],  # e1^[2] = e1 breaks ad(e1^[2]) = (ad e1)^2
    )
    report = bad.check_axioms()
    assert not report.ok
    assert any(v.kind == "restricted" and v.indices == (0,) for v in report.violations)


@pytest.mark.parametrize("make", [
    lambda br: LieAlgebra(GF2, ["a", "b", "c"], br),
    lambda br: RestrictedLieAlgebra(GF2, ["a", "b", "c"], br, [(0, 0, 0)] * 3),
], ids=["ordinary", "restricted"])
@pytest.mark.parametrize("brackets", [
    {(0, 1): (0, 1)},        # value of the wrong length
    {(1, 0): (0, 0, 1)},     # key with i > j
    {(0, 3): (0, 0, 1)},     # key outside the basis
], ids=["short-value", "reversed-key", "key-out-of-range"])
def test_constructor_rejects_bad_brackets(make, brackets):
    with pytest.raises(FieldMismatch):
        make(brackets)


def test_ordinary_jacobi_violation_names_the_triple():
    bad = LieAlgebra(GF2, ["a", "b", "c"], {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)})
    report = bad.check_axioms()
    assert [(v.kind, v.indices) for v in report.violations] == [("jacobi", (0, 1, 2))]
    assert "(a,b,c)" in str(report)


def test_ordinary_algebra_is_not_restricted():
    L = h3().base_change(GF4, lambda c: c)
    assert isinstance(L, RestrictedLieAlgebra)
    M = LieAlgebra(GF2, ["e1", "e2", "e3"], {(0, 1): (0, 0, 1)})
    assert not isinstance(M, RestrictedLieAlgebra)
    assert not isinstance(M.base_change(GF4, lambda c: c), RestrictedLieAlgebra)
    assert M.nilpotency_class() == 2 and M.is_metabelian()
    assert M.center() == h3().center()


def test_tracer_patch_points_resolve():
    # perfbench/tracing.py wraps owner.__dict__[attr] for every patch
    # point, so a method that only inherits it (e.g. a bracket defined on
    # LieAlgebra alone) would raise KeyError under a traced run
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {name: importlib.import_module(f"liesolv.{name}") for name in (
        "envelope", "linalg", "fields", "algebra", "classify", "ordinary",
        "families", "specfile")}
    patches = tracing.Patches(tracing.Tracer(), mods)
    targets = [(owner, attr) for _, pairs, _ in patches.points for owner, attr in pairs]
    try:
        patches.install()
        for owner, attr in targets:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    finally:
        patches.remove()
    for owner, attr in targets:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    assert RestrictedLieAlgebra.bracket is LieAlgebra.bracket
    # the tracer also reads the memo tables of an Envelope, of either form
    from collections import defaultdict

    from liesolv.families import heisenberg
    E = mods["envelope"]
    for env in (E.Envelope(heisenberg(gf(4))), E.Envelope(heisenberg(gf(4)), force_dict=True),
                E.Envelope(heisenberg(RATFUNC2))):
        counts = defaultdict(float)
        result = env.lie_derived_series()
        tracing._cache_entries(counts, (env,), result)
        assert counts["envelope.cache_entries"] > 0


def test_one_dim_toral_passes():
    L = RestrictedLieAlgebra(GF2, ["a"], {}, [(1,)])
    assert L.check_axioms().ok


def test_n7_axioms_pass():
    assert n7().check_axioms().ok


def test_pmap_eval_on_basis_and_sums():
    L = h3()
    assert L.pmap_eval(L.basis_vector(0)) == L.pmap[0]
    # (e1+e2)^[2] = [e1,e2] = e3: squares vanish, cross term survives
    v = vec_add(GF2, L.basis_vector(0), L.basis_vector(1))
    assert L.pmap_eval(v) == (0, 0, 1)


def test_pmap_semilinearity_gf4():
    # one-dimensional toral algebra over GF(4): (c*a)^[2] = c^2 * a
    t = 2
    L = RestrictedLieAlgebra(GF4, ["a"], {}, [(1,)])
    assert L.pmap_eval((t,)) == (GF4.mul(t, t),)
    assert L.pmap_eval((t,)) == (t ^ 1,)


def test_pmap_identities_randomized():
    rng = random.Random(71)
    for L in [h3(GF4), n7()]:
        f = L.field
        for _ in range(25):
            v = tuple(f.random(rng) for _ in range(L.n))
            w = tuple(f.random(rng) for _ in range(L.n))
            a = f.random(rng)
            lhs = L.pmap_eval(tuple(f.mul(a, c) for c in v))
            rhs = tuple(f.mul(f.mul(a, a), c) for c in L.pmap_eval(v))
            assert lhs == rhs
            lhs2 = L.pmap_eval(vec_add(f, v, w))
            rhs2 = vec_add(f, vec_add(f, L.pmap_eval(v), L.pmap_eval(w)),
                           L.bracket(v, w))
            assert lhs2 == rhs2


def test_center_matches_exhaustive_oracle():
    for L in [h3(), n7()]:
        assert L.center() == exhaustive_center(L)
    assert h3().center() == span(GF2, 3, [(0, 0, 1)])


def test_centralizer_examples():
    L = h3()
    assert L.centralizer(Subspace.zero(GF2, 3)) == L.full_space()
    assert L.centralizer(L.full_space()) == L.center()
    c = L.centralizer(span(GF2, 3, [(1, 0, 0)]))
    assert c == span(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    # oracle: solve [x, e1] = 0 by enumeration
    vecs = [v for v in all_vectors(GF2, 3)
            if vec_is_zero(GF2, L.bracket(v, (1, 0, 0)))]
    assert c == span(GF2, 3, vecs)


def test_series_abelian():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0)] * 2)
    d = L.series("derived")
    assert [t.dim for t in d] == [2, 0]


def test_series_h3():
    L = h3()
    up = L.series("upper_central")
    assert [t.dim for t in up] == [0, 1, 3]
    assert up[1] == span(GF2, 3, [(0, 0, 1)])
    low = L.series("lower_central")
    assert [t.dim for t in low] == [3, 1, 0]
    assert L.nilpotency_class() == 2


def test_gamma_zeta_orthogonality():
    # [gamma_i, zeta_i] = 0 for nilpotent algebras
    for L in [h3(), n7()]:
        gammas = L.series("lower_central")
        zetas = L.series("upper_central")
        m = min(len(gammas), len(zetas))
        for i in range(1, m):
            for u in gammas[i].basis():
                for v in zetas[i].basis():
                    assert vec_is_zero(L.field, L.bracket(u, v))


def test_restricted_closure_examples():
    L = h3()
    assert L.restricted_closure([(0, 0, 1)]) == span(GF2, 3, [(0, 0, 1)])
    c = L.restricted_closure([(1, 0, 0)])
    assert c == span(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    full = L.restricted_closure([L.basis_vector(i) for i in range(3)])
    assert full == L.full_space()


def test_is_2nilpotent_element():
    # x^[2] = y, y^[2] = 0
    L = RestrictedLieAlgebra(GF2, ["x", "y"], {}, [(0, 1), (0, 0)])
    ok, m = L.is_2nilpotent_element((1, 0))
    assert ok and m == 2
    T = RestrictedLieAlgebra(GF2, ["a"], {}, [(1,)])
    ok, chain = T.is_2nilpotent_element((1,))
    assert not ok
    assert (1,) in chain  # the toral cycle is visible in the visited chain


def test_is_2nilpotent_ideal_h3():
    L = h3()
    s = span(GF2, 3, [(1, 0, 0), (0, 0, 1)])
    ok, chain = L.is_2nilpotent_ideal(s)
    assert ok
    assert chain[-1].dim == 0


def test_is_2nilpotent_ideal_toral_fails():
    L = n7()
    ok, chain = L.is_2nilpotent_ideal(L.full_space())
    assert not ok
    # the stable term contains the toral element z14
    assert chain[-1].contains_vector((0, 0, 0, 0, 0, 0, 1))


def test_is_2abelian():
    L = h3()
    assert L.is_2abelian(L.full_space())
    M = n7()
    assert not M.is_2abelian(M.full_space())
    A = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0)] * 2)
    assert A.is_2abelian(A.full_space())


def test_torus_decomposition_split():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(1, 0), (0, 0)])
    t, n = L.torus_decomposition()
    assert t == span(GF2, 2, [(1, 0)])
    assert n == span(GF2, 2, [(0, 1)])


def test_torus_decomposition_strongly_abelian():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0)] * 2)
    t, n = L.torus_decomposition()
    assert t.dim == 0 and n.dim == 2


def test_torus_decomposition_swap_is_torus():
    # a^[2] = b, b^[2] = a: the square map permutes the basis, so T = L
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (1, 0)])
    t, n = L.torus_decomposition()
    assert t.dim == 2 and n.dim == 0
    # exhaustive bijectivity check of the square map on T
    images = {L.pmap_eval(v) for v in all_vectors(GF2, 2)}
    assert len(images) == 4


def test_torus_decomposition_gf4_semilinear():
    t = 2
    L = RestrictedLieAlgebra(GF4, ["a"], {}, [(t,)])  # a^[2] = t*a
    tor, nil = L.torus_decomposition()
    assert tor.dim == 1 and nil.dim == 0
    images = {L.pmap_eval((c,)) for c in GF4.elements()}
    assert len(images) == 4


def test_torus_decomposition_random_abelian_corpus():
    # T + N splits the algebra, the square map permutes T exhaustively,
    # and every element of N is killed by iterating it
    rng = random.Random(83)
    for field in (GF2, GF4):
        for trial in range(12):
            n = rng.randrange(1, 5)
            pmap = []
            for _ in range(n):
                row = [field.zero] * n
                if rng.random() < 0.7:
                    row[rng.randrange(n)] = field.random(rng)
                pmap.append(tuple(row))
            L = RestrictedLieAlgebra(field, [f"a{i}" for i in range(n)], {}, pmap)
            if not L.check_axioms().ok:
                continue
            t, nil = L.torus_decomposition()
            assert t.dim + nil.dim == n
            assert t.intersect(nil).dim == 0
            if field.order ** t.dim <= 1 << 12:
                pts = set()
                for v in itertools.product(field.elements(), repeat=n):
                    if t.contains_vector(v):
                        pts.add(L.pmap_eval(v))
                assert len(pts) == field.order ** t.dim
            for v in nil.basis():
                ok, _ = L.is_2nilpotent_element(v)
                assert ok


def _random_abelian(rng, field, n):
    """An abelian algebra with a sparse random square map; any square map
    is restricted on an abelian algebra, since ad vanishes."""
    pmap = []
    for _ in range(n):
        row = [field.zero] * n
        for _ in range(rng.randrange(3)):
            row[rng.randrange(n)] = field.random(rng)
        pmap.append(tuple(row))
    return RestrictedLieAlgebra(field, [f"a{i}" for i in range(n)], {}, pmap)


def test_torus_decomposition_matches_point_enumeration():
    # every point v of L: v is in N iff iterating the square map kills it,
    # and T is the set of the phi^n(v)
    rng = random.Random(14)
    count = mixed = 0
    for field, max_n in ((GF2, 8), (GF4, 4), (gf(8), 3)):
        for _ in range(100):
            L = _random_abelian(rng, field, rng.randrange(1, max_n + 1))
            t, nil = L.torus_decomposition()
            images = set()
            for v in itertools.product(field.elements(), repeat=L.n):
                assert L.is_2nilpotent_element(v)[0] == nil.contains_vector(v), L.pmap
                for _ in range(L.n):
                    v = L.pmap_eval(v)
                images.add(v)
            assert len(images) == field.order ** t.dim
            assert all(t.contains_vector(w) for w in images), L.pmap
            count += 1
            mixed += 0 < t.dim < L.n
    assert count == 300 and mixed >= 50


def test_torus_decomposition_errors():
    with pytest.raises(NotAbelian):
        h3().torus_decomposition()
    F = RATFUNC2
    L = RestrictedLieAlgebra(F, ["a"], {}, [(F.one,)])
    with pytest.raises(UnsupportedField):
        L.torus_decomposition()


def test_quotient_h3_by_center():
    L = h3()
    ideal = L.restricted_closure([(0, 0, 1)])
    Q, _ = L.quotient(ideal)
    assert Q.n == 2
    assert Q.is_abelian()
    assert all(vec_is_zero(GF2, p) for p in Q.pmap)
    assert Q.check_axioms().ok


def test_base_change_h3():
    L = h3()
    big, emb = GF2.extend(2, 0b111)
    M = L.base_change(big, emb)
    assert M.field == GF4
    assert M.check_axioms().ok
    assert M.bracket(M.basis_vector(0), M.basis_vector(1)) == (0, 0, 1)


def test_direct_sum():
    L = h3().direct_sum(RestrictedLieAlgebra(GF2, ["a"], {}, [(1,)]))
    assert L.n == 4
    assert L.check_axioms().ok
    assert L.center() == span(GF2, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])


def test_rebase_preserves_structure():
    rng = random.Random(77)
    L = n7()
    for _ in range(5):
        while True:
            basis = [tuple(GF2.random(rng) for _ in range(7)) for _ in range(7)]
            if span(GF2, 7, basis).dim == 7:
                break
        M = L.rebase(basis)
        assert M.check_axioms().ok
        assert M.center().dim == L.center().dim
        assert [t.dim for t in M.series("derived")] == [t.dim for t in L.series("derived")]


def test_random_mutation_usually_breaks_axioms():
    # regression guard: corrupting one structure constant of N7 is usually caught
    rng = random.Random(99)
    broken = 0
    trials = 30
    for _ in range(trials):
        L = n7()
        i = rng.randrange(7)
        j = rng.randrange(7)
        if i == j:
            broken += 1  # cannot mutate the diagonal; count as caught by construction
            continue
        i, j = min(i, j), max(i, j)
        vec = list(L._table[i][j])
        vec[rng.randrange(7)] ^= 1
        brackets = {}
        for a in range(7):
            for b in range(a + 1, 7):
                if any(L._table[a][b]):
                    brackets[(a, b)] = L._table[a][b]
        brackets[(i, j)] = tuple(vec)
        M = RestrictedLieAlgebra(GF2, L.names, brackets, L.pmap)
        if not M.check_axioms().ok:
            broken += 1
    assert broken >= trials * 2 // 3
