"""The bracket and the square map over the nonzero structure constants,
against the scalar loops over all index pairs that they replaced."""

import random

from liesolv.algebra import AxiomReport, AxiomViolation, LieAlgebra, RestrictedLieAlgebra
from liesolv.families import (
    example_7_1, example_7_1_extended, family_v, heisenberg, negative_class2,
)
from liesolv.fields import GF2, gf
from liesolv.linalg import vec_add, vec_is_zero

from test_abelian_ideals import random_algebras

PAIRS = 4


def reference_bracket(L, u, v):
    """The loop over all n^2 index pairs and every table entry."""
    f = L.field
    out = list(L.zero_vec())
    for i in range(L.n):
        ui = u[i]
        vi = v[i]
        if f.is_zero(ui) and f.is_zero(vi):
            continue
        for j in range(i + 1, L.n):
            c = f.add(f.mul(ui, v[j]), f.mul(u[j], vi))
            if not f.is_zero(c):
                row = L._table[i][j]
                for t in range(L.n):
                    if not f.is_zero(row[t]):
                        out[t] = f.add(out[t], f.mul(c, row[t]))
    return tuple(out)


def reference_pmap_eval(L, v):
    f = L.field
    out = list(L.zero_vec())
    for i in range(L.n):
        a = v[i]
        if f.is_zero(a):
            continue
        a2 = f.mul(a, a)
        row = L.pmap[i]
        for t in range(L.n):
            if not f.is_zero(row[t]):
                out[t] = f.add(out[t], f.mul(a2, row[t]))
        for j in range(i + 1, L.n):
            c = f.mul(a, v[j])
            if not f.is_zero(c):
                row = L._table[i][j]
                for t in range(L.n):
                    if not f.is_zero(row[t]):
                        out[t] = f.add(out[t], f.mul(c, row[t]))
    return tuple(out)


def reference_jacobi(L):
    """The Jacobi part of check_axioms on the reference bracket."""
    f = L.field
    report = AxiomReport()
    for i in range(L.n):
        for j in range(i + 1, L.n):
            for k in range(j + 1, L.n):
                s = reference_bracket(L, L._table[i][j], L.basis_vector(k))
                s = vec_add(f, s, reference_bracket(L, L._table[j][k], L.basis_vector(i)))
                s = vec_add(f, s, reference_bracket(L, L._table[k][i], L.basis_vector(j)))
                if not vec_is_zero(f, s):
                    report.violations.append(AxiomViolation(
                        "jacobi", (i, j, k),
                        f"jacobi sum on ({L.names[i]},{L.names[j]},{L.names[k]}) is nonzero"))
    return report


def function_field_algebras():
    """Example 7.1 over F2(X,Y), over F2(sqrt X, sqrt Y), and its quotient Q."""
    L71 = example_7_1()
    Lx, big, embed = example_7_1_extended()
    sx, sy = big.sqrt(embed(L71.field.X)), big.sqrt(embed(L71.field.Y))
    idx = {n: i for i, n in enumerate(Lx.names)}

    def central(c, zi, zj):
        v = [big.zero] * Lx.n
        v[idx[zi]], v[idx[zj]] = c, big.one
        return tuple(v)

    Q, _ = Lx.quotient(Lx.restricted_closure([central(sx, "z1", "z2"),
                                              central(sy, "z1", "z3")]))
    return [L71, Lx, Q]


def sample_vectors(L, rng):
    f = L.field
    vecs = [tuple(f.random(rng) for _ in range(L.n)) for _ in range(PAIRS)]
    # sparse vectors too: one or two nonzero coordinates
    for _ in range(PAIRS):
        v = [f.zero] * L.n
        for _ in range(rng.randrange(1, 3)):
            v[rng.randrange(L.n)] = f.random(rng)
        vecs.append(tuple(v))
    return vecs + [L.basis_vector(i) for i in range(L.n)]


def test_bracket_and_pmap_match_the_scalar_loop():
    algs = list(random_algebras()) + function_field_algebras()
    rng = random.Random(8)
    restricted = 0
    for L in algs:
        vecs = sample_vectors(L, rng)
        for u in vecs:
            for v in rng.sample(vecs, PAIRS):
                assert L.bracket(u, v) == reference_bracket(L, u, v), L
            if isinstance(L, RestrictedLieAlgebra):
                assert L.pmap_eval(u) == reference_pmap_eval(L, u), L
        restricted += isinstance(L, RestrictedLieAlgebra)
    assert len(algs) == 2307
    assert restricted == 768 + 3


def perturbed(L, key, t, c):
    """L with the coefficient on b_t of the table entry at key replaced by c."""
    brackets = L._brackets()
    row = list(brackets.get(key, L.zero_vec()))
    row[t] = c
    brackets[key] = tuple(row)
    return LieAlgebra(L.field, L.names, brackets)


def test_perturbed_table_names_the_same_jacobi_triple():
    F8 = gf(8)
    cases = [
        # h3 with [e1, e3] = e1 added: [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = e3
        (heisenberg(GF2), (0, 2), 0, 1, [(0, 1, 2)]),
        # the class-2 control with [x2, x3] = z14 + x1: [[x2,x3],x4] = [x1,x4] = z14
        (negative_class2(GF2), (1, 2), 0, 1, [(1, 2, 3)]),
        # family_v(h_dim=2) over GF(8) with [h1, h2] = t*x: the sum on (y, h1, h2) is t*x
        (family_v(F8, h_dim=2), (2, 3), 0, 2, [(1, 2, 3)]),
    ]
    for base, key, t, c, triples in cases:
        assert base.check_axioms().ok
        bad = perturbed(base, key, t, c)
        report = bad.check_axioms()
        assert [v.indices for v in report.violations] == triples, (base, key)
        assert report.violations == reference_jacobi(bad).violations, (base, key)
    # one random entry of every draw of the random set with a nonzero table
    rng = random.Random(11)
    named = 0
    for L in random_algebras():
        if not L._brackets():
            continue
        key = rng.choice(sorted(L._brackets()))
        bad = perturbed(L, key, rng.randrange(L.n), L.field.random(rng))
        violations = bad.check_axioms().violations
        assert violations == reference_jacobi(bad).violations, L
        named += bool(violations)
    assert named == 46
