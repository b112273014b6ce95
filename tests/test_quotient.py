"""``Quotient(sub)`` and the table-read quotient algebra against the code they replaced.

The references keep the old general forms: a quotient ``total/sub`` for
any subspace ``total`` that contains ``sub``, with its basis lifted from
a second eliminator on ``total``, and the quotient algebra and upper
central series that bracket and square the lifted vectors.  With
``total`` the whole space, the new code must agree with them exactly.
"""

import random

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.classify import CoreNotNilpotent, _bracket_closure, nilpotent_core
from liesolv.families import (
    example_7_1_extended, family_i, family_iii, family_iv, family_v, free_class2,
    heisenberg, negative_class2, random_instance, witness_chain,
)
from liesolv.fields import GF2, RATFUNC2, GF2k, gf
from liesolv.linalg import Quotient, Subspace, kernel, lin_comb, span

from test_classify import _central_extensions

GF4 = gf(4)
GF8 = gf(8)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

class ReferenceQuotient:
    """Coordinates on total/sub: a linear projection plus a lifted basis."""

    def __init__(self, total: Subspace, sub: Subspace):
        assert total.contains(sub)
        self.field = total.field
        self.ambient = total.ambient
        self._sub_elim = sub.elim()
        full = sub.elim()
        sub_pivots = set(sub.pivots)
        for r in total.rows:
            full.add_vector(r)
        self.lift_pivots = [p for p in full.pivots if p not in sub_pivots]
        by_pivot = dict(zip(full.pivots, full.basis_rows()))
        self.lifted = [by_pivot[p] for p in self.lift_pivots]
        self.dim = len(self.lifted)

    def project(self, vec):
        f = self.field
        r = list(self._sub_elim.residue(vec))
        coords = tuple(r[p] for p in self.lift_pivots)
        for c, row in zip(coords, self.lifted):
            if not f.is_zero(c):
                for j in range(self.ambient):
                    r[j] = f.add(r[j], f.mul(c, row[j]))
        assert all(f.is_zero(c) for c in r), "vector outside the total space"
        return coords

    def lift(self, coords):
        return lin_comb(self.field, coords, self.lifted, self.ambient)


def reference_quotient(L, ideal):
    quot = ReferenceQuotient(L.full_space(), ideal)
    d = quot.dim
    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            val = quot.project(L.bracket(quot.lifted[i], quot.lifted[j]))
            if any(not L.field.is_zero(c) for c in val):
                brackets[(i, j)] = val
    pmap = [quot.project(L.pmap_eval(v)) for v in quot.lifted]
    return RestrictedLieAlgebra(L.field, [f"q{i}" for i in range(d)], brackets, pmap), quot


def reference_upper_central(L):
    terms = [Subspace.zero(L.field, L.n)]
    while terms[-1].dim < L.n:
        quot = ReferenceQuotient(L.full_space(), terms[-1])
        images = [tuple(c for i in range(L.n)
                        for c in quot.project(L.bracket(L.basis_vector(j), L.basis_vector(i))))
                  for j in range(L.n)]
        nxt = kernel(L.field, images, L.n, L.n * quot.dim)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


# ----------------------------------------------------------------------
# Quotient(sub) against ReferenceQuotient(full, sub)
# ----------------------------------------------------------------------

def _random_vec(field, n, rng):
    # half the coordinates zero, which keeps F2(X,Y) eliminations small
    return tuple(field.random(rng) if rng.random() < 0.5 else field.zero for _ in range(n))


def test_quotient_matches_the_quotient_of_the_whole_space():
    rng = random.Random(7)
    for field, max_n in ((GF2, 8), (GF4, 8), (GF8, 8), (RATFUNC2, 5)):
        for _ in range(60):
            n = rng.randrange(1, max_n)
            sub = span(field, n, [_random_vec(field, n, rng) for _ in range(rng.randrange(n + 1))])
            new, ref = Quotient(sub), ReferenceQuotient(Subspace.full(field, n), sub)
            assert (new.dim, new.lift_pivots, new.lifted) == \
                (ref.dim, ref.lift_pivots, ref.lifted)
            for _ in range(5):
                v = _random_vec(field, n, rng)
                assert new.project(v) == ref.project(v)
                c = _random_vec(field, new.dim, rng)
                assert new.lift(c) == ref.lift(c)


# ----------------------------------------------------------------------
# the quotient algebra and the upper central series
# ----------------------------------------------------------------------

def _algebras():
    for field in (GF2, GF4, GF8):
        for n in range(2, 8):
            for seed in range(28):
                yield random_instance(n, field, seed)[0]
        yield from (heisenberg(field), family_i(field), free_class2(field, 3),
                    family_iii(field), family_iv(field, 2), family_iv(field, 3),
                    family_v(field, 2), family_v(field, 3), negative_class2(field),
                    witness_chain(2, field))
    yield from _central_extensions(0)


def _ideals(L):
    """The restricted ideals classify quotients by: the core, C and the
    closure of the centre."""
    out = [_bracket_closure(L), L.restricted_closure(L.center().rows)]
    if isinstance(L.field, GF2k):
        try:
            out.append(nilpotent_core(L))
        except CoreNotNilpotent:
            pass
    return set(out)


def _same_quotient(L, ideal):
    """Whether L/ideal has a nonzero bracket; asserts it equals the reference."""
    (M, quot), (R, ref) = L.quotient(ideal), reference_quotient(L, ideal)
    assert (M.names, M._table, M.pmap) == (R.names, R._table, R.pmap)
    assert quot.lifted == ref.lifted
    return bool(M._nonzero)


def test_quotient_algebra_matches_bracketing_the_lifted_basis():
    algebras = proper = nonabelian = 0
    for L in _algebras():
        algebras += 1
        for ideal in _ideals(L):
            nonabelian += _same_quotient(L, ideal)
            proper += 0 < ideal.dim < L.n
        assert L.series("upper_central") == reference_upper_central(L)
    # 570 algebras, 188 proper nonzero ideals, 48 non-abelian quotients
    assert algebras >= 500 and proper >= 150 and nonabelian >= 40


def test_quotient_by_j_over_the_square_root_field():
    # Example 7.1 over F2(sqrt X, sqrt Y): J = span{sqrt X z1 + z2, sqrt Y z1 + z3}
    Lx, big, embed = example_7_1_extended()
    idx = {name: i for i, name in enumerate(Lx.names)}
    gens = []
    for root, other in ((big.sqrt(embed(RATFUNC2.X)), "z2"),
                        (big.sqrt(embed(RATFUNC2.Y)), "z3")):
        v = [big.zero] * Lx.n
        v[idx["z1"]], v[idx[other]] = root, big.one
        gens.append(tuple(v))
    j = Lx.restricted_closure(gens)
    assert j.dim == 2
    _same_quotient(Lx, j)
    assert Lx.series("upper_central") == reference_upper_central(Lx)
