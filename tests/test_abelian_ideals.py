"""The exact abelian-ideal decision against the enumeration it replaced,
and L' and Z read from the table against bracket evaluation."""

import functools

import pytest

from liesolv.algebra import LieAlgebra, RestrictedLieAlgebra
from liesolv.classify import (
    LadderExhausted, _abelian, _dot, abelian_ideal, isotropic_functionals,
    projective_vectors,
)
from liesolv.families import example_7_1, example_7_1_extended, random_instance
from liesolv.fields import GF2, RATFUNC2, gf
from liesolv.linalg import Quotient, kernel, lin_comb
from liesolv.ordinary import random_ordinary_instance

GF4 = gf(4)
SEEDS = 32


def every_abelian_ideal(L):
    """Every abelian ideal of codimension at most 1, as (kind, subspace), by
    the lemma of abelian_ideal: the hyperplanes are the kernels of all the
    points of P(S), in their order, of which abelian_ideal returns the first."""
    if L.is_abelian():
        yield "abelian", L.full_space()
        return
    d1 = L.derived_subalgebra()
    cent = L.centralizer(d1)
    codim = L.n - cent.dim
    if codim == 1 and cent.contains(d1) and _abelian(L, cent.basis()):
        yield "centralizer", cent
    if codim != 0:
        return
    f = L.field
    quot = Quotient(L.center())
    s = isotropic_functionals(L, quot.lifted)
    proj_basis = [quot.project(L.basis_vector(j)) for j in range(L.n)]
    for c in projective_vectors(f, s.dim):
        phi = lin_comb(f, c, s.basis(), quot.dim)
        yield "hyperplane", kernel(f, [(_dot(f, phi, pj),) for pj in proj_basis], L.n, 1)


def reference_abelian_ideals(L, by_center=False, cap=1 << 16):
    """The hyperplane enumeration that abelian_ideal replaced.

    It walks every hyperplane of L/L' (or of L/Z with by_center) and
    raises LadderExhausted above cap points.
    """
    if L.is_abelian():
        yield "abelian", L.full_space()
        return
    d1 = L.derived_subalgebra()
    cent = L.centralizer(d1)
    codim = L.n - cent.dim
    if codim == 1 and cent.contains(d1) and _abelian(L, cent.basis()):
        yield "centralizer", cent
    if codim != 0:
        return
    f = L.field
    quot = Quotient(L.center() if by_center else d1)
    if f.order ** quot.dim > cap:
        raise LadderExhausted("hyperplane enumeration too large")
    proj_basis = [quot.project(L.basis_vector(j)) for j in range(L.n)]
    for normal in projective_vectors(f, quot.dim):
        images = [(_dot(f, normal, pj),) for pj in proj_basis]
        a = kernel(f, images, L.n, 1)
        if a.dim == L.n - 1 and _abelian(L, a.basis()):
            yield "hyperplane", a


@functools.lru_cache(maxsize=None)
def random_algebras():
    """Restricted, ordinary and metabelian ordinary draws over GF(2)/GF(4)/GF(8),
    n = 3..6, followed by their degree-2 base changes."""
    algs = []
    for field in (GF2, GF4, gf(8)):
        for n in range(3, 7):
            for seed in range(SEEDS):
                algs.append(random_instance(n, field, seed)[0])
                algs.append(random_ordinary_instance(n, field, seed)[0])
                algs.append(random_ordinary_instance(n, field, seed, metabelian=True)[0])
    return tuple(algs + [L.base_change(*L.field.extend(2)) for L in algs])


def reaches_hyperplane_branch(L):
    return not L.is_abelian() and L.centralizer(L.derived_subalgebra()) == L.full_space()


def is_abelian_hyperplane_ideal(L, a):
    return (a.dim == L.n - 1 and a.contains(L.center()) and L.is_ideal(a)
            and _abelian(L, a.basis()))


def reference_ideals(L):
    """(ideals, enumerated): the reference enumeration, or the lemma's list,
    each checked to be an abelian hyperplane ideal, where both enumerations
    are too large.

    The L/L' enumeration runs up to 2^8 points here (up to 2^16 it takes
    about a minute on these draws and agrees too).  Above that the L/Z
    enumeration is the reference; the lemma "every abelian hyperplane
    contains Z" makes it complete.
    """
    try:
        return set(reference_abelian_ideals(L, cap=1 << 8)), "L/L'"
    except LadderExhausted:
        pass
    try:
        return set(reference_abelian_ideals(L, by_center=True)), "L/Z"
    except LadderExhausted:
        every = set(every_abelian_ideal(L))
        assert all(is_abelian_hyperplane_ideal(L, a) for _, a in every), L
        return every, None


def test_abelian_ideals_match_enumeration():
    # abelian_ideal returns an ideal iff the reference finds any, and it
    # is the first of every_abelian_ideal, whose set is the reference's
    algs = random_algebras()
    hyper = found = 0
    by = {"L/L'": 0, "L/Z": 0, None: 0}
    for L in algs:
        new = abelian_ideal(L)
        every = list(every_abelian_ideal(L))
        hyper += reaches_hyperplane_branch(L)
        old, how = reference_ideals(L)
        by[how] += 1
        assert set(every) == old, L
        assert new == (every[0] if every else None), L
        assert (new is None) == (not old), L
        found += new is not None
    assert len(algs) == 2304
    assert (hyper, by["L/Z"], by[None]) == (452, 270, 4)
    assert found == 2262


def test_abelian_ideals_of_a_restricted_algebra_are_p_closed():
    # in a restricted L, an abelian ideal A of codimension <= 1 is
    # p-closed: ad x maps L into A and A into 0 for x in A, so x^[2] is
    # central, Z lies in A, and the cross terms of a square are brackets
    # inside A, which vanish; so condition (i) needs no p-closure test
    checked = 0
    for L in random_algebras():
        if not isinstance(L, RestrictedLieAlgebra):
            continue
        for kind, a in reference_ideals(L)[0]:
            assert L.is_pmap_closed(a), (L.names, L.pmap, kind)
            checked += 1
    assert checked == 2798


def central_forms(field, n_x, forms):
    """x_0..x_{n_x-1} and central z_0..; forms maps (a, b) to the coefficients
    of [x_a, x_b] on the z's."""
    n_z = len(next(iter(forms.values())))
    n = n_x + n_z
    brackets = {(a, b): (field.zero,) * n_x + tuple(field.one if c else field.zero
                                                    for c in zs)
                for (a, b), zs in forms.items()}
    return LieAlgebra(field, [f"x{i}" for i in range(n_x)] + [f"z{i}" for i in range(n_z)],
                      brackets)


HAND_BUILT = {
    # one rank-2 form: dim S = 2, every hyperplane of L/Z is abelian
    "rank-2": (2, {(0, 1): (1,)}, "q+1"),
    # x0^x1 and x0^x2: S is the line of x0*, one hyperplane
    "two-rank-2-line": (3, {(0, 1): (1, 0), (0, 2): (0, 1)}, 1),
    # x0^x1 and x2^x3: both rank 2 with S = 0
    "two-rank-2-disjoint": (4, {(0, 1): (1, 0), (2, 3): (0, 1)}, 0),
    # x0^x1 + x2^x3: rank 4 (the 5-dimensional Heisenberg algebra)
    "rank-4": (4, {(0, 1): (1,), (2, 3): (1,)}, 0),
    # z0 reads the rank-2 form x0^x1, z1 the rank-4 form x0^x1 + x2^x3
    "rank-2-beside-rank-4": (4, {(0, 1): (1, 1), (2, 3): (0, 1)}, 0),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_abelian_ideals_hand_built(name):
    n_x, forms, expected = HAND_BUILT[name]
    for field in (GF2, GF4):
        L = central_forms(field, n_x, forms)
        assert L.check_axioms().ok
        count = field.order + 1 if expected == "q+1" else expected
        every = list(every_abelian_ideal(L))
        assert [kind for kind, _ in every] == ["hyperplane"] * count
        assert set(every) == set(reference_abelian_ideals(L)), field
        assert abelian_ideal(L) == (every[0] if every else None)
    # over F2(X,Y) an abelian hyperplane ideal is returned iff one exists
    L = central_forms(RATFUNC2, n_x, forms)
    found = abelian_ideal(L)
    assert (found is None) == (expected == 0)
    assert found is None or is_abelian_hyperplane_ideal(L, found[1])


def test_derived_and_center_match_bracket_evaluation():
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
    extra = [Q, L71, LieAlgebra(L71.field, L71.names, L71._brackets()),
             central_forms(RATFUNC2, 4, HAND_BUILT["rank-2-beside-rank-4"][1])]
    # Q is a quotient over F2(sqrt X, sqrt Y) with L' = Z of dimension 1
    assert Q.derived_subalgebra().dim == Q.center().dim == 1
    nonabelian = 0
    for L in random_algebras() + tuple(extra):
        full = L.full_space()
        d1 = L.derived_subalgebra()
        assert d1 == L.bracket_span(full, full), L
        assert L.center() == L.centralizer(full), L
        nonabelian += d1.dim > 0
    assert nonabelian == 984 + len(extra)
