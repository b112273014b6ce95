"""The solvability classifier: core reduction, condition matchers, verdicts.

The pipeline matches first and refutes after.  It computes a canonical
2-nilpotent core ideal once, over the base field; its first step, test
(a), refutes when the closure of [[L',L'],L] is not 2-nilpotent.  It
matches the quotient against the five structural conditions.  Conditions
(i)-(iii) are rank conditions and one linear system with coefficients in
the base field, so they match over an extension iff they match over the
base field; the ladder of extensions GF(2^(kd)), d >= 2, runs (iv) and
(v) only, on the base-changed quotient (every step of the core commutes
with base change, so the core of L⊗K is the embedded core of L), and
(iv)/(v) walk the abelian hyperplanes of each eigenspace once.  When
nothing matches, it tries one alternative core, found on the first miss:
the restricted closure of the 2-nilpotent locus of the whole centre (the
canonical core takes that locus on the derived algebra only), if it
differs from the canonical core and is 2-nilpotent.  Only then do tests
(b)/(c) look for a non-nilpotent element of the ideal generated by
[[a,b],[c,d],e] in u(L): after a match, u(L) is Lie solvable by the
paper's theorem, so every such element is nilpotent and they cannot
refute.  Every positive verdict carries re-checkable witnesses; a
refutation carries a concrete non-nilpotent element.

The derived series oracle that cross-checks a verdict, and refutes when
nothing matched, runs on u(L/I), not on u(L): I is the canonical core, or
0 when the closure of [[L',L'],L] is not 2-nilpotent.  For a 2-nilpotent
restricted ideal I, I·u(L) is a nilpotent ideal with quotient u(L/I)
(Riley-Shalev, J. Algebra 162, 1993), and a ring that is Lie solvable
modulo a nilpotent ideal is Lie solvable, so both series reach zero or
both stabilize, and u(L/I) is 2^dim I times smaller.  The core is checked
again before the oracle uses it.

The parts of conditions (i)-(iii) that read brackets only
(``abelian_ideal``, ``class2_center``, ``eigenvector_pair``) take any
``LieAlgebra``, decide over every field and serve the ordinary
classifier as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import List, Optional, Sequence, Tuple

from .algebra import LieAlgebra, RestrictedLieAlgebra
from .envelope import MAX_ENVELOPE_N, Envelope
from .fields import GF2k, FieldError
from .linalg import (
    Quotient, Subspace, kernel, lin_comb, span, vec_add, vec_is_zero, vec_scale,
)

CONDITION_NAMES = {
    "i": "abelian restricted ideal of codimension at most 1",
    "ii": "class 2 with center of codimension 3",
    "iii": "two eigenvector generators over a toral action",
    "iv": "strongly abelian block under a toral action",
    "v": "matched-squares abelian block under a toral action",
}


class CoreNotNilpotent(Exception):
    """A core is not a 2-nilpotent restricted ideal: ``nilpotent_core``'s
    accumulated core or the oracle's ideal failed its check, an internal
    fault (exit 3 in the CLI).  ``ClosureNotNilpotent`` is test (a) instead."""


class ClosureNotNilpotent(CoreNotNilpotent):
    """Test (a) refutes: ``nilpotent_core``'s first step, the closure of
    [[L',L'],L], is not 2-nilpotent.  ``stable`` is the stable term of its
    chain, from which ``_closure_verdict`` builds the refutation."""

    def __init__(self, stable: Subspace):
        super().__init__("closure of [[L',L'],L] is not 2-nilpotent")
        self.stable = stable


class LadderExhausted(Exception):
    """A condition needs a walk that cannot run.

    Raised by ``match_condition`` over a field that is not GF(2^k), which
    ``classify`` never reaches, and by ``_match_iv_v`` when an eigenspace
    k of a toral element has more than 2^12 abelian hyperplanes to walk,
    q^(dim S - 1) > 2^12 for S from ``isotropic_functionals``: k abelian
    of dimension d with q^(d-1) > 2^12, or dim S = 2 and q > 2^12.
    ``classify`` counts it as no match at that degree.
    """


@dataclass
class Certificate:
    condition: str
    relations: List[str]
    data: dict

    def __str__(self):
        return "\n".join(self.relations)


@dataclass
class Verdict:
    outcome: str                     # "solvable" | "not_solvable" | "inconclusive"
    condition: Optional[str] = None  # "i".."v"
    extension_degree: int = 1
    core_basis: List[str] = dc_field(default_factory=list)
    certificate: Optional[Certificate] = None
    witness_kind: Optional[str] = None    # "sz_witness" | "oracle_stabilized" | "necessary_test"
    witness_str: Optional[str] = None
    reason: Optional[str] = None
    oracle: Optional[dict] = None
    # rich fields for re-verification (not serialized)
    core_space: Optional[Subspace] = None   # in the coordinates of L⊗K
    witness_elem: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "condition": self.condition,
            "condition_name": CONDITION_NAMES.get(self.condition),
            "extension_degree": self.extension_degree,
            "core_dim": len(self.core_basis),
            "core_basis": self.core_basis,
            "certificate": self.certificate.relations if self.certificate else None,
            "witness_kind": self.witness_kind,
            "witness": self.witness_str,
            "reason": self.reason,
            "oracle": self.oracle,
        }
        return out


# The series oracle runs on u(L/I) when dim L/I <= ORACLE_DIM_LIMIT, I the
# core (0 when test (a) refutes): u(L) is Lie solvable iff u(L/I) is
# (see the module docstring), so witness_chain(3), n = 11 with a core of
# dimension 6, gets an oracle on its 5-dimensional quotient.  Test (c) of
# ``necessary_tests`` evaluates the first PATTERN_BUDGET 4-permutations.
# Tests (b) and (c) run when dim L <= PATTERN_DIM_LIMIT, one below
# MAX_ENVELOPE_N, when no condition matched.  The limit was set when they
# ran first: on randomly rebased solvable inputs, which now match before
# the tests, they took 11 s at n = 10 (family_iv, h_dim=4), 41 s at n = 11
# (witness_chain(3)) and 147-165 s at n = 12 (family_iv/v, h_dim=5) on a
# 2-vCPU Xeon with Python 3.11.
ORACLE_DIM_LIMIT = 9
PATTERN_BUDGET = 2000
PATTERN_DIM_LIMIT = 11


@dataclass
class ClassifyOptions:
    extension_ladder_max: int = 4
    oracle_crosscheck: bool = True


# ----------------------------------------------------------------------
# projective enumeration helpers
# ----------------------------------------------------------------------

def projective_vectors(field, dim: int):
    """All nonzero coordinate vectors with first nonzero entry 1."""
    elems = list(field.elements())
    for lead in range(dim):
        for tail in itertools.product(elems, repeat=dim - lead - 1):
            yield (field.zero,) * lead + (field.one,) + tail


def subspace_points(field, s: Subspace):
    """Nonzero elements of a subspace up to scalar, via projective coordinates.

    Needs a GF(2^k) field; every caller bounds the number of points first.
    """
    basis = s.basis()
    for coeffs in projective_vectors(field, s.dim):
        yield lin_comb(field, coeffs, basis, s.ambient)


# ----------------------------------------------------------------------
# necessary (refuting) tests
# ----------------------------------------------------------------------

def _pairing_elements(env: Envelope, lifts: Sequence):
    """[[e4 e3 e1, e4], [e4 e1, e1], e2] for e1..e4 in ``lifts`` (elements of L).

    Yields, for every 4-subset of ``lifts`` and three orders of it, the
    native element of u(L); each lies in the S-Z ideal.  Products and
    brackets with e in L are sums of products with generators.
    """
    def mul(v, e):
        return env._combine(e, partial(env._mul_gen, v))

    def lie(v, e):
        return env._combine(e, partial(env._lie_gen, v))

    for subset in itertools.combinations(lifts, 4):
        for order in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3)):
            e1, e2, e3, e4 = (subset[i] for i in order)
            e4n = env._native(env.from_algebra_vec(e4))
            a = lie(mul(mul(e4n, e3), e1), e4)
            b = lie(mul(e4n, e1), e1)
            yield lie(env._ad(b)(a), e2)


def _bracket_patterns(env: Envelope, budget: int):
    """[[z b y, z], [x, x b], y] for the 4-permutations (z, b, y, x) of the
    generators, among the first ``budget``, whose element can be nonzero,
    as native elements of u(L).

    Each lies in the S-Z ideal.  Since [x b, x] = x [b, x] and
    [z b y, z] = z ([b, z] y + b [y, z]), the element is 0 unless
    [b, x] != 0 and [b, z] or [y, z] != 0 in L; a permutation that fails
    this on the bracket adjacency ``_moves`` is skipped, and the others
    keep their order.  For those, [z b y, z] is memoised per (z, b, y)
    and the ad table of [x, x b] per (x, b), so each element costs one
    general bracket (an apply of that table) and one bracket with y.
    """
    moves = env.algebra._moves
    zbyz, ads = {}, {}
    for z, b, y, x in itertools.islice(itertools.permutations(range(env.n), 4), budget):
        if not (moves[x] >> b & 1 and moves[z] & (1 << b | 1 << y)):
            continue
        a = zbyz.get((z, b, y))
        if a is None:
            zby = env._mul_gen(env._mul_gen(env._mono(1 << z), b), y)
            a = zbyz[z, b, y] = env._lie_gen(zby, z)
        ad = ads.get((x, b))
        if ad is None:
            ad = ads[x, b] = env._ad(env._lie_gen(env._mul_gen(env._mono(1 << x), b), x))
        yield env._lie_gen(ad(a), y)


def necessary_tests(L: RestrictedLieAlgebra) -> Optional[Verdict]:
    """Fast refutations; None means all tests passed.

    Test (a) first, then tests (b) and (c) by ``_pattern_tests``.
    """
    # (a) the restricted closure of [[L',L'],L] must be 2-nilpotent
    ok, chain = L.is_2nilpotent_ideal(_bracket_closure(L))
    if not ok:
        return _closure_verdict(L, chain[-1])
    return _pattern_tests(L)


def _pattern_tests(L: RestrictedLieAlgebra) -> Optional[Verdict]:
    """Tests (b) and (c) of ``necessary_tests``, for dim L <= PATTERN_DIM_LIMIT.

    They evaluate their pattern elements natively in u(L) (stacked ints
    over GF(2^k), see ``Envelope``) from the generator tables, and turn
    an element into a dict only to report a witness.  Test (c) skips the
    permutations whose element is 0 by the bracket adjacency of L, so the
    first non-nilpotent element is the same as without the skip; it
    memoises [z b y, z] per (z, b, y) and the ad table of [x, x b] per
    (x, b).
    """
    if L.n > PATTERN_DIM_LIMIT:
        return None
    env = Envelope(L)
    tests = []
    # (b) pairing-combination elements on 4-subsets of a central complement
    cls = L.nilpotency_class()
    if cls is not None and cls <= 2:
        lifts = Quotient(L.center()).lifted
        tests.append(("pairing-combination", _pairing_elements(env, lifts)))
    # (c) bracket patterns over basis 4-tuples
    tests.append(("bracket-pattern", _bracket_patterns(env, PATTERN_BUDGET)))
    for name, elems in tests:
        for w in elems:
            if not env._is_nilpotent(w)[0]:
                w = env._to_dict(w)
                return Verdict(
                    outcome="not_solvable", witness_kind="sz_witness",
                    witness_str=env.element_str(w),
                    reason=f"{name} element is not nilpotent",
                    witness_elem=w)
    return None


def _bracket_closure(L: RestrictedLieAlgebra) -> Subspace:
    """C, the restricted closure of [[L',L'],L]: test (a) and the start of the core."""
    d1 = L.derived_subalgebra()
    d2 = L.bracket_span(d1, d1)
    apply = L.form.apply
    return L.restricted_closure_rows(apply(table, None, v) for v in d2.planes for table in L.ad)


def _closure_verdict(L: RestrictedLieAlgebra, stable: Subspace) -> Verdict:
    """Test (a)'s refutation, given the stable term of the closure's chain."""
    w = _find_non_2nilpotent(L, stable)
    return Verdict(
        outcome="not_solvable", witness_kind="necessary_test",
        witness_str=L.element_str(w) if w is not None else "stable chain "
        f"of dimension {stable.dim}",
        reason="the closure of [[L',L'],L] is not 2-nilpotent",
        witness_elem={1 << i: c for i, c in enumerate(w)
                      if not L.field.is_zero(c)} if w is not None else None,
    )


def _find_non_2nilpotent(L: RestrictedLieAlgebra, stable: Subspace):
    """Hunt for a single non-2-nilpotent element inside a stable chain term."""
    f = L.field
    candidates = list(stable.basis())
    for u, v in itertools.combinations(stable.basis(), 2):
        candidates.append(vec_add(f, u, v))
    if isinstance(f, GF2k) and f.order ** stable.dim <= 1 << 12:
        candidates.extend(subspace_points(f, stable))
    for v in candidates:
        ok, _ = L.is_2nilpotent_element(v)
        if not ok:
            return v
    return None


# ----------------------------------------------------------------------
# canonical 2-nilpotent core
# ----------------------------------------------------------------------

def nilpotent_core(L: RestrictedLieAlgebra) -> Subspace:
    """Fixpoint core: the closure C of [[L',L'],L], then repeatedly the
    2-nilpotent locus of M' intersected with the centre of M = L/core,
    pulled back through the quotient.

    C is absorbed once: [[M',M'],M] is the image of [[L',L'],L], which
    lies in C and so in the core, and its closure in M is 0.
    """
    closure = core = _bracket_closure(L)
    ok, chain = L.is_2nilpotent_ideal(core)
    if not ok:
        raise ClosureNotNilpotent(chain[-1])
    while core.dim < L.n:
        if core.dim:
            M, quot = L.quotient(core)
            lift = quot.lift_row
        else:
            M, lift = L, lambda w: w
        locus = _central_2nilpotent_locus(M, M.center().intersect(M.derived_subalgebra()))
        if not locus.dim:
            break
        core = L.restricted_closure_rows([*core.planes, *map(lift, locus.planes)])
    if core is not closure and not L.is_2nilpotent_ideal(core)[0]:
        raise CoreNotNilpotent("accumulated core failed the 2-nilpotency check")
    return core


def _central_2nilpotent_locus(L: RestrictedLieAlgebra, z: Subspace) -> Subspace:
    """Largest subspace of z whose elements the square map kills eventually.

    z must consist of central elements, where the square map is
    semilinear: the locus is the kernel of phi^n on z, with n = dim L
    (``RestrictedLieAlgebra.square_fitting``), since z need not be
    square-closed and its kernel chain can stall before it grows again.
    Needs a GF(2^k) field.
    """
    if z.dim == 0:
        return z
    return L.square_fitting(z)[1]


# ----------------------------------------------------------------------
# condition matchers (GF(2^k) quotients)
# ----------------------------------------------------------------------

def match_condition(L: RestrictedLieAlgebra, tag: str) -> Optional[Certificate]:
    if not isinstance(L.field, GF2k):
        raise LadderExhausted("condition matching runs over GF(2^k) only")
    if tag == "i":
        return _match_i(L)
    if tag == "ii":
        return _match_ii(L)
    if tag == "iii":
        return _match_iii(L)
    if tag in ("iv", "v"):
        return _match_iv_v(L, tag)
    raise ValueError(f"unknown condition tag {tag!r}")


def _abelian(L: LieAlgebra, vecs: Sequence) -> bool:
    """Whether the given vectors, scalar tuples, bracket pairwise to zero."""
    return _commuting(L, [L.form._row(v) for v in vecs])


def _commuting(L: LieAlgebra, rows: Sequence) -> bool:
    """Whether the given rows bracket pairwise to zero."""
    return not any(L.bracket_row(u, v) for i, u in enumerate(rows) for v in rows[i + 1:])


def isotropic_functionals(L: LieAlgebra, basis: Sequence) -> Subspace:
    """The functionals phi on V = span(basis) whose kernels are abelian,
    as coordinate vectors on ``basis``.

    Each coordinate t of the bracket is an alternating form
    w_t(u, v) = [u, v]_t on V, read from the Gram matrix [basis_a, basis_b].
    A hyperplane ker(phi) is isotropic for a nonzero w_t iff rank w_t = 2
    and phi lies in Im w_t (w_t = a^b vanishes on ker(phi) iff phi is in
    span(a, b)).  A vector of [V, V] is fixed by its coordinates at the
    pivots of [V, V], so those forms decide.  The result is the intersection S of their images: all of V*
    when V is abelian (every hyperplane), else of dimension at most 2,
    and 0 when some form has rank above 2 or the images meet in 0.
    """
    f, d = L.field, len(basis)
    gram = [[L.zero_vec()] * d for _ in range(d)]
    for a, b in itertools.combinations(range(d), 2):
        gram[a][b] = gram[b][a] = L.bracket(basis[a], basis[b])
    s = Subspace.full(f, d)
    for t in span(f, L.n, (w for row in gram for w in row)).pivots:
        image = span(f, d, [tuple(w[t] for w in row) for row in gram])
        if image.dim > 2:
            return Subspace.zero(f, d)
        s = s.intersect(image)
        if s.dim == 0:
            break
    return s


def abelian_ideal(L: LieAlgebra) -> Optional[Tuple[str, Subspace]]:
    """An abelian ideal of codimension at most 1, as (kind, subspace), or None.

    Reads brackets only and decides over every field by rank conditions,
    with no search.  An abelian L gives ("abelian", L).  Otherwise every
    abelian hyperplane ideal lies between L' and its centralizer: a
    centralizer of codimension 1 is the one candidate ("centralizer");
    when L' is central, every hyperplane containing L' is an ideal, and
    the abelian ones ("hyperplane") are read off V = L/Z:

    - each contains the centre Z, since a central z outside H would give
      L = H + Fz, which is abelian;
    - so they are the kernels of the points of P(S), where S (of
      dimension at most 2) comes from ``isotropic_functionals`` on a
      basis of V; the first basis vector of S gives the one returned.

    In a restricted L every such ideal A is p-closed, so condition (i)
    needs no further test.  For x in A, ad x maps L into A and A into 0,
    so ad x^[2] = (ad x)^2 = 0 and x^[2] is central; Z lies in A (as
    above, when L is not abelian); and
    (sum a_i x_i)^[2] = sum a_i^2 x_i^[2] + sum_{i<j} a_i a_j [x_i, x_j]
    lies in Z, since A is abelian.
    """
    d1 = L.derived_subalgebra()
    if d1.dim == 0:
        return "abelian", L.full_space()
    cent = L.centralizer(d1)
    codim = L.n - cent.dim
    if codim == 1 and cent.contains(d1) and _commuting(L, cent.planes):
        return "centralizer", cent
    if codim != 0:
        return None
    f = L.field
    quot = Quotient(L.center())
    s = isotropic_functionals(L, quot.lifted)
    if s.dim == 0:
        return None
    phi = s.rows[0]
    images = [(_dot(f, phi, quot.project(L.basis_vector(j))),) for j in range(L.n)]
    return "hyperplane", kernel(f, images, L.n, 1)


_CONDITION_I_RELATION = {
    "abelian": "the algebra is abelian (ideal of codimension 0)",
    "centralizer": "A = centralizer of L' is abelian of codimension 1 (dim {})",
    "hyperplane": "abelian restricted hyperplane found (dim {})",
}


def _match_i(L: RestrictedLieAlgebra) -> Optional[Certificate]:
    found = abelian_ideal(L)
    if found is None:
        return None
    kind, a = found
    return Certificate("i", [_CONDITION_I_RELATION[kind].format(a.dim)], {"ideal": a})


def _dot(f, u, v):
    out = f.zero
    for a, b in zip(u, v):
        out = f.add(out, f.mul(a, b))
    return out


def class2_center(L: LieAlgebra) -> Optional[Subspace]:
    """The centre of L when L is nilpotent of class 2 with centre of
    codimension 3, else None."""
    if L.nilpotency_class() != 2:
        return None
    z = L.center()
    return z if L.n - z.dim == 3 else None


def _match_ii(L: RestrictedLieAlgebra) -> Optional[Certificate]:
    z = class2_center(L)
    if z is None:
        return None
    return Certificate(
        "ii", ["nilpotent of class 2", f"center has codimension 3 (dim {z.dim})"], {})


def _eigen_one_space(L: RestrictedLieAlgebra, y) -> Subspace:
    """Kernel of ad(y) + id: elements with [v, y] = v exactly."""
    f = L.field
    images = []
    for j in range(L.n):
        img = list(L.bracket(L.basis_vector(j), y))
        img[j] = f.add(img[j], f.one)
        images.append(tuple(img))
    return kernel(f, images, L.n, L.n)


def _candidate_ys(L: LieAlgebra):
    """Points of L to try as y: all of them, with first nonzero coordinate
    1, when there are at most 2^14, else the sums of at most three basis
    vectors, as over any field that is not GF(2^k)."""
    f = L.field
    if isinstance(f, GF2k) and f.order ** L.n <= 1 << 14:
        return subspace_points(f, L.full_space())
    return (tuple(f.one if i in combo else f.zero for i in range(L.n))
            for size in (1, 2, 3) for combo in itertools.combinations(range(L.n), size))


def _toral_ys(L: LieAlgebra, z: Subspace):
    """The toral elements y of conditions (iii)-(v), lazily; z is the centre Z.

    Those conditions need L = k ⊕ Fy ⊕ Z with [v, y] = v on k and
    [k, k] in Z.  Then W = L' + Z = k + Z is a hyperplane and ad y is the
    identity on W/Z.  Conversely, for such a y, w -> [w, y] lifts W/Z
    onto the eigenspace k of ad y for 1, which complements Z in W.  L
    acts on W/Z, killing Z; once every ad b_j is a scalar lam_j it kills
    L' too (scalars commute), so W/Z is abelian and the toral y are the
    affine space y0 + W where lam(y) = 1.  None is yielded when
    dim W/Z < 2: then W is an abelian ideal of codimension 1, (i).

    One walk of ``_candidate_ys`` yields the first y of each class mod Z
    (the searches read y only through ad y): first the candidates with
    lam(y) = 1, in their order, then y / lam(y) for the others with
    lam(y) != 0, which a walk of points with first coordinate 1 misses.
    """
    f = L.field
    mod_z = Quotient(z)
    w = span(f, mod_z.dim, map(mod_z.project, L.derived_subalgebra().rows))
    if w.dim != mod_z.dim - 1 or w.dim < 2:
        return
    lifts = [mod_z.lift(r) for r in w.rows]
    p = w.pivots[0]
    lam = []
    for j in range(L.n):
        images = [mod_z.project(L.bracket(v, L.basis_vector(j))) for v in lifts]
        c = f.div(images[0][p], w.rows[0][p])
        if any(img != vec_scale(f, c, r) for img, r in zip(images, w.rows)):
            return
        lam.append(c)
    seen, rescaled = set(), {}
    for y in _candidate_ys(L):
        c = _dot(f, lam, y)
        if f.is_zero(c):
            continue
        if c != f.one:
            y = vec_scale(f, f.inv(c), y)
            rescaled.setdefault(mod_z.project(y), y)
            continue
        key = mod_z.project(y)
        if key not in seen:
            seen.add(key)
            yield y
    for key, y in rescaled.items():
        if key not in seen:
            yield y


def eigenvector_pair(L: LieAlgebra) -> Optional[Tuple[tuple, tuple, tuple]]:
    """(x1, x2, y) with [x1,y] = x1, [x2,y] = x2, [x1,x2] in the centre
    Z, and x1, x2, y and Z spanning L directly; None if there is none.

    Reads brackets only and decides over every field.  Needs Z of
    codimension 3 and a toral y (``_toral_ys``); the first one is taken.
    No pair is enumerated: the eigenspace k of ad y for 1 complements
    Z + Fy and brackets into Z, and every pair is a basis of k, so
    (b1, b1 + b2) for the basis b1, b2 of k is returned, the first pair
    of the point enumeration this replaced.
    """
    z = L.center()
    if L.n - z.dim != 3:
        return None
    y = next(_toral_ys(L, z), None)
    if y is None:
        return None
    b1, b2 = _eigen_one_space(L, y).basis()
    return b1, vec_add(L.field, b1, b2), y


def _match_iii(L: RestrictedLieAlgebra) -> Optional[Certificate]:
    found = eigenvector_pair(L)
    if found is None:
        return None
    x1, x2, y = found
    return Certificate(
        "iii",
        ["[x1,y] = x1 and [x2,y] = x2 hold exactly",
         "[x1,x2] is central",
         "x1, x2, y and the center span the algebra directly",
         f"x1 = {L.element_str(x1)}",
         f"x2 = {L.element_str(x2)}",
         f"y = {L.element_str(y)}"],
        {"x1": x1, "x2": x2, "y": y})


def _abelian_hyperplanes(L: LieAlgebra, k: Subspace):
    """(x, basis of H) for each abelian hyperplane H = ker(phi) of k, phi
    in P(``isotropic_functionals(L, k.basis())``).  x is the first point of
    ``subspace_points(k)`` off H, H has the basis b_i + lam_i x, i >= 1,
    lam_i = phi(b_i) / phi(x), and the order of (rank of x, lam) is that
    in which a walk over every x, then every complement of x, meets each H.
    """
    f, basis, d = L.field, k.basis(), k.dim
    s = isotropic_functionals(L, basis)
    if s.dim and f.order ** (s.dim - 1) > 1 << 12:
        raise LadderExhausted("more than 2^12 abelian hyperplanes to walk")
    walk = []
    for c in projective_vectors(f, s.dim):
        phi = lin_comb(f, c, s.basis(), d)
        j = 0 if not f.is_zero(phi[0]) else max(i for i in range(d) if not f.is_zero(phi[i]))
        # the points b_0, then b_0 + b_j for j = d-1, ..., 1, come in this order
        walk.append((j > 0, -j, tuple(f.div(phi[i], phi[j]) for i in range(1, d))))
    for _, neg_j, lams in sorted(walk):
        x = vec_add(f, basis[0], basis[-neg_j]) if neg_j else basis[0]
        yield x, [lin_comb(f, (f.one, lam), (b, x), L.n) for b, lam in zip(basis[1:], lams)]


def _match_iv_v(L: RestrictedLieAlgebra, tag: str) -> Optional[Certificate]:
    """(iv) or (v) on one walk of the abelian hyperplanes H of each k.

    A match depends on H only, so any x of k off H serves: [x + h', h] =
    [x, h] on abelian H, beta and alpha absorb c x, and (iv) and (v) are
    semilinear on H, so one basis decides.  [k, k] is central, so x
    brackets H into the centre.
    """
    for y in _toral_ys(L, L.center()):
        for x, hs in _abelian_hyperplanes(L, _eigen_one_space(L, y)):
            cert = _finish_iv_v(L, tag, x, y, hs)
            if cert is not None:
                return cert
    return None


def _finish_iv_v(L, tag, x, y, hs) -> Optional[Certificate]:
    f = L.field
    if tag == "iv":
        if all(vec_is_zero(f, L.pmap_eval(h)) for h in hs):
            return Certificate(
                "iv",
                ["[x,y] = x and [y,h] = h hold exactly",
                 "H is strongly abelian; [x,H] is central",
                 f"x = {L.element_str(x)}", f"y = {L.element_str(y)}",
                 f"H basis: {[L.element_str(h) for h in hs]}"],
                {"x": x, "y": y, "H": hs})
        return None
    # tag v: find beta with sigma([x,h]) = beta * sigma(h) for every h, then
    # rescale x by sqrt(1/beta) so that [x,h]^[2] = h^[2]
    beta = None
    for h in hs:
        lhs = L.pmap_eval(L.bracket(x, h))
        rhs = L.pmap_eval(h)
        if vec_is_zero(f, rhs):
            if vec_is_zero(f, lhs):
                continue
            return None
        j = next(i for i, c in enumerate(rhs) if not f.is_zero(c))
        cand = f.div(lhs[j], rhs[j])
        if tuple(f.mul(cand, c) for c in rhs) != tuple(lhs):
            return None
        if beta is None:
            beta = cand
        elif beta != cand:
            return None
    if beta is None or f.is_zero(beta):
        return None
    alpha = f.sqrt(f.inv(beta))
    x2 = tuple(f.mul(alpha, c) for c in x)
    for h in hs:
        if L.pmap_eval(L.bracket(x2, h)) != L.pmap_eval(h):
            return None
    if not vec_is_zero(f, vec_add(f, L.bracket(x2, y), x2)):
        return None
    return Certificate(
        "v",
        ["[x,y] = x and [y,h] = h hold exactly",
         "H is abelian; [x,H] is central",
         "[x,h]^[2] = h^[2] for the rescaled x on a basis of H",
         f"x = {L.element_str(x2)} (rescaled by {f.to_str(alpha)})",
         f"y = {L.element_str(y)}",
         f"H basis: {[L.element_str(h) for h in hs]}"],
        {"x": x2, "y": y, "H": hs})


# ----------------------------------------------------------------------
# the full pipeline
# ----------------------------------------------------------------------

TAG_ORDER = ["i", "ii", "iii", "iv", "v"]


def _quotient(L: RestrictedLieAlgebra, core: Subspace) -> RestrictedLieAlgebra:
    return L.quotient(core)[0] if core.dim else L


def _alternative_core(L: RestrictedLieAlgebra, core: Subspace) -> tuple:
    """(ideal, quotient) of the restricted closure of the centre's
    2-nilpotent locus, or () when it equals core or is not 2-nilpotent."""
    alt = L.restricted_closure_rows(_central_2nilpotent_locus(L, L.center()).planes)
    if alt != core and L.is_2nilpotent_ideal(alt)[0]:
        return alt, _quotient(L, alt)
    return ()


def _match_over(Q: RestrictedLieAlgebra, ext) -> Optional[Certificate]:
    """The first condition that Q⊗K matches, with ext = (K, embedding),
    or None for Q over its own field.

    Over an extension only (iv) and (v) are tried, because (i)-(iii)
    match Q⊗K iff they match Q: (i) is a set of rank conditions on
    bracket matrices (``abelian_ideal``, whose ideal is p-closed), (ii)
    reads the nilpotency class and dim Z, and (iii) is dim Z and the
    solvability of the linear system of ``_toral_ys``.  Each has its
    coefficients in the base field, so none changes under base change.
    """
    Qm, tags = (Q.base_change(*ext), ("iv", "v")) if ext else (Q, TAG_ORDER)
    for tag in tags:
        cert = match_condition(Qm, tag)
        if cert is not None:
            return cert
    return None


def _solvable_verdict(L: RestrictedLieAlgebra, degree: int, ext,
                      core: Subspace, cert: Certificate) -> Verdict:
    """The verdict of a match over ext; the core of L⊗K is the embedded core of L."""
    if ext:
        big, embed = ext
        Lm = L.base_change(big, embed)
        space = Lm.span_of(tuple(map(embed, row)) for row in core.rows)
    else:
        Lm, space = L, core
    return Verdict(outcome="solvable", condition=cert.condition, extension_degree=degree,
                   core_basis=[Lm.element_str(r) for r in space.rows],
                   certificate=cert, core_space=space)


def classify(L: RestrictedLieAlgebra,
             options: Optional[ClassifyOptions] = None) -> Verdict:
    """Full decision pipeline; every verdict carries re-checkable evidence."""
    options = options or ClassifyOptions()
    if not isinstance(L.field, GF2k):
        return necessary_tests(L) or Verdict(
            outcome="inconclusive",
            reason="structural matching needs a GF(2^k) base field; "
                   "only the refutation tests run over this field")
    try:
        core = nilpotent_core(L)
    except ClosureNotNilpotent as exc:
        # test (a) refutes: the closure of [[L',L'],L] is no core, so I = 0
        refute = _closure_verdict(L, exc.stable)
        refute.oracle = _run_oracle(L, options, Subspace.zero(L.field, L.n))
        return refute
    quotient = _quotient(L, core)
    alt = None              # looked for on the first miss
    ladder_note = None
    for degree in range(1, options.extension_ladder_max + 1):
        ext = None
        if degree > 1:
            try:
                ext = L.field.extend(degree)
            except FieldError as exc:          # degree too large for root search
                ladder_note = str(exc)
                break
        used = core
        try:
            cert = _match_over(quotient, ext)
        except LadderExhausted as exc:
            ladder_note, cert = str(exc), None
        if cert is None:
            # any 2-nilpotent restricted ideal may serve as the core
            if alt is None:
                alt = _alternative_core(L, core)
            if alt:
                used = alt[0]
                try:
                    cert = _match_over(alt[1], ext)
                except LadderExhausted:
                    pass
        if cert is not None:
            verdict = _solvable_verdict(L, degree, ext, used, cert)
            verdict.oracle = _run_oracle(L, options, core, quotient)
            return verdict
    refute = _pattern_tests(L)         # test (a) passed in nilpotent_core
    oracle = _run_oracle(L, options, core, quotient)
    if refute is not None:
        refute.oracle = oracle
        return refute
    if oracle is not None:
        if oracle["outcome"] == "stabilized":
            return Verdict(outcome="not_solvable", witness_kind="oracle_stabilized",
                           witness_str=f"derived series stabilized at dimension {oracle['value']}",
                           oracle=oracle)
        if oracle["outcome"] == "reached_zero":
            return Verdict(
                outcome="inconclusive",
                reason="no condition matched within the ladder, but the derived "
                       "series oracle reached zero (matcher incompleteness)",
                oracle=oracle)
    return Verdict(outcome="inconclusive",
                   reason=ladder_note or "extension ladder and core search exhausted "
                   "without a certificate, oracle unavailable")


def _run_oracle(L: RestrictedLieAlgebra, options: ClassifyOptions, core: Subspace,
                quotient: Optional[RestrictedLieAlgebra] = None) -> Optional[dict]:
    """The cross-check of a verdict over GF(2^k): the derived series of
    u(L/I), I = ``core``, with ``quotient`` = L/I when the caller has it.
    The series runs when dim L/I <= ORACLE_DIM_LIMIT.
    """
    if not options.oracle_crosscheck or L.n - core.dim > ORACLE_DIM_LIMIT:
        return None
    return _oracle_series(L, core, quotient)


def _oracle_series(L: RestrictedLieAlgebra, core: Subspace,
                   quotient: Optional[RestrictedLieAlgebra] = None) -> dict:
    """The oracle dict of the derived series of u(L/core).

    Only for a 2-nilpotent restricted ideal does that series have the
    outcome of the series of u(L) (see the module docstring), so core is
    checked again first, and CoreNotNilpotent is raised when it fails.
    """
    if not (L.is_ideal(core) and L.is_pmap_closed(core) and L.is_2nilpotent_ideal(core)[0]):
        raise CoreNotNilpotent("the oracle's ideal is not a 2-nilpotent restricted ideal")
    if quotient is None:
        quotient = _quotient(L, core)
    res = Envelope(quotient).lie_derived_series()
    return {"outcome": res.outcome, "value": res.value, "dims": res.dims,
            "quotient_dim": quotient.n}


def verify_verdict(L: RestrictedLieAlgebra, verdict: Verdict) -> bool:
    """Re-check the carried evidence of a classify verdict from scratch.

    L⊗K is rebuilt from L and the extension degree, and the carried core
    must be a 2-nilpotent restricted ideal of it.  A ``necessary_test``
    refutation is re-derived from the closure C of [[L',L'],L], and an
    ``sz_witness`` must be the one ``necessary_tests(L)`` finds and not
    nilpotent in u(L).  An ``oracle_stabilized`` refutation, which
    ``classify`` gives only after test (a) passed, is re-derived as
    ``classify`` derives it: by the derived series of u(L/I) with
    I = ``nilpotent_core(L)``, which must stabilize with the carried
    ``quotient_dim``, value and dims; for dim L/I above MAX_ENVELOPE_N it
    cannot be and is rejected.  A refutation of any other witness kind,
    or of none, is rejected.
    """
    if verdict.outcome == "solvable":
        degree = verdict.extension_degree
        Lm = L.base_change(*L.field.extend(degree)) if degree > 1 else L
        core = verdict.core_space
        if core is None or verdict.certificate is None:
            return False
        if not (Lm.is_ideal(core) and Lm.is_pmap_closed(core)
                and Lm.is_2nilpotent_ideal(core)[0]):
            return False
        return _verify_certificate(_quotient(Lm, core), verdict.certificate)
    if verdict.outcome == "not_solvable":
        if verdict.witness_kind == "necessary_test":
            closure = _bracket_closure(L)
            if L.is_2nilpotent_ideal(closure)[0]:
                return False
            return verdict.witness_elem is None or \
                _non_2nilpotent_in(L, verdict.witness_elem, closure)
        if verdict.witness_kind == "sz_witness":
            derived = necessary_tests(L)
            if derived is None or derived.witness_kind != "sz_witness" \
                    or derived.witness_elem != verdict.witness_elem:
                return False
            return not Envelope(L).is_nilpotent(verdict.witness_elem)[0]
        if verdict.witness_kind == "oracle_stabilized":
            if verdict.oracle is None or not isinstance(L.field, GF2k):
                return False
            try:
                core = nilpotent_core(L)
            except CoreNotNilpotent:        # test (a) refutes: no oracle refutation
                return False
            if verdict.oracle.get("quotient_dim") != L.n - core.dim \
                    or L.n - core.dim > MAX_ENVELOPE_N:
                return False
            oracle = _oracle_series(L, core)
            return oracle["outcome"] == "stabilized" and verdict.oracle == oracle
        return False
    return True


def _non_2nilpotent_in(L: RestrictedLieAlgebra, elem: dict, space: Subspace) -> bool:
    """Whether a witness, in PBW masks, is an element of space ⊆ L that is
    not nilpotent.

    For x in L, x^(2^e) = x^[2^e] in u(L), so x is nilpotent there iff it
    is 2-nilpotent in L.  A witness of any other PBW degree is rejected.
    """
    if any(m <= 0 or m & (m - 1) or m >> L.n for m in elem):
        return False
    v = [elem.get(1 << i, L.field.zero) for i in range(L.n)]
    return space.contains_vector(v) and not L.is_2nilpotent_element(v)[0]


def _verify_certificate(Lq: RestrictedLieAlgebra, cert: Certificate) -> bool:
    f = Lq.field
    tag = cert.condition
    if tag == "i":
        a = cert.data["ideal"]
        if Lq.n - a.dim > 1:
            return False
        return Lq.is_ideal(a) and Lq.is_pmap_closed(a) and _commuting(Lq, a.planes)
    if tag == "ii":
        return class2_center(Lq) is not None
    if tag == "iii":
        x1, x2, y = cert.data["x1"], cert.data["x2"], cert.data["y"]
        z = Lq.center()
        ok = (Lq.bracket(x1, y) == tuple(x1) and Lq.bracket(x2, y) == tuple(x2)
              and z.contains_vector(Lq.bracket(x1, x2)))
        total = span(f, Lq.n, [x1, x2, y] + list(z.basis()))
        return ok and total.dim == Lq.n and Lq.n - z.dim == 3
    if tag in ("iv", "v"):
        x, y, hs = cert.data["x"], cert.data["y"], cert.data["H"]
        z = Lq.center()
        if Lq.bracket(x, y) != tuple(x):
            return False
        for h in hs:
            if Lq.bracket(h, y) != tuple(h):
                return False
            if not z.contains_vector(Lq.bracket(x, h)):
                return False
        if not _abelian(Lq, hs):
            return False
        if tag == "iv":
            if not all(vec_is_zero(f, Lq.pmap_eval(h)) for h in hs):
                return False
        else:
            for h in hs:
                if Lq.pmap_eval(Lq.bracket(x, h)) != Lq.pmap_eval(h):
                    return False
        total = span(f, Lq.n, [x, y] + list(hs) + list(z.basis()))
        return total.dim == Lq.n
    return False
