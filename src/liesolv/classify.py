"""The solvability classifier: core reduction, condition matchers, verdicts.

The pipeline refutes first (non-nilpotent elements of the ideal
generated by [[a,b],[c,d],e] in u(L) kill solvability outright), then
tries to certify solvability by computing a canonical 2-nilpotent core
ideal over a ladder of field extensions and matching the quotient
against the five structural conditions.  Every positive verdict carries
re-checkable witnesses; a refutation carries a concrete non-nilpotent
element.

The parts of conditions (i)-(iii) that read brackets only
(``abelian_ideals``, ``class2_center``, ``eigenvector_pair``) take any
``LieAlgebra`` and serve the ordinary classifier as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import List, Optional, Sequence, Tuple

from .algebra import LieAlgebra, RestrictedIdeal, RestrictedLieAlgebra
from .envelope import Envelope
from .fields import GF2k
from .linalg import Quotient, Subspace, kernel, lin_comb, span, vec_add, vec_is_zero

CONDITION_NAMES = {
    "i": "abelian restricted ideal of codimension at most 1",
    "ii": "class 2 with center of codimension 3",
    "iii": "two eigenvector generators over a toral action",
    "iv": "strongly abelian block under a toral action",
    "v": "matched-squares abelian block under a toral action",
}


class CoreNotNilpotent(Exception):
    """The canonical core candidate is not 2-nilpotent (a refutation signal)."""

    def __init__(self, witness_vec, description):
        super().__init__(description)
        self.witness_vec = witness_vec
        self.description = description


class LadderExhausted(Exception):
    pass


class NotTriangularizable(Exception):
    def __init__(self, witness, description):
        super().__init__(description)
        self.witness = witness
        self.description = description


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
    core_space: Optional[Subspace] = None
    extended_algebra: Optional[RestrictedLieAlgebra] = None
    quotient_algebra: Optional[RestrictedLieAlgebra] = None
    witness_elem: Optional[dict] = None
    witness_algebra: Optional[RestrictedLieAlgebra] = None

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


# The series oracle runs when dim L <= ORACLE_DIM_LIMIT; test (c) of
# ``necessary_tests`` evaluates the first PATTERN_BUDGET 4-permutations.
ORACLE_DIM_LIMIT = 9
PATTERN_BUDGET = 2000


@dataclass
class ClassifyOptions:
    extension_ladder_max: int = 4
    exhaustive_core_dim_limit: int = 7
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


def _points_within(field, dim: int, cap: int) -> bool:
    """Whether a dim-dimensional space over field has at most cap vectors.

    Enumeration needs a finite field, so over any other field this
    raises LadderExhausted: the condition that wanted it is undecided.
    """
    if not isinstance(field, GF2k):
        raise LadderExhausted("enumeration needs a GF(2^k) field")
    return field.order ** dim <= cap


def subspace_points(field, s: Subspace, cap: int = 1 << 16):
    """Nonzero elements of a subspace up to scalar, via projective coordinates."""
    if not _points_within(field, s.dim, cap):
        raise LadderExhausted("subspace too large for exhaustive point enumeration")
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
    """[[z b y, z], [x, x b], y] for the first ``budget`` 4-permutations
    (z, b, y, x) of the generators, as native elements of u(L).

    Each lies in the S-Z ideal.  [z b y, z] is memoised per (z, b, y)
    and the ad table of [x, x b] per (x, b), so each element costs one
    general bracket (an apply of that table) and one bracket with y.
    """
    zbyz, ads = {}, {}
    for z, b, y, x in itertools.islice(itertools.permutations(range(env.n), 4), budget):
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

    Tests (b) and (c) evaluate their pattern elements natively in u(L)
    (stacked ints over GF(2^k), see ``Envelope``) from the generator
    tables, and turn an element into a dict only to report a witness.
    Test (c) memoises [z b y, z] per (z, b, y) and the ad table of
    [x, x b] per (x, b).
    """
    # (a) the restricted closure of [[L',L'],L] must be 2-nilpotent
    d1 = L.derived_subalgebra()
    d2 = L.bracket_span(d1, d1)
    gens = [L.bracket(v, L.basis_vector(j)) for v in d2.basis() for j in range(L.n)]
    closure = L.restricted_closure([g for g in gens if not vec_is_zero(L.field, g)])
    if closure.space.dim:
        ok, chain = L.is_2nilpotent_ideal(closure.space)
        if not ok:
            w = _find_non_2nilpotent(L, chain[-1])
            return Verdict(
                outcome="not_solvable", witness_kind="necessary_test",
                witness_str=L.element_str(w) if w is not None else "stable chain "
                f"of dimension {chain[-1].dim}",
                reason="the closure of [[L',L'],L] is not 2-nilpotent",
                witness_elem={1 << i: c for i, c in enumerate(w)
                              if not L.field.is_zero(c)} if w is not None else None,
                witness_algebra=L,
            )
    env = Envelope(L) if L.n <= 11 else None
    if env is None:
        return None
    tests = []
    # (b) pairing-combination elements on 4-subsets of a central complement
    cls = L.nilpotency_class()
    if cls is not None and cls <= 2:
        lifts = Quotient(L.full_space(), L.center()).lifted
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
                    witness_elem=w, witness_algebra=L)
    return None


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

def nilpotent_core(L: RestrictedLieAlgebra) -> RestrictedIdeal:
    """Fixpoint core: repeatedly absorb the closure of [[L',L'],L] and the
    2-nilpotent locus of the center, pulled back through the quotients."""
    f = L.field
    core_gens: List[tuple] = []
    while True:
        core = L.restricted_closure(core_gens) if core_gens else None
        if core and core.space.dim == L.n:
            break
        if core:
            M, quot = L.quotient(core)
            lift = quot.lift
        else:
            M, lift = L, lambda w: w
        grew = False
        d1 = M.derived_subalgebra()
        d2 = M.bracket_span(d1, d1)
        gens = [M.bracket(v, M.basis_vector(j)) for v in d2.basis() for j in range(M.n)]
        gens = [g for g in gens if not vec_is_zero(f, g)]
        if gens:
            cl = M.restricted_closure(gens)
            ok, chain = M.is_2nilpotent_ideal(cl.space)
            if not ok:
                w = _find_non_2nilpotent(M, chain[-1])
                raise CoreNotNilpotent(
                    w, "closure of [[L',L'],L] is not 2-nilpotent in the reduced algebra")
            if cl.space.dim:
                core_gens.extend(lift(row) for row in cl.space.rows)
                grew = True
        if not grew:
            # 2-nilpotent part of L' intersected with the center
            z = M.center().intersect(M.derived_subalgebra())
            locus = _central_2nilpotent_locus(M, z)
            if locus.dim:
                core_gens.extend(lift(row) for row in locus.rows)
                grew = True
        if not grew:
            break
    ideal = L.restricted_closure(core_gens) if core_gens else RestrictedIdeal(
        Subspace.zero(f, L.n))
    ok, _ = L.is_2nilpotent_ideal(ideal.space)
    if not ok:
        raise CoreNotNilpotent(None, "accumulated core failed the 2-nilpotency check")
    return ideal


def _central_2nilpotent_locus(L: RestrictedLieAlgebra, z: Subspace) -> Subspace:
    """Largest subspace of z whose elements the square map kills eventually.

    z must consist of central elements; it is square-closed inside the
    center first so that the Fitting machinery applies, and the eventual
    kernel is intersected back with z.
    """
    if z.dim == 0:
        return z
    if not isinstance(L.field, GF2k):
        # over the function field, collect the central basis vectors that
        # square to zero eventually; sums of such elements stay 2-nilpotent
        vecs = [v for v in z.basis() if L.is_2nilpotent_element(v)[0]]
        sub = span(L.field, L.n, vecs)
        if all(L.is_2nilpotent_element(v)[0] for v in sub.basis()):
            return sub
        return Subspace.zero(L.field, L.n)
    closed = L.p_closure(z)
    zalg, zbasis = L.subalgebra_on(closed)
    _, nil = zalg.torus_decomposition()
    vecs = [lin_comb(L.field, row, zbasis, L.n) for row in nil.rows]
    return span(L.field, L.n, vecs).intersect(z)


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
    """Whether the given vectors bracket pairwise to zero."""
    f = L.field
    return all(vec_is_zero(f, L.bracket(u, v))
               for i, u in enumerate(vecs) for v in vecs[i + 1:])


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


def abelian_ideals(L: LieAlgebra):
    """The abelian ideals of codimension at most 1, as (kind, subspace).

    Reads brackets only and decides over every field, with no cap.  An
    abelian L gives ("abelian", L) alone.  Otherwise every abelian
    hyperplane ideal lies between L' and its centralizer: a centralizer
    of codimension 1 is the one candidate ("centralizer"); when L' is
    central, every hyperplane containing L' is an ideal, and the abelian
    ones ("hyperplane") are read off V = L/Z:

    - each contains the centre Z, since a central z outside H would give
      L = H + Fz, which is abelian;
    - so they are the kernels of the points of P(S), where S (of
      dimension at most 2) comes from ``isotropic_functionals`` on a
      basis of V.

    Over GF(2^k) all of the at most q+1 points are yielded, lazily; over
    any other field one of them, so existence is still decided.
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
    quot = Quotient(L.full_space(), L.center())
    d = quot.dim
    s = isotropic_functionals(L, quot.lifted)
    if s.dim == 0:
        return
    if isinstance(f, GF2k):
        phis = (lin_comb(f, c, s.basis(), d) for c in projective_vectors(f, s.dim))
    else:
        phis = s.basis()[:1]
    proj_basis = [quot.project(L.basis_vector(j)) for j in range(L.n)]
    for phi in phis:
        yield "hyperplane", kernel(f, [(_dot(f, phi, pj),) for pj in proj_basis], L.n, 1)


_CONDITION_I_RELATION = {
    "abelian": "the algebra is abelian (ideal of codimension 0)",
    "centralizer": "A = centralizer of L' is abelian of codimension 1 (dim {})",
    "hyperplane": "abelian restricted hyperplane found (dim {})",
}


def _match_i(L: RestrictedLieAlgebra) -> Optional[Certificate]:
    for kind, a in abelian_ideals(L):
        if kind == "abelian" or L.is_pmap_closed(a):
            return Certificate("i", [_CONDITION_I_RELATION[kind].format(a.dim)],
                               {"ideal": a})
    return None


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
        "ii",
        ["nilpotent of class 2", f"center has codimension 3 (dim {z.dim})"],
        {"center": z})


def _eigen_one_space(L: RestrictedLieAlgebra, y) -> Subspace:
    """Kernel of ad(y) + id: elements with [v, y] = v exactly."""
    f = L.field
    images = []
    for j in range(L.n):
        img = list(L.bracket(L.basis_vector(j), y))
        img[j] = f.add(img[j], f.one)
        images.append(tuple(img))
    return kernel(f, images, L.n, L.n)


def _candidate_ys(L: LieAlgebra, zelim):
    """Points y of L, the first of each class mod the centre.

    All points when there are at most 2^14, else sums of at most three
    basis vectors.  The centre is the kernel of ad, and the searches that
    read y depend on it only through ad y, so a later y of a seen class
    (keyed by its residue modulo ``zelim``, an eliminator of Z) would
    repeat an earlier search.
    """
    f = L.field
    if _points_within(f, L.n, 1 << 14):
        ys = subspace_points(f, L.full_space())
    else:
        ys = itertools.chain(
            (L.basis_vector(i) for i in range(L.n)),
            (tuple(f.one if i in combo else f.zero for i in range(L.n))
             for size in (2, 3) for combo in itertools.combinations(range(L.n), size)))
    seen = set()
    for y in ys:
        key = zelim.residue(y)
        if key not in seen:
            seen.add(key)
            yield y


def eigenvector_pair(L: LieAlgebra) -> Optional[Tuple[tuple, tuple, tuple, Subspace]]:
    """(x1, x2, y, Z) with [x1,y] = x1, [x2,y] = x2, [x1,x2] in the centre
    Z, and x1, x2, y and Z spanning L directly; None if none is found.

    Reads brackets only.  Needs Z of codimension 3; y runs over all
    points of L when there are at most 2^14, else over sums of at most
    three basis vectors, and over a field that is not GF(2^k) this
    raises LadderExhausted.  No pair is enumerated: the eigenspace k of
    ad y for 1 meets Z + Fy only in 0 (such a v has v = [v, y] = 0), so
    dim k <= 2, and when dim k = 2 it complements Z + Fy.  Every pair
    is then a basis of k, with [x1, x2] a nonzero multiple of [b1, b2]
    for the basis b1, b2 of k.  So a pair exists iff dim k = 2 and
    [b1, b2] is central, and (b1, b1 + b2) is the one returned, the
    first pair of the point enumeration this replaces.
    """
    z = L.center()
    if L.n - z.dim != 3:
        return None
    zelim = z.elim()
    for y in _candidate_ys(L, zelim):
        k = _eigen_one_space(L, y)
        if k.dim == 2:
            b1, b2 = k.basis()
            if zelim.contains_vector(L.bracket(b1, b2)):
                return b1, vec_add(L.field, b1, b2), y, z
    return None


def _match_iii(L: RestrictedLieAlgebra) -> Optional[Certificate]:
    found = eigenvector_pair(L)
    if found is None:
        return None
    x1, x2, y, z = found
    return Certificate(
        "iii",
        ["[x1,y] = x1 and [x2,y] = x2 hold exactly",
         "[x1,x2] is central",
         "x1, x2, y and the center span the algebra directly",
         f"x1 = {L.element_str(x1)}",
         f"x2 = {L.element_str(x2)}",
         f"y = {L.element_str(y)}"],
        {"x1": x1, "x2": x2, "y": y, "center": z})


def _abelian_complements(L: LieAlgebra, k: Subspace, s: Subspace, x):
    """Bases of the abelian hyperplanes of k complementary to the line of x.

    s holds the functionals on k (coordinates on ``k.basis()``) whose
    kernels are abelian, from ``isotropic_functionals``.  A complement is
    spanned by b_idx + lam_idx x for the basis vectors b_idx other than
    the first one on which x has a nonzero coordinate, and it is ker(phi)
    with phi(x) != 0 and lam_idx = phi(b_idx) / phi(x).  All complements
    are abelian when s is all of k*; otherwise they come from the at most
    q+1 points of P(s).  Either way they are visited in the lexicographic
    order of (lam_idx): GF(2^k) elements are the ints 0..q-1, so this is
    itertools.product over ``f.elements()``.
    """
    f = L.field
    basis, d = k.basis(), k.dim
    x_coords = tuple(x[p] for p in k.pivots)
    lead = next(i for i, c in enumerate(x_coords) if not f.is_zero(c))
    others = [i for i in range(d) if i != lead]
    if s.dim == d:
        lam_rows = itertools.product(list(f.elements()), repeat=d - 1)
    else:
        lam_rows = []
        for c in projective_vectors(f, s.dim):
            phi = lin_comb(f, c, s.basis(), d)
            phi_x = _dot(f, phi, x_coords)
            if not f.is_zero(phi_x):
                lam_rows.append(tuple(f.div(phi[idx], phi_x) for idx in others))
        lam_rows.sort()
    for lams in lam_rows:
        yield [lin_comb(f, (f.one, lam), (basis[idx], x), L.n)
               for idx, lam in zip(others, lams)]


def _match_iv_v(L: RestrictedLieAlgebra, tag: str) -> Optional[Certificate]:
    f = L.field
    z = L.center()
    zelim = z.elim()
    for y in _candidate_ys(L, zelim):
        k = _eigen_one_space(L, y)
        if k.dim < 2:
            continue
        if k.dim + 1 + z.dim != L.n:
            continue
        total = span(f, L.n, list(k.basis()) + [y] + list(z.basis()))
        if total.dim != L.n:
            continue
        if not _points_within(f, k.dim, 1 << 12):
            raise LadderExhausted("eigenspace too large for point enumeration")
        s = isotropic_functionals(L, k.basis())
        if s.dim == 0:
            continue
        for x in subspace_points(f, k):
            # [x, k] must be central for any valid split
            if not all(zelim.contains_vector(L.bracket(x, kb)) for kb in k.basis()):
                continue
            for hs in _abelian_complements(L, k, s, x):
                cert = _finish_iv_v(L, tag, x, y, hs, z)
                if cert is not None:
                    return cert
    return None


def _finish_iv_v(L, tag, x, y, hs, z) -> Optional[Certificate]:
    f = L.field
    if tag == "iv":
        if all(vec_is_zero(f, L.pmap_eval(h)) for h in hs):
            return Certificate(
                "iv",
                ["[x,y] = x and [y,h] = h hold exactly",
                 "H is strongly abelian; [x,H] is central",
                 f"x = {L.element_str(x)}", f"y = {L.element_str(y)}",
                 f"H basis: {[L.element_str(h) for h in hs]}"],
                {"x": x, "y": y, "H": hs, "center": z})
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
        {"x": x2, "y": y, "H": hs, "center": z})


# ----------------------------------------------------------------------
# triangularization
# ----------------------------------------------------------------------

def _mat_mul(f, a, b):
    n = len(a)
    return tuple(tuple(_dot(f, a[i], tuple(b[r][j] for r in range(n)))
                       for j in range(n)) for i in range(n))


def _mat_add(f, a, b):
    return tuple(tuple(f.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_commutator(f, a, b):
    return _mat_add(f, _mat_mul(f, a, b), _mat_mul(f, b, a))


def _mat_is_nilpotent(f, a) -> bool:
    n = len(a)
    cur = a
    e = 1
    while e < n:
        cur = _mat_mul(f, cur, cur)
        e *= 2
    return all(f.is_zero(c) for row in cur for c in row)


def _min_poly(f, a) -> List:
    """Coefficients (low to high) of the minimal polynomial of a."""
    n = len(a)
    from .linalg import Eliminator
    elim = Eliminator(f, n * n + n + 1)
    power = tuple(tuple(f.one if i == j else f.zero for j in range(n)) for i in range(n))
    for d in range(n + 1):
        flat = tuple(c for row in power for c in row)
        tag = [f.zero] * (n + 1)
        tag[d] = f.one
        elim.add_vector(flat + tuple(tag))
        for piv, row in zip(elim.pivots, elim.basis_rows()):
            if piv >= n * n:
                poly = list(row[n * n:])
                while poly and f.is_zero(poly[-1]):
                    poly.pop()
                return poly
        power = _mat_mul(f, power, a)
    raise AssertionError("minimal polynomial must have degree <= n")


def _poly_eval(f, poly, r):
    acc = f.zero
    for c in reversed(poly):
        acc = f.add(f.mul(acc, r), c)
    return acc


def _poly_div_linear(f, poly, r):
    """Divide poly by (lambda + r); returns (quotient, remainder)."""
    m = len(poly) - 1
    q = [f.zero] * m
    q[m - 1] = poly[m]
    for i in range(m - 1, 0, -1):
        q[i - 1] = f.add(poly[i], f.mul(r, q[i]))
    rem = f.add(poly[0], f.mul(r, q[0]))
    return q, rem


def _min_poly_roots(f, a) -> Optional[List]:
    """Roots of the minimal polynomial of a; None if it does not split."""
    poly = _min_poly(f, a)
    roots = []
    while len(poly) > 1:
        root = next((r for r in f.elements() if f.is_zero(_poly_eval(f, poly, r))), None)
        if root is None:
            return None
        poly, rem = _poly_div_linear(f, poly, root)
        if not f.is_zero(rem):
            raise AssertionError("division by a verified root left a remainder")
        roots.append(root)
    return sorted(set(roots))


def triangularize(matrices: Sequence, field,
                  ladder_max: int = 4) -> List[List[Tuple]]:
    """Common flag for a Lie set of matrices with nilpotent commutators.

    Returns the flag as a list of vectors (each extending the span by
    one dimension).  Raises NotTriangularizable with a witness
    commutator, or LadderExhausted when eigenvalues refuse to split
    within the extension ladder.
    """
    if not matrices:
        return []
    n = len(matrices[0])
    degree = 1
    f = field
    mats = [tuple(tuple(row) for row in m) for m in matrices]
    while True:
        try:
            return _triangularize_over(f, mats, n)
        except LadderExhausted:
            degree += 1
            if degree > ladder_max:
                raise
            big, embed = field.extend(degree)
            f = big
            mats = [tuple(tuple(embed(c) for c in row) for row in m)
                    for m in matrices]


def _triangularize_over(f, mats, n) -> List[Tuple]:
    for a, b in itertools.combinations(mats, 2):
        comm = _mat_commutator(f, a, b)
        if not _mat_is_nilpotent(f, comm):
            raise NotTriangularizable(comm, "a pairwise commutator is not nilpotent")
    flag: List[Tuple] = []
    # work with explicit coordinates of the current quotient
    current_basis = [tuple(f.one if i == j else f.zero for j in range(n))
                     for i in range(n)]
    cur_mats = mats
    dim = n
    while dim > 0:
        v = _common_eigenvector(f, cur_mats, dim)
        flag.append(lin_comb(f, v, current_basis, n))
        quot = Quotient(Subspace.full(f, dim), span(f, dim, [v]))
        new_mats = []
        for m in cur_mats:
            imgs = []
            for lift in quot.lifted:
                img = tuple(_dot(f, lift, tuple(m[r][j] for r in range(dim)))
                            for j in range(dim))
                imgs.append(quot.project(img))
            new_mats.append(tuple(tuple(imgs[i][j] for j in range(quot.dim))
                                  for i in range(len(quot.lifted))))
        current_basis = [lin_comb(f, lift, current_basis, n) for lift in quot.lifted]
        cur_mats = new_mats
        dim -= 1
    return flag


def _common_eigenvector(f, mats, dim) -> Tuple:
    if dim == 0:
        raise AssertionError("no eigenvector in dimension 0")
    # joint kernel of the commutator algebra (Engel part)
    comms = []
    for a, b in itertools.combinations(mats, 2):
        c = _mat_commutator(f, a, b)
        flat = tuple(x for row in c for x in row)
        if not vec_is_zero(f, flat):
            comms.append(c)
    w = Subspace.full(f, dim)
    for c in comms:
        if not _mat_is_nilpotent(f, c):
            raise NotTriangularizable(c, "commutator became non-nilpotent on a quotient")
        ker = kernel(f, [tuple(c[r]) for r in range(dim)], dim, dim)
        w = w.intersect(ker)
    if w.dim == 0:
        raise NotTriangularizable(None, "commutators have no joint kernel vector")
    # the matrices commute on w; intersect eigenspaces sequentially
    for m in mats:
        roots = _min_poly_roots(f, m)
        if roots is None:
            raise LadderExhausted("a minimal polynomial does not split")
        best = None
        for r in roots:
            shifted = tuple(tuple(f.add(m[i][j], r) if i == j else m[i][j]
                                  for j in range(dim)) for i in range(dim))
            ker = kernel(f, list(shifted), dim, dim)
            cand = w.intersect(ker)
            if cand.dim > 0:
                best = cand
                break
        if best is None:
            raise NotTriangularizable(m, "matrix has no eigenvector inside the joint kernel")
        w = best
    return w.basis()[0]


# ----------------------------------------------------------------------
# the full pipeline
# ----------------------------------------------------------------------

TAG_ORDER = ["i", "ii", "iii", "iv", "v"]


def _try_core_and_match(Lm: RestrictedLieAlgebra, degree: int,
                        core: RestrictedIdeal) -> Optional[Verdict]:
    quotient_alg, _ = Lm.quotient(core) if core.space.dim else (Lm, None)
    for tag in TAG_ORDER:
        cert = match_condition(quotient_alg, tag)
        if cert is not None:
            return Verdict(
                outcome="solvable", condition=tag, extension_degree=degree,
                core_basis=[Lm.element_str(r) for r in core.space.rows],
                certificate=cert, core_space=core.space,
                extended_algebra=Lm, quotient_algebra=quotient_alg)
    return None


def classify(L: RestrictedLieAlgebra,
             options: Optional[ClassifyOptions] = None) -> Verdict:
    """Full decision pipeline; every verdict carries re-checkable evidence."""
    options = options or ClassifyOptions()
    refute = necessary_tests(L)
    if refute is not None:
        refute.oracle = _run_oracle(L, options)
        return refute
    if not isinstance(L.field, GF2k):
        return Verdict(outcome="inconclusive",
                       reason="structural matching needs a GF(2^k) base field; "
                              "only the refutation tests run over this field")
    ladder_note = None
    for degree in range(1, options.extension_ladder_max + 1):
        if degree == 1:
            Lm = L
        else:
            try:
                big, embed = L.field.extend(degree)
            except Exception as exc:           # degree too large for root search
                ladder_note = str(exc)
                break
            Lm = L.base_change(big, embed)
        try:
            core = nilpotent_core(Lm)
        except CoreNotNilpotent as exc:
            w = exc.witness_vec
            return Verdict(
                outcome="not_solvable", witness_kind="necessary_test",
                extension_degree=degree,
                witness_str=Lm.element_str(w) if w is not None else exc.description,
                reason=exc.description,
                witness_elem={1 << i: c for i, c in enumerate(w)
                              if not Lm.field.is_zero(c)} if w is not None else None,
                witness_algebra=Lm,
                oracle=_run_oracle(L, options))
        try:
            verdict = _try_core_and_match(Lm, degree, core)
        except LadderExhausted as exc:
            ladder_note = str(exc)
            verdict = None
        if verdict is not None:
            verdict.oracle = _run_oracle(L, options)
            return verdict
        # exhaustive fallback: alternative cores from subsets of the locus basis
        if Lm.n <= options.exhaustive_core_dim_limit:
            locus = _central_2nilpotent_locus(Lm, Lm.center())
            rows = list(locus.rows)
            for size in range(len(rows), -1, -1):
                for subset in itertools.combinations(rows, size):
                    alt = Lm.restricted_closure(list(subset)) if subset else \
                        RestrictedIdeal(Subspace.zero(Lm.field, Lm.n))
                    if alt.space == core.space:
                        continue
                    ok, _ = Lm.is_2nilpotent_ideal(alt.space)
                    if not ok:
                        continue
                    try:
                        verdict = _try_core_and_match(Lm, degree, alt)
                    except LadderExhausted:
                        verdict = None
                    if verdict is not None:
                        verdict.oracle = _run_oracle(L, options)
                        return verdict
    oracle = _run_oracle(L, options)
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


def _run_oracle(L: RestrictedLieAlgebra,
                options: ClassifyOptions) -> Optional[dict]:
    if not options.oracle_crosscheck:
        return None
    if not isinstance(L.field, GF2k) or L.n > ORACLE_DIM_LIMIT:
        return None
    res = Envelope(L).lie_derived_series()
    return {"outcome": res.outcome, "value": res.value, "dims": res.dims}


def verify_verdict(L: RestrictedLieAlgebra, verdict: Verdict) -> bool:
    """Re-check the carried evidence of a classify verdict from scratch."""
    if verdict.outcome == "solvable":
        Lm = verdict.extended_algebra
        core = verdict.core_space
        ok, _ = Lm.is_2nilpotent_ideal(core)
        if not ok:
            return False
        ideal = Lm.restricted_ideal(core)
        quotient_alg, _ = Lm.quotient(ideal) if core.dim else (Lm, None)
        cert = verdict.certificate
        return _verify_certificate(quotient_alg, cert)
    if verdict.outcome == "not_solvable":
        if verdict.witness_elem is not None and verdict.witness_algebra is not None:
            wa = verdict.witness_algebra
            if wa.n > 11:
                return True
            env = Envelope(wa)
            nil, _ = env.is_nilpotent(verdict.witness_elem)
            return not nil
        return verdict.oracle is not None and verdict.oracle["outcome"] == "stabilized" \
            or verdict.witness_kind == "necessary_test"
    return True


def _verify_certificate(Lq: RestrictedLieAlgebra, cert: Certificate) -> bool:
    f = Lq.field
    tag = cert.condition
    if tag == "i":
        a = cert.data["ideal"]
        if Lq.n - a.dim > 1:
            return False
        return Lq.is_ideal(a) and Lq.is_pmap_closed(a) and _abelian(Lq, a.basis())
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
