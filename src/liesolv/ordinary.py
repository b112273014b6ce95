"""Enveloping algebras of ordinary Lie algebras in characteristic 2.

The algebra itself is ``algebra.LieAlgebra``, the bracket-only core
that ``RestrictedLieAlgebra`` extends.  The structural conditions of
``corollary_classify`` reuse the bracket-only parts of the restricted
matchers in ``classify``.

U(L) has unbounded PBW exponents, so monomials are exponent tuples and
all computations are exact on finitely many elements of bounded degree
(no truncation: straightening never raises the total degree, and a
truncated tail would not be an ideal).

The solvability story is asymmetric: structural conditions certify
solvability, while any nonzero evaluation of one of the commutator
patterns refutes it outright, because U(L) is a domain and a nonzero
element of the ideal generated by [[a,b],[c,d],e] can never be
nilpotent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import LieAlgebra, RestrictedLieAlgebra
from .classify import LadderExhausted, abelian_ideals, class2_center, eigenvector_pair
from .fields import GF2k, FieldMismatch
from .linalg import Subspace, vec_is_zero


ORD_CONDITION_NAMES = {
    "i": "abelian",
    "ii": "abelian ideal of codimension 1",
    "iii": "nilpotent of class 2 with center of codimension 3",
    "iv": "two eigenvector generators over a toral action",
}


# ----------------------------------------------------------------------
# U(L): exponent-tuple monomials
# ----------------------------------------------------------------------

class UEnvelope:
    """The ordinary enveloping algebra; monomials are exponent tuples."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.n = algebra.n
        self._unit = (0,) * self.n
        self._cache: Dict[Tuple[Tuple[int, ...], int], dict] = {}

    def one(self) -> dict:
        return {self._unit: self.field.one}

    def gen(self, i: int) -> dict:
        m = list(self._unit)
        m[i] = 1
        return {tuple(m): self.field.one}

    def monomial(self, expts: Sequence[int]) -> dict:
        return {tuple(expts): self.field.one}

    def from_algebra_vec(self, v: Sequence) -> dict:
        out = {}
        for i, c in enumerate(v):
            if not self.field.is_zero(c):
                m = list(self._unit)
                m[i] = 1
                out[tuple(m)] = c
        return out

    def add(self, a: dict, b: dict) -> dict:
        f = self.field
        out = dict(a)
        for m, c in b.items():
            s = f.add(out.get(m, f.zero), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def _iadd_scaled(self, out: dict, a: dict, c) -> None:
        f = self.field
        for m, x in a.items():
            s = f.add(out.get(m, f.zero), f.mul(c, x))
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s

    def _mono_gen(self, m: Tuple[int, ...], g: int) -> dict:
        key = (m, g)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        f = self.field
        top = max((i for i, e in enumerate(m) if e), default=-1)
        if top <= g:
            out_m = list(m)
            out_m[g] += 1
            out = {tuple(out_m): f.one}
        else:
            low = list(m)
            low[top] -= 1
            low = tuple(low)
            out: dict = {}
            inner = self._mono_gen(low, g)
            for m2, c2 in inner.items():
                self._iadd_scaled(out, self._mono_gen(m2, top), c2)
            for j, c in enumerate(self.algebra._table[top][g]):
                if not f.is_zero(c):
                    self._iadd_scaled(out, self._mono_gen(low, j), c)
        self._cache[key] = out
        return out

    def _elem_gen(self, a: dict, g: int) -> dict:
        out: dict = {}
        for m, c in a.items():
            self._iadd_scaled(out, self._mono_gen(m, g), c)
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for mb, cb in b.items():
            term = a
            for g, e in enumerate(mb):
                for _ in range(e):
                    term = self._elem_gen(term, g)
            self._iadd_scaled(out, term, cb)
        return out

    def lie(self, a: dict, b: dict) -> dict:
        return self.add(self.mul(a, b), self.mul(b, a))

    def square(self, a: dict) -> dict:
        return self.mul(a, a)

    def element_str(self, a: dict) -> str:
        if not a:
            return "0"
        f = self.field
        names = self.algebra.names
        parts = []
        for m in sorted(a, key=lambda m: (sum(m), m)):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            mono = "*".join(factors) if factors else "1"
            c = a[m]
            parts.append(mono if c == f.one else f"{f.to_str(c)}·{mono}")
        return " + ".join(parts)


# ----------------------------------------------------------------------
# sparse elimination over dynamic monomial columns
# ----------------------------------------------------------------------

class SparseElim:
    """RREF accumulator keyed by arbitrary ordered column keys.

    Used for subspaces of U(L), whose ambient monomial set is unbounded;
    rows are sparse dicts and pivots are the smallest key by
    (total degree, tuple) order.  Augmentation tracks each inserted
    generator so members can be expressed in terms of them.
    """

    def __init__(self, field):
        self.field = field
        self.rows: List[Tuple[Tuple, dict, dict]] = []  # (pivot, row, aug)
        self.count = 0

    @staticmethod
    def _key(m):
        return (sum(m), m)

    def _reduce(self, vec: dict, aug: dict) -> Tuple[dict, dict]:
        # rows are sorted by pivot and each row's support starts at its
        # pivot, so one ordered pass fully reduces the vector
        f = self.field
        vec = dict(vec)
        aug = dict(aug)
        for piv, row, raug in self.rows:
            c = vec.get(piv)
            if c is not None and not f.is_zero(c):
                for m, x in row.items():
                    s = f.add(vec.get(m, f.zero), f.mul(c, x))
                    if f.is_zero(s):
                        vec.pop(m, None)
                    else:
                        vec[m] = s
                for t, x in raug.items():
                    s = f.add(aug.get(t, f.zero), f.mul(c, x))
                    if f.is_zero(s):
                        aug.pop(t, None)
                    else:
                        aug[t] = s
        return vec, aug

    def add(self, vec: dict, tag=None) -> bool:
        f = self.field
        tag = tag if tag is not None else self.count
        self.count += 1
        vec, aug = self._reduce(vec, {tag: f.one})
        if not vec:
            return False
        piv = min(vec, key=self._key)
        lead = vec[piv]
        if lead != f.one:
            inv = f.inv(lead)
            vec = {m: f.mul(inv, c) for m, c in vec.items()}
            aug = {t: f.mul(inv, c) for t, c in aug.items()}
        self.rows.append((piv, vec, aug))
        self.rows.sort(key=lambda r: self._key(r[0]))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def express(self, vec: dict) -> Optional[dict]:
        """Coefficients over the inserted tags, or None if not in the span."""
        res, aug = self._reduce(vec, {})
        if res:
            return None
        return aug  # vec + sum aug[t]*gen_t = 0, i.e. vec = sum aug[t]*gen_t


# ----------------------------------------------------------------------
# the ordinary-case classifier
# ----------------------------------------------------------------------

@dataclass
class OrdinaryVerdict:
    outcome: str                     # "solvable" | "not_solvable" | "inconclusive"
    condition: Optional[str] = None
    relations: List[str] = dc_field(default_factory=list)
    witness_pattern: Optional[str] = None
    witness_args: Optional[List[str]] = None
    witness_str: Optional[str] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "condition": self.condition,
            "condition_name": ORD_CONDITION_NAMES.get(self.condition),
            "relations": self.relations,
            "witness_pattern": self.witness_pattern,
            "witness_args": self.witness_args,
            "witness": self.witness_str,
            "reason": self.reason,
        }


def abelian_codim1_ideal(L: LieAlgebra) -> Optional[Subspace]:
    """An abelian ideal of codimension <= 1, or None.

    Exact over every field, F2(X,Y) included: ``classify.abelian_ideals``
    decides the hyperplane case by a rank test on L/Z, with no
    enumeration.
    """
    return next((a for _, a in abelian_ideals(L)), None)


def corollary_classify(L: LieAlgebra,
                       witness_budget: int = 20000) -> OrdinaryVerdict:
    """Structural certificate first, then a refuting witness hunt.

    Conditions (ii)-(iv) use the bracket-only parts of the restricted
    matchers in ``classify``.  Conditions (ii) and (iii) are decided
    over every field.  The search of (iv) enumerates the points y of L;
    over a field that is not GF(2^k) it raises LadderExhausted, which
    counts as not matched, and an inconclusive verdict names it in its
    reason.
    """
    if L.is_abelian():
        return OrdinaryVerdict("solvable", "i", ["all brackets vanish"])
    a = abelian_codim1_ideal(L)
    if a is not None and L.n - a.dim == 1:
        return OrdinaryVerdict("solvable", "ii",
                               [f"abelian ideal of dimension {a.dim} found"])
    if class2_center(L) is not None:
        return OrdinaryVerdict("solvable", "iii",
                               ["nilpotent of class 2",
                                "center has codimension 3"])
    skipped = []
    try:
        m = eigenvector_pair(L)
    except LadderExhausted as exc:
        skipped.append(f"condition (iv) was not decided: {exc}")
        m = None
    if m is not None:
        x1, x2, y, _ = m
        return OrdinaryVerdict("solvable", "iv",
                               ["[x1,y] = x1 and [x2,y] = x2 hold exactly",
                                "[x1,x2] is central",
                                f"x1 = {L.element_str(x1)}",
                                f"x2 = {L.element_str(x2)}",
                                f"y = {L.element_str(y)}"])
    w = witness_search(L, budget=witness_budget)
    if w is not None:
        return OrdinaryVerdict("not_solvable",
                               witness_pattern=w.pattern,
                               witness_args=w.args,
                               witness_str=w.element_str)
    return OrdinaryVerdict("inconclusive",
                           reason="; ".join(["no structural condition matched and the "
                                             "witness search was exhausted"] + skipped))


# ----------------------------------------------------------------------
# witness search in U(L)
# ----------------------------------------------------------------------

@dataclass
class Witness:
    pattern: str
    args: List[str]
    element: dict
    element_str: str


def _patterns(env: UEnvelope):
    lie, mul = env.lie, env.mul

    def p_pairing(a, b, c, d):
        # [[d c a, d], [d a, a], b]
        t1 = lie(mul(mul(d, c), a), d)
        t2 = lie(mul(d, a), a)
        return lie(lie(t1, t2), b)

    def p_step3(z, b, y, x):
        return lie(lie(lie(mul(mul(z, b), y), z), lie(x, mul(x, b))), y)

    def p_xi(y, x1, x2, x3):
        return lie(lie(lie(y, mul(x1, y)), lie(y, x2)), x3)

    def p_zeta(x1, y, h, x):
        return lie(lie(lie(mul(x1, y), y), lie(h, y)), x)

    def p_eta(x1, y, b, c):
        return lie(lie(lie(mul(x1, y), b), lie(y, x1)), c)

    return [("pairing", 4, p_pairing), ("triple-bracket", 4, p_step3),
            ("xi", 4, p_xi), ("zeta", 4, p_zeta), ("eta", 4, p_eta)]


def witness_search(L: LieAlgebra, depth: int = 3, total_degree: int = 6,
                   budget: int = 20000) -> Optional[Witness]:
    """First nonzero pattern evaluation, or None when the budget is spent.

    A nonzero value refutes Lie solvability of U(L): the patterns are
    elements of the ideal generated by [[a,b],[c,d],e], and U(L) has no
    zero divisors, so a nonzero element of that ideal is not nilpotent.
    """
    env = UEnvelope(L)
    groups: Dict[int, List[Tuple[Tuple[int, ...], str]]] = {}
    for m in _exponent_tuples(L.n, depth):
        d = sum(m)
        if 0 < d <= depth:
            name = "*".join(nm for nm, e in zip(L.names, m) for _ in range(e))
            groups.setdefault(d, []).append((m, name))
    for d in groups:
        groups[d].sort()
    used = 0
    patterns = _patterns(env)
    for total in range(4, total_degree + 1):
        for pname, arity, fn in patterns:
            for profile in _compositions(total, arity, sorted(groups)):
                for combo in itertools.product(*(groups[d] for d in profile)):
                    used += 1
                    if used > budget:
                        return None
                    args = [env.monomial(m) for m, _ in combo]
                    val = fn(*args)
                    if val:
                        return Witness(pname, [name for _, name in combo], val,
                                       env.element_str(val))
    return None


def _compositions(total: int, slots: int, degrees):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for d in degrees:
        if d <= total - (slots - 1):
            for rest in _compositions(total - d, slots - 1, degrees):
                yield (d,) + rest


def _exponent_tuples(n: int, max_total: int):
    def rec(prefix, remaining, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + [e], remaining - e, slots - 1)
    yield from rec([], max_total, n)


# ----------------------------------------------------------------------
# the universal square closure inside U(L)
# ----------------------------------------------------------------------

@dataclass
class TwoEnvelopeResult:
    stabilized: bool
    dims: List[int]
    algebra: Optional[object] = None     # RestrictedLieAlgebra when stabilized
    basis_elements: Optional[List[dict]] = None


def two_envelope(L: LieAlgebra, m_max: int = 6) -> TwoEnvelopeResult:
    """Accumulate spans of iterated squares of L inside U(L).

    When the total span stabilizes it carries a restricted structure
    (brackets and squares read off inside U(L)), which is returned for
    hand-off to the restricted classifier.
    """
    env = UEnvelope(L)
    elim = SparseElim(L.field)
    basis: List[dict] = []
    # each accepted element is tagged with its index in ``basis``, so the
    # rows of ``elim`` express members in terms of the basis
    for i in range(L.n):
        e = env.gen(i)
        if elim.add(e, tag=len(basis)):
            basis.append(e)
    dims = [elim.rank]
    for _ in range(m_max):
        new_elems = []
        for w in basis:
            new_elems.append(env.square(w))
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                new_elems.append(env.lie(basis[i], basis[j]))
        grew = False
        for e in new_elems:
            if e and elim.add(e, tag=len(basis)):
                basis.append(e)
                grew = True
        dims.append(elim.rank)
        if not grew:
            return TwoEnvelopeResult(True, dims,
                                     algebra=_read_off_restricted(L, env, basis, elim),
                                     basis_elements=basis)
    return TwoEnvelopeResult(False, dims)


def _read_off_restricted(L: LieAlgebra, env: UEnvelope, basis: List[dict],
                         elim: SparseElim):
    """The restricted algebra on ``basis``, a span closed under brackets
    and squares; ``elim`` holds that span with each row tagged by the
    indices of the basis elements it combines."""
    f = L.field
    d = len(basis)

    def coords(elem: dict) -> Tuple:
        aug = elim.express(elem)
        if aug is None:
            raise AssertionError("closure is not closed")
        out = [f.zero] * d
        for t, c in aug.items():
            out[t] = c
        return tuple(out)

    brackets = {}
    for i in range(d):
        for j in range(i + 1, d):
            w = env.lie(basis[i], basis[j])
            val = coords(w)
            if not vec_is_zero(f, val):
                brackets[(i, j)] = val
    pmap = [coords(env.square(basis[i])) for i in range(d)]
    names = [f"w{i+1}" for i in range(d)]
    return RestrictedLieAlgebra(f, names, brackets, pmap)


# ----------------------------------------------------------------------
# descent of abelian codimension-1 ideals
# ----------------------------------------------------------------------

@dataclass
class DescentReport:
    base_has: bool
    ext_has: bool
    implication_holds: bool


def descent_abelian_codim1(L: LieAlgebra, ext_degree: int = 2) -> DescentReport:
    """Decide abelian-codim-<=1 over the base field and an extension and
    check that the extension having one forces the base to have one.

    Both sides are decided exactly (see ``abelian_codim1_ideal``), so a
    report always rests on both checks.
    """
    if not isinstance(L.field, GF2k):
        raise FieldMismatch("descent test runs over GF(2^k)")
    base = abelian_codim1_ideal(L) is not None
    big, embed = L.field.extend(ext_degree)
    ext = abelian_codim1_ideal(L.base_change(big, embed)) is not None
    return DescentReport(base, ext, (not ext) or base)


def random_ordinary_instance(n: int, field, seed: int,
                             max_attempts: int = 4000,
                             metabelian: bool = False) -> Tuple[LieAlgebra, int]:
    """Rejection-sample an ordinary Lie algebra (optionally metabelian)."""
    rng = random.Random(f"ord:{seed}:{n}:{getattr(field, 'k', 0)}")
    for attempt in range(1, max_attempts + 1):
        brackets = {}
        for _ in range(rng.randrange(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
            vec = [field.zero] * n
            for _ in range(rng.randrange(1, 3)):
                vec[rng.randrange(n)] = field.random(rng)
            brackets[(i, j)] = tuple(vec)
        L = LieAlgebra(field, [f"b{i+1}" for i in range(n)], brackets)
        if not L.check_axioms().ok:
            continue
        if metabelian and not L.is_metabelian():
            continue
        return L, attempt
    raise RuntimeError(f"no valid ordinary instance within {max_attempts} attempts")
