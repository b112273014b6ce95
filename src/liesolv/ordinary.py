"""Enveloping algebras of ordinary Lie algebras in characteristic 2.

The algebra itself is ``algebra.LieAlgebra``, the bracket-only core
that ``RestrictedLieAlgebra`` extends.  The structural conditions of
``corollary_classify`` reuse the bracket-only parts of the restricted
matchers in ``classify``, and ``random_ordinary_instance`` draws its
brackets with ``families.random_brackets``, as ``random_instance`` does.

U(L) has unbounded PBW exponents, so monomials are exponent tuples and
all computations are exact on finitely many elements of bounded degree
(no truncation: straightening never raises the total degree, and a
truncated tail would not be an ideal).  An element is a sparse dict
{monomial: scalar}, summed by ``linalg.addmul`` and printed by
``linalg.terms_str``, as the elements of u(L) are.

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

from .algebra import LieAlgebra
from .classify import abelian_ideal, class2_center, eigenvector_pair
from .families import random_brackets
from .fields import GF2k, FieldMismatch
from .linalg import addmul, terms_str


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
        self._gens = [tuple(int(j == i) for j in range(self.n)) for i in range(self.n)]
        self._cache: Dict[Tuple[Tuple[int, ...], int], dict] = {}

    def one(self) -> dict:
        return {self._unit: self.field.one}

    def gen(self, i: int) -> dict:
        return {self._gens[i]: self.field.one}

    def monomial(self, expts: Sequence[int]) -> dict:
        return {tuple(expts): self.field.one}

    def from_algebra_vec(self, v: Sequence) -> dict:
        return {m: c for m, c in zip(self._gens, v) if not self.field.is_zero(c)}

    def add(self, a: dict, b: dict) -> dict:
        return addmul(self.field, dict(a), b)

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
                addmul(f, out, self._mono_gen(m2, top), c2)
            for j, c in enumerate(self.algebra._table[top][g]):
                if not f.is_zero(c):
                    addmul(f, out, self._mono_gen(low, j), c)
        self._cache[key] = out
        return out

    def _elem_gen(self, a: dict, g: int) -> dict:
        out: dict = {}
        for m, c in a.items():
            addmul(self.field, out, self._mono_gen(m, g), c)
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for mb, cb in b.items():
            term = a
            for g, e in enumerate(mb):
                for _ in range(e):
                    term = self._elem_gen(term, g)
            addmul(self.field, out, term, cb)
        return out

    def lie(self, a: dict, b: dict) -> dict:
        return self.add(self.mul(a, b), self.mul(b, a))

    def element_str(self, a: dict) -> str:
        names = self.algebra.names

        def mono(m):
            return "*".join(names[i] if e == 1 else f"{names[i]}^{e}"
                            for i, e in enumerate(m) if e) if any(m) else "1"

        return terms_str(self.field, ((mono(m), a[m])
                                      for m in sorted(a, key=lambda m: (sum(m), m))))


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


def corollary_classify(L: LieAlgebra,
                       witness_budget: int = 20000) -> OrdinaryVerdict:
    """Structural certificate first, then a refuting witness hunt.

    Conditions (ii)-(iv) use the bracket-only parts of the restricted
    matchers in ``classify`` and are decided over every field, F2(X,Y)
    included: (ii) by rank conditions (``abelian_ideal``), (iii) by the
    nilpotency class and dim Z, and (iv) by the linear system for a
    toral y (``eigenvector_pair``).
    """
    found = abelian_ideal(L)
    if found is not None:
        if found[0] == "abelian":
            return OrdinaryVerdict("solvable", "i", ["all brackets vanish"])
        return OrdinaryVerdict("solvable", "ii",
                               [f"abelian ideal of dimension {found[1].dim} found"])
    if class2_center(L) is not None:
        return OrdinaryVerdict("solvable", "iii",
                               ["nilpotent of class 2",
                                "center has codimension 3"])
    m = eigenvector_pair(L)
    if m is not None:
        x1, x2, y = m
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
                           reason="no structural condition matched and the "
                                  "witness search was exhausted")


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
    """(name, arity, fn) of each witness pattern, fn evaluating it in U(L).

    The factors of a pattern that read only some of its arguments are
    made once per those arguments and kept for the whole search, so an
    argument tuple that shares them with an earlier one, a prefix first
    of all, costs only the brackets that read the rest.
    """
    lie, mul = env.lie, env.mul

    def once(fn):
        cache = {}

        def call(*args):
            key = tuple(tuple(a.items()) for a in args)
            out = cache.get(key)
            if out is None:
                out = cache[key] = fn(*args)
            return out
        return call

    dca_d = once(lambda d, c, a: lie(mul(mul(d, c), a), d))
    da_a = once(lambda d, a: lie(mul(d, a), a))
    pairing = once(lambda a, c, d: lie(dca_d(d, c, a), da_a(d, a)))
    zby_z = once(lambda z, b, y: lie(mul(mul(z, b), y), z))
    x_xb = once(lambda x, b: lie(x, mul(x, b)))
    y_x1y = once(lambda y, x1: lie(y, mul(x1, y)))
    xi = once(lambda y, x1, x2: lie(y_x1y(y, x1), lie(y, x2)))
    x1y_y = once(lambda x1, y: lie(mul(x1, y), y))
    zeta = once(lambda x1, y, h: lie(x1y_y(x1, y), lie(h, y)))
    eta = once(lambda x1, y, b: lie(lie(mul(x1, y), b), lie(y, x1)))

    def p_pairing(a, b, c, d):
        # [[d c a, d], [d a, a], b]
        return lie(pairing(a, c, d), b)

    def p_step3(z, b, y, x):
        return lie(lie(zby_z(z, b, y), x_xb(x, b)), y)

    def p_xi(y, x1, x2, x3):
        return lie(xi(y, x1, x2), x3)

    def p_zeta(x1, y, h, x):
        return lie(zeta(x1, y, h), x)

    def p_eta(x1, y, b, c):
        return lie(eta(x1, y, b), c)

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
    # (exponent tuple, name) of each monomial of degree 1..depth, by exponent tuple
    groups = {d: sorted((tuple(idx.count(i) for i in range(L.n)),
                         "*".join(L.names[i] for i in idx))
                        for idx in itertools.combinations_with_replacement(range(L.n), d))
              for d in range(1, depth + 1)}
    used = 0
    patterns = _patterns(env)
    for total in range(4, total_degree + 1):
        for pname, arity, fn in patterns:
            for profile in itertools.product(groups, repeat=arity):
                if sum(profile) != total:
                    continue
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


# ----------------------------------------------------------------------
# the universal square closure inside U(L)
# ----------------------------------------------------------------------

@dataclass
class TwoEnvelopeResult:
    stabilized: bool
    dims: List[int]


def two_envelope(L: LieAlgebra, m_max: int = 6) -> TwoEnvelopeResult:
    """The dimensions of the spans of iterated squares of L inside U(L).

    V_0 is L and V_(t+1) adds the squares and brackets of a basis of V_t.
    In characteristic 2, [x^2, y] = [x, [x, y]], so every bracket falls
    back into L and V_t = L + span{b_i^(2^s) : 1 <= s <= t}, of dimension
    (t+1)n: the powers b_i^(2^s) are distinct PBW monomials of degree
    2^s.  So the spans stabilize (at 0) only when n = 0.
    """
    if m_max > 0 and L.n == 0:
        return TwoEnvelopeResult(True, [0, 0])
    return TwoEnvelopeResult(False, [(t + 1) * L.n for t in range(max(m_max, 0) + 1)])


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

    Both sides are decided exactly (see ``classify.abelian_ideal``), so
    a report always rests on both checks.
    """
    if not isinstance(L.field, GF2k):
        raise FieldMismatch("descent test runs over GF(2^k)")
    base = abelian_ideal(L) is not None
    big, embed = L.field.extend(ext_degree)
    ext = abelian_ideal(L.base_change(big, embed)) is not None
    return DescentReport(base, ext, (not ext) or base)


def random_ordinary_instance(n: int, field, seed: int,
                             max_attempts: int = 4000,
                             metabelian: bool = False) -> Tuple[LieAlgebra, int]:
    """Rejection-sample an ordinary Lie algebra (optionally metabelian)."""
    rng = random.Random(f"ord:{seed}:{n}:{getattr(field, 'k', 0)}")
    for attempt in range(1, max_attempts + 1):
        L = LieAlgebra(field, [f"b{i+1}" for i in range(n)], random_brackets(rng, n, field))
        if not L.check_axioms().ok:
            continue
        if metabelian and not L.is_metabelian():
            continue
        return L, attempt
    raise RuntimeError(f"no valid ordinary instance within {max_attempts} attempts")
