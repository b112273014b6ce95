"""Exact coefficient fields of characteristic 2.

Two backends:

* ``GF2k`` -- the finite field GF(2^k), elements stored as ints whose
  binary digits are the coefficients of the polynomial residue (bit i is
  the coefficient of t^i).  The modulus is an explicit irreducible
  polynomial; it is never read from a hidden table so that serialized
  algebras are bit-reproducible.  For k <= TABLE_MAX_K (16) products,
  squares and inverses read log/antilog tables that each field builds
  on first use from the polynomial arithmetic, to the base of the least
  primitive element found by search: an irreducible modulus need not be
  primitive, so t itself may not generate the multiplicative group.
  Larger fields multiply polynomials directly.
* ``RatFunc2`` -- the rational function field F2(X, Y), elements stored
  as normalized fractions of sparse bivariate polynomials over GF(2).
  A polynomial is a frozenset of (degX, degY) exponent pairs; over GF(2)
  every unit is 1, so gcd-reduced fractions are canonical.

Both are immutable value types; field objects double as descriptors.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Callable, Tuple


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError, ZeroDivisionError):
    pass


class NoSquareRoot(FieldError):
    pass


class ReducibleModulus(FieldError):
    pass


# ----------------------------------------------------------------------
# Polynomials over GF(2) in one variable, encoded as ints.
# ----------------------------------------------------------------------

def poly_deg(p: int) -> int:
    """Degree of a GF(2)[t] polynomial; -1 for the zero polynomial."""
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less multiplication in GF(2)[t]."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_divmod(a: int, b: int) -> Tuple[int, int]:
    if b == 0:
        raise DivisionByZero("polynomial division by zero")
    db = poly_deg(b)
    q = 0
    while poly_deg(a) >= db:
        shift = poly_deg(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, b: int) -> int:
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


@lru_cache(maxsize=1024)
def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree <= deg(p)/2."""
    d = poly_deg(p)
    if d <= 0:
        return False
    if d == 1:
        return True
    if p & 1 == 0:  # divisible by t
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if poly_deg(q) >= 1 and poly_mod(p, q) == 0:
            return False
    return True


def find_irreducible(k: int) -> int:
    """Smallest irreducible polynomial of degree k over GF(2) (deterministic)."""
    for p in range(1 << k, 1 << (k + 1)):
        if is_irreducible(p):
            return p
    raise FieldError(f"no irreducible polynomial of degree {k}")  # unreachable


# ----------------------------------------------------------------------
# GF(2^k)
# ----------------------------------------------------------------------

# Fields up to this degree multiply through log/antilog tables; the
# tables of GF(2^16) take about 60 ms to build and 7 MB to hold.
TABLE_MAX_K = 16

class GF2k:
    """The field GF(2^k) with an explicit modulus polynomial.

    Elements are ints in [0, 2^k).  Arithmetic is exact; the field is
    perfect, so every element has a unique square root.
    """

    kind = "gf2k"

    def __init__(self, k: int, modulus: int | None = None):
        if k < 1:
            raise FieldError("extension degree must be >= 1")
        if modulus is None:
            modulus = find_irreducible(k)
        if poly_deg(modulus) != k:
            raise ReducibleModulus(f"modulus degree {poly_deg(modulus)} != k={k}")
        if not is_irreducible(modulus):
            raise ReducibleModulus(f"modulus {modulus:#x} is reducible over GF(2)")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self.zero = 0
        self.one = 1

    def __eq__(self, other):
        return isinstance(other, GF2k) and (self.k, self.modulus) == (other.k, other.modulus)

    def __hash__(self):
        return hash((self.kind, self.k, self.modulus))

    def __repr__(self):
        return f"GF2k(k={self.k}, modulus={self.modulus:#b})"

    def add(self, a: int, b: int) -> int:
        return a ^ b

    @cached_property
    def _tables(self) -> tuple:
        """(log, exp) with exp[i] = g^i for the least primitive element g.

        Candidates g = 1, 2, 3, ... are tried by walking their powers
        until one takes 2^k - 1 steps to return to 1.  exp holds the powers twice over, so exp[log a + log b] needs no
        reduction mod 2^k - 1, and then a run of zeros that log[0] points
        into, so a zero factor needs no test: log[0] + log[b] and
        2*log[0] both land in it.  Empty above TABLE_MAX_K.
        """
        if self.k > TABLE_MAX_K:
            return ()
        q1, mod, k = self.order - 1, self.modulus, self.k
        exp = [0] * (4 * q1 + 1)
        log = [2 * q1] * self.order
        for g in range(1, self.order):
            x = 1
            for i in range(q1):
                exp[i] = exp[i + q1] = x
                log[x] = i
                acc, c = 0, g               # x *= g, shifting x by t per bit of g
                while c:
                    if c & 1:
                        acc ^= x
                    x <<= 1
                    if x >> k:
                        x ^= mod
                    c >>= 1
                x = acc
                if x == 1:
                    break
            if i == q1 - 1:                 # g has order i + 1 = 2^k - 1
                return log, exp

    def mul(self, a: int, b: int) -> int:
        if self._tables:
            log, exp = self._tables
            return exp[log[a] + log[b]]
        return poly_mod(poly_mul(a, b), self.modulus)

    def square(self, a: int) -> int:
        if self._tables:
            log, exp = self._tables
            return exp[2 * log[a]]
        return poly_mod(poly_mul(a, a), self.modulus)

    def pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.square(a)
            e >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._tables:
            log, exp = self._tables
            return exp[self.order - 1 - log[a]]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def sqrt(self, a: int) -> int:
        # Frobenius is bijective: the root is a^(2^(k-1)).
        for _ in range(self.k - 1):
            a = self.square(a)
        return a

    def is_zero(self, a: int) -> bool:
        return a == 0

    def elements(self):
        return range(self.order)

    def random(self, rng) -> int:
        return rng.randrange(self.order)

    def to_str(self, a: int) -> str:
        return format(a, "x")

    def from_str(self, s: str) -> int:
        """The scalar written s in hex."""
        v = int(s, 16)
        if not 0 <= v < self.order:
            raise FieldError(f"scalar {s!r} out of range for GF(2^{self.k})")
        return v

    def extend(self, m: int, modulus: int | None = None) -> Tuple["GF2k", Callable[[int], int]]:
        """Degree-m extension together with the embedding GF(2^k) -> GF(2^(km)).

        The embedding sends the residue generator to a root of this
        field's modulus in the larger field (found by exhaustive search).
        km is capped at TABLE_MAX_K: the root search tries the elements
        of the larger field one by one, and above the cap each try
        multiplies polynomials without log tables.  The pair is built once
        per (field, m, modulus) and shared.
        """
        if m < 1:
            raise FieldError("extension multiplier must be >= 1")
        if self.k * m > TABLE_MAX_K:
            raise FieldError("extension degree too large for root search")
        return _extension(self.k, self.modulus, m, modulus)


@lru_cache(maxsize=64)
def _extension(k: int, base: int, m: int, modulus: int | None) -> Tuple[GF2k, Callable[[int], int]]:
    """``GF2k(k, base).extend(m, modulus)``, built once per key: the root
    search and the larger field's log tables are shared by every caller."""
    big = GF2k(k * m, modulus)
    if k == 1:
        return big, lambda a: a
    root = None
    for cand in range(big.order):
        # evaluate the base modulus at cand via Horner
        acc = 0
        for i in range(k, -1, -1):
            acc = big.mul(acc, cand)
            if (base >> i) & 1:
                acc ^= 1
        if acc == 0 and cand != 0:
            root = cand
            break
    if root is None:
        raise FieldError("modulus has no root in the extension (degree mismatch)")
    powers = [big.pow(root, i) for i in range(k)]

    def embed(a: int) -> int:
        out = 0
        for i in range(k):
            if (a >> i) & 1:
                out ^= powers[i]
        return out

    return big, embed


GF2 = GF2k(1, 0b11)


def gf(q: int) -> GF2k:
    """GF(q) for q a power of 2, with the smallest irreducible modulus."""
    k = q.bit_length() - 1
    if k < 1 or 1 << k != q:
        raise FieldError(f"{q} is not a power of 2 above 1")
    return GF2k(k)


# ----------------------------------------------------------------------
# Bivariate polynomials over GF(2): frozensets of (degX, degY).
# ----------------------------------------------------------------------

BPoly = frozenset

BP_ZERO: BPoly = frozenset()
BP_ONE: BPoly = frozenset([(0, 0)])
BP_X: BPoly = frozenset([(1, 0)])
BP_Y: BPoly = frozenset([(0, 1)])


def bp_add(p: BPoly, q: BPoly) -> BPoly:
    return p ^ q


def bp_mul(p: BPoly, q: BPoly) -> BPoly:
    if not p or not q:
        return BP_ZERO
    if p == BP_ONE:
        return q
    if q == BP_ONE:
        return p
    # multiply in Y-recursive form: one carry-less int multiply per
    # Y-degree pair instead of a dict update per monomial pair
    return _from_yrec(_yr_mul(_to_yrec(p), _to_yrec(q)))


def bp_square(p: BPoly) -> BPoly:
    # Frobenius: squaring doubles every exponent over GF(2).
    return frozenset((2 * a, 2 * b) for (a, b) in p)


def _to_yrec(p: BPoly) -> dict:
    """Recursive form: {degY: GF(2)[X] coefficient as int bitmask}."""
    out: dict[int, int] = {}
    for (a, b) in p:
        out[b] = out.get(b, 0) ^ (1 << a)
    return {b: c for b, c in out.items() if c}


def _from_yrec(d: dict) -> BPoly:
    mons = []
    for b, c in d.items():
        a = 0
        while c:
            if c & 1:
                mons.append((a, b))
            a += 1
            c >>= 1
    return frozenset(mons)


def _yr_deg(d: dict) -> int:
    return max(d) if d else -1


def _yr_mul(d: dict, e: dict) -> dict:
    out: dict[int, int] = {}
    for b1, c1 in d.items():
        for b2, c2 in e.items():
            b = b1 + b2
            out[b] = out.get(b, 0) ^ poly_mul(c1, c2)
    return {b: c for b, c in out.items() if c}


def _yr_add(d: dict, e: dict) -> dict:
    out = dict(d)
    for b, c in e.items():
        out[b] = out.get(b, 0) ^ c
    return {b: c for b, c in out.items() if c}


def _yr_scale(d: dict, c: int, yshift: int = 0) -> dict:
    if c == 0:
        return {}
    return {b + yshift: poly_mul(cc, c) for b, cc in d.items()}


def _yr_content(d: dict) -> int:
    g = 0
    for c in d.values():
        g = poly_gcd(g, c)
    return g


def _yr_divide_content(d: dict, g: int) -> dict:
    return {b: poly_divmod(c, g)[0] for b, c in d.items()}


def _yr_pseudo_rem(a: dict, b: dict) -> dict:
    """Content-reduced pseudo-remainder of a by b in (GF(2)[X])[Y].

    Dividing out the X-content after every step only changes the result
    by a content factor, which the primitive-PRS caller strips anyway;
    it keeps coefficient degrees from squaring at each step.
    """
    db = _yr_deg(b)
    lb = b[db]
    r = dict(a)
    while r and _yr_deg(r) >= db:
        dr = _yr_deg(r)
        lr = r[dr]
        # lb*r - lr*y^(dr-db)*b  (signs are trivial in characteristic 2)
        g = poly_gcd(lb, lr)
        r = _yr_add(_yr_scale(r, poly_divmod(lb, g)[0]),
                    _yr_scale(b, poly_divmod(lr, g)[0], dr - db))
        cr = _yr_content(r)
        if cr and cr != 1:
            r = _yr_divide_content(r, cr)
    return r


def bp_gcd(p: BPoly, q: BPoly) -> BPoly:
    """Gcd in GF(2)[X, Y] via a primitive pseudo-remainder sequence."""
    if not p:
        return q
    if not q:
        return p
    if p == BP_ONE or q == BP_ONE:
        return BP_ONE
    if p == q:
        return p
    a, b = _to_yrec(p), _to_yrec(q)
    if _yr_deg(a) < _yr_deg(b):
        a, b = b, a
    ca, cb = _yr_content(a), _yr_content(b)
    cont = poly_gcd(ca, cb)
    a = _yr_divide_content(a, ca)
    b = _yr_divide_content(b, cb)
    if _yr_deg(b) == 0:
        # b reduced to a unit: only the content gcd survives
        return _from_yrec({0: cont})
    while True:
        r = _yr_pseudo_rem(a, b)
        if not r:
            break
        cr = _yr_content(r)
        a, b = b, _yr_divide_content(r, cr)
        if _yr_deg(b) == 0:
            return _from_yrec({0: cont})
    return _from_yrec(_yr_scale(b, cont))


def bp_div_exact(p: BPoly, d: BPoly) -> BPoly:
    """Exact division p / d; raises if d does not divide p."""
    if not d:
        raise DivisionByZero("exact division by zero polynomial")
    if not p:
        return BP_ZERO
    a, b = _to_yrec(p), _to_yrec(d)
    db = _yr_deg(b)
    lb = b[db]
    q: dict[int, int] = {}
    while a:
        da = _yr_deg(a)
        if da < db:
            raise FieldError("inexact polynomial division")
        la = a[da]
        qc, rem = poly_divmod(la, lb)
        if rem:
            raise FieldError("inexact polynomial division")
        q[da - db] = q.get(da - db, 0) ^ qc
        a = _yr_add(a, _yr_scale(b, qc, da - db))
    return _from_yrec(q)


def _mono_str(m: Tuple[int, int]) -> str:
    a, b = m
    parts = []
    if a == 1:
        parts.append("X")
    elif a > 1:
        parts.append(f"X^{a}")
    if b == 1:
        parts.append("Y")
    elif b > 1:
        parts.append(f"Y^{b}")
    return "*".join(parts) if parts else "1"


def bp_str(p: BPoly) -> str:
    if not p:
        return "0"
    return "+".join(_mono_str(m) for m in sorted(p, reverse=True))


_MONO_RE = re.compile(r"^(?:(X)(?:\^(\d+))?)?\*?(?:(Y)(?:\^(\d+))?)?$")


def bp_parse(s: str) -> BPoly:
    s = s.replace(" ", "")
    if s == "0":
        return BP_ZERO
    mons = set()
    for term in s.split("+"):
        if term == "1":
            m = (0, 0)
        else:
            mt = _MONO_RE.match(term)
            if not mt or not (mt.group(1) or mt.group(3)):
                raise FieldError(f"bad monomial {term!r}")
            a = int(mt.group(2)) if mt.group(2) else (1 if mt.group(1) else 0)
            b = int(mt.group(4)) if mt.group(4) else (1 if mt.group(3) else 0)
            m = (a, b)
        if m in mons:
            raise FieldError(f"repeated monomial in {s!r}")
        mons.add(m)
    return frozenset(mons)


# ----------------------------------------------------------------------
# F2(X, Y)
# ----------------------------------------------------------------------

class RatFunc2:
    """The rational function field F2(X, Y).

    Elements are pairs (numerator, denominator) of bivariate polynomials
    with gcd 1; zero is (0, 1).  Over GF(2) the only unit is 1, so the
    reduced form is canonical and equality is plain tuple equality.
    """

    kind = "ratfunc2"

    def __init__(self):
        self.zero = (BP_ZERO, BP_ONE)
        self.one = (BP_ONE, BP_ONE)
        self.X = (BP_X, BP_ONE)
        self.Y = (BP_Y, BP_ONE)

    def __eq__(self, other):
        return isinstance(other, RatFunc2)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "RatFunc2()"

    @staticmethod
    def _normalize(num: BPoly, den: BPoly):
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return (BP_ZERO, BP_ONE)
        if den == BP_ONE:
            return (num, den)
        if num == den:
            return (BP_ONE, BP_ONE)
        g = bp_gcd(num, den)
        if g != BP_ONE:
            num = bp_div_exact(num, g)
            den = bp_div_exact(den, g)
        return (num, den)

    def add(self, a, b):
        (n1, d1), (n2, d2) = a, b
        if d1 == d2:
            return self._normalize(bp_add(n1, n2), d1)
        return self._normalize(bp_add(bp_mul(n1, d2), bp_mul(n2, d1)), bp_mul(d1, d2))

    def mul(self, a, b):
        (n1, d1), (n2, d2) = a, b
        return self._normalize(bp_mul(n1, n2), bp_mul(d1, d2))

    def square(self, a):
        n, d = a
        return (bp_square(n), bp_square(d))

    def inv(self, a):
        n, d = a
        if not n:
            raise DivisionByZero("inverse of zero")
        return (d, n)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.square(a)
            e >>= 1
        return out

    def sqrt(self, a):
        n, d = a
        if any(x & 1 or y & 1 for (x, y) in n) or any(x & 1 or y & 1 for (x, y) in d):
            raise NoSquareRoot(f"{self.to_str(a)} is not a square in F2(X,Y)")
        half = lambda p: frozenset((x // 2, y // 2) for (x, y) in p)
        return (half(n), half(d))

    def is_zero(self, a) -> bool:
        return not a[0]

    def random(self, rng):
        """Random small element: polynomials of X,Y-degree <= 2, nonzero denominator."""
        def rand_poly():
            return frozenset(
                (i, j) for i in range(3) for j in range(3) if rng.random() < 0.3
            )
        num = rand_poly()
        den = rand_poly() or BP_ONE
        return self._normalize(num, den)

    def to_str(self, a) -> str:
        n, d = a
        if d == BP_ONE:
            return bp_str(n)
        return f"({bp_str(n)})/({bp_str(d)})"

    def from_str(self, s: str):
        s = s.replace(" ", "")
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            ns, ds = s[1:-1].split(")/(", 1)
            return self._normalize(bp_parse(ns), bp_parse(ds))
        return self._normalize(bp_parse(s), BP_ONE)

    def extend(self) -> Tuple["RatFunc2", Callable]:
        """Adjoin square roots of X and Y.

        Returns a fresh copy of F2(X,Y) in new indeterminates together
        with the embedding X -> X^2, Y -> Y^2, under which the images of
        X and Y become squares.
        """
        big = RatFunc2()

        def embed(a):
            n, d = a
            return (bp_square(n), bp_square(d))

        return big, embed


RATFUNC2 = RatFunc2()


# ----------------------------------------------------------------------
# descriptor serialization (shared with the algebra spec file format)
# ----------------------------------------------------------------------

def field_to_json(f) -> dict:
    if isinstance(f, GF2k):
        bits = [(f.modulus >> i) & 1 for i in range(f.k + 1)]
        return {"kind": "gf2k", "k": f.k, "modulus": bits}
    if isinstance(f, RatFunc2):
        return {"kind": "ratfunc2"}
    raise FieldMismatch(f"unknown field {f!r}")


def field_from_json(d: dict):
    if not isinstance(d, dict):
        raise FieldError("a field must be a JSON object")
    kind = d.get("kind")
    if kind not in ("gf2k", "ratfunc2"):
        raise FieldError(f"unknown field kind {kind!r}")
    unknown = set(d) - ({"kind", "k", "modulus"} if kind == "gf2k" else {"kind"})
    if unknown:
        raise FieldError(f"unknown keys in a {kind} field: {sorted(unknown)}")
    if kind == "gf2k":
        bits = d.get("modulus")
        # type(...) is int: JSON true/false would pass isinstance(_, int)
        if not (type(d.get("k")) is int and isinstance(bits, list)):
            raise FieldError("a gf2k field needs an integer k and a modulus bit list")
        if len(bits) != d["k"] + 1:
            raise ReducibleModulus("modulus bit vector must have length k+1")
        modulus = 0
        for i, b in enumerate(bits):
            if type(b) is not int or b not in (0, 1):
                raise FieldError("modulus bits must be 0/1")
            modulus |= b << i
        return GF2k(d["k"], modulus)
    return RatFunc2()
