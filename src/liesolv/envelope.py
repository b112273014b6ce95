"""The restricted enveloping algebra u(L) as an exact 2^n-dimensional algebra.

Since the characteristic is 2, every PBW exponent is 0 or 1, so a PBW
monomial is a bitmask over the basis indices of L and u(L) coordinates
are indexed by the masks themselves.  Elements are sparse dicts
{mask: scalar}; over GF(2) an element collapses to a single int whose
bits are the monomials present, which is what makes derived-series runs
in dimension 2^10 affordable.

Products are straightened one right generator at a time:

    b_i b_j = b_j b_i + [b_i, b_j]   (i > j)
    b_i b_i = b_i^[2]

with the (monomial, generator) products memoized.

The oracle's first derived step uses the associative identity
[a, bc] = [ab, c] + [ca, b]: it makes D_1 = [u(L), u(L)] the span of the
brackets [m, x_g] of the 2^n monomials with the n generators, n*2^n
brackets instead of 2^n(2^n-1)/2.  ``Envelope._d1_pairs`` is the one
place that encodes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import RestrictedLieAlgebra
from .fields import GF2k
from .linalg import Eliminator, Quotient, Subspace


class AlgebraMismatch(Exception):
    pass


class PreconditionFailed(Exception):
    pass


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class SeriesResult:
    """Outcome of a Lie derived series run inside u(L)."""
    dims: List[int]
    outcome: str            # "reached_zero" | "stabilized" | "budget_exceeded"
    value: int              # derived length, or the stable dimension
    terms: Optional[List[Subspace]] = None

    @property
    def solvable(self) -> bool:
        return self.outcome == "reached_zero"


@dataclass
class SZResult:
    """Nilpotency measurement of the ideal generated by [[u,u],[u,u],u]."""
    nilpotent: bool
    index: Optional[int]            # least m with ideal^m = 0
    ideal_dim: int
    witness: Optional[dict] = None  # stable element when not nilpotent


class Envelope:
    """u(L) with exact PBW arithmetic and solvability measurements."""

    def __init__(self, algebra: RestrictedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.n = algebra.n
        self.dim = 1 << algebra.n
        self._cache: Dict[Tuple[int, int], dict] = {}
        self.gf2_lane = isinstance(self.field, GF2k) and self.field.k == 1
        self._mask_cache: Dict[Tuple[int, int], int] = {}

    # -- element constructors -----------------------------------------

    def zero(self) -> dict:
        return {}

    def one(self) -> dict:
        return {0: self.field.one}

    def gen(self, i: int) -> dict:
        return {1 << i: self.field.one}

    def monomial(self, mask: int) -> dict:
        return {mask: self.field.one}

    def from_algebra_vec(self, v: Sequence) -> dict:
        f = self.field
        return {1 << i: c for i, c in enumerate(v) if not f.is_zero(c)}

    # -- sparse dict arithmetic ----------------------------------------

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

    def scale(self, c, a: dict) -> dict:
        f = self.field
        if f.is_zero(c):
            return {}
        return {m: f.mul(c, x) for m, x in a.items()}

    def _iadd_scaled(self, out: dict, a: dict, c) -> None:
        f = self.field
        for m, x in a.items():
            s = f.add(out.get(m, f.zero), f.mul(c, x))
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s

    def is_zero(self, a: dict) -> bool:
        return not a

    def _mono_gen(self, mask: int, g: int) -> dict:
        """Normal form of (monomial) * b_g, memoized."""
        key = (mask, g)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        f = self.field
        top = mask.bit_length() - 1
        if mask == 0 or g > top:
            out = {mask | (1 << g): f.one}
        elif g == top:
            low = mask ^ (1 << top)
            out = {}
            for j, c in enumerate(self.algebra.pmap[top]):
                if not f.is_zero(c):
                    self._iadd_scaled(out, self._mono_gen(low, j), c)
        else:
            low = mask ^ (1 << top)
            out = {}
            inner = self._mono_gen(low, g)
            for m2, c2 in inner.items():
                self._iadd_scaled(out, self._mono_gen(m2, top), c2)
            row = self.algebra._table[top][g]
            for j, c in enumerate(row):
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
        """PBW normal form of the product a*b."""
        out: dict = {}
        for mb, cb in b.items():
            term = a
            for g in _bits(mb):
                term = self._elem_gen(term, g)
            self._iadd_scaled(out, term, cb)
        return out

    def lie(self, a: dict, b: dict) -> dict:
        return self.add(self.mul(a, b), self.mul(b, a))

    def power(self, a: dict, e: int) -> dict:
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def is_nilpotent(self, a: dict) -> Tuple[bool, Optional[int]]:
        """Square repeatedly; n+1 squarings decide nilpotency in dim 2^n."""
        if not a:
            return True, 0
        cur = a
        for m in range(1, self.n + 2):
            cur = self.mul(cur, cur)
            if not cur:
                return True, m
        return False, None

    # -- GF(2) mask lane -------------------------------------------------

    def _mono_gen_mask(self, mask: int, g: int) -> int:
        key = (mask, g)
        hit = self._mask_cache.get(key)
        if hit is not None:
            return hit
        top = mask.bit_length() - 1
        if mask == 0 or g > top:
            out = 1 << (mask | (1 << g))
        elif g == top:
            low = mask ^ (1 << top)
            out = 0
            for j, c in enumerate(self.algebra.pmap[top]):
                if c:
                    out ^= self._mono_gen_mask(low, j)
        else:
            low = mask ^ (1 << top)
            out = 0
            inner = self._mono_gen_mask(low, g)
            for m2 in _bits(inner):
                out ^= self._mono_gen_mask(m2, top)
            for j, c in enumerate(self.algebra._table[top][g]):
                if c:
                    out ^= self._mono_gen_mask(low, j)
        self._mask_cache[key] = out
        return out

    def _elem_gen_mask(self, a: int, g: int) -> int:
        out = 0
        for m in _bits(a):
            out ^= self._mono_gen_mask(m, g)
        return out

    def mul_mask(self, a: int, b: int) -> int:
        out = 0
        for mb in _bits(b):
            term = a
            for g in _bits(mb):
                term = self._elem_gen_mask(term, g)
            out ^= term
        return out

    def lie_mask(self, a: int, b: int) -> int:
        return self.mul_mask(a, b) ^ self.mul_mask(b, a)

    def to_mask(self, a: dict) -> int:
        out = 0
        for m in a:
            out |= 1 << m
        return out

    def from_mask(self, mask: int) -> dict:
        one = self.field.one
        return {m: one for m in _bits(mask)}

    # -- packed coordinate rows (any GF(2^k)) ----------------------------

    def pack_elem(self, a: dict) -> List[int]:
        planes = [0] * self.field.k
        for m, c in a.items():
            i = 0
            while c:
                if c & 1:
                    planes[i] |= 1 << m
                c >>= 1
                i += 1
        return planes

    def unpack_planes(self, planes: Sequence[int]) -> dict:
        out: dict = {}
        for i, plane in enumerate(planes):
            for m in _bits(plane):
                out[m] = out.get(m, 0) | (1 << i)
        return out

    def elem_from_row(self, row: Sequence) -> dict:
        f = self.field
        return {m: c for m, c in enumerate(row) if not f.is_zero(c)}

    def subspace_from_elems(self, elems: Sequence[dict]) -> Subspace:
        elim = Eliminator(self.field, self.dim)
        if isinstance(self.field, GF2k):
            for e in elems:
                elim.add_planes(self.pack_elem(e))
        else:
            for e in elems:
                elim.add_vector(self.elem_to_vec(e))
        return elim.to_subspace()

    def elem_to_vec(self, a: dict) -> Tuple:
        f = self.field
        out = [f.zero] * self.dim
        for m, c in a.items():
            out[m] = c
        return tuple(out)

    # -- derived series oracle --------------------------------------------

    def _basis_elems(self, sub: Optional[Subspace]) -> List[dict]:
        if sub is None:
            return [self.monomial(m) for m in range(self.dim)]
        if sub.ambient != self.dim or sub.field != self.field:
            raise AlgebraMismatch("subspace does not live in this envelope")
        return [self.elem_from_row(r) for r in sub.rows]

    def lie_derived_series(self, sub: Optional[Subspace] = None,
                           max_steps: int = 64,
                           keep_terms: bool = False) -> SeriesResult:
        """D_0 = sub (default u(L)), D_{k+1} = span[D_k, D_k], until 0 or stable.

        When D_0 is all of u(L), D_1 is spanned by the n*2^n brackets
        [m, x_g] of monomials with generators (see ``_d1_pairs``), not
        by all 2^n(2^n-1)/2 monomial pairs.  Later steps bracket every
        pair of basis elements of D_k.
        """
        if self.gf2_lane:
            return self._derived_series_masks(sub, max_steps, keep_terms)
        elems = self._basis_elems(sub)
        dims = [len(elems)]
        terms: Optional[List[Subspace]] = [] if keep_terms else None
        if keep_terms:
            terms.append(self.subspace_from_elems(elems) if sub is None else sub)
        prev: Optional[Subspace] = sub
        packed = isinstance(self.field, GF2k)
        for step in range(max_steps):
            elim = Eliminator(self.field, self.dim)
            pairs = (self._d1_pairs(elems) if step == 0 and sub is None
                     else combinations(elems, 2))
            for a, b in pairs:
                w = self.lie(a, b)
                if w:
                    if packed:
                        elim.add_planes(self.pack_elem(w))
                    else:
                        elim.add_vector(self.elem_to_vec(w))
            cur = elim.to_subspace()
            dims.append(cur.dim)
            if keep_terms:
                terms.append(cur)
            if cur.dim == 0:
                return SeriesResult(dims, "reached_zero", len(dims) - 1, terms)
            if prev is not None and cur == prev:
                return SeriesResult(dims, "stabilized", cur.dim, terms)
            prev = cur
            elems = [self.elem_from_row(r) for r in cur.rows]
        return SeriesResult(dims, "budget_exceeded", dims[-1], terms)

    def _derived_series_masks(self, sub, max_steps, keep_terms) -> SeriesResult:
        if sub is None:
            masks = [1 << m for m in range(self.dim)]
        else:
            if sub.ambient != self.dim or sub.field != self.field:
                raise AlgebraMismatch("subspace does not live in this envelope")
            masks = [self.to_mask(self.elem_from_row(r)) for r in sub.rows]
        dims = [len(masks)]
        terms: Optional[List[Subspace]] = [] if keep_terms else None
        if keep_terms:
            elim0 = Eliminator(self.field, self.dim)
            for m in masks:
                elim0.add_mask(m)
            terms.append(elim0.to_subspace())
        prev_masks = None
        for step in range(max_steps):
            elim = Eliminator(self.field, self.dim)
            pairs = (self._d1_pairs(masks) if step == 0 and sub is None
                     else combinations(masks, 2))
            for a, b in pairs:
                w = self.lie_mask(a, b)
                if w:
                    elim.add_mask(w)
            cur = elim.basis_masks()
            dims.append(len(cur))
            if keep_terms:
                terms.append(elim.to_subspace())
            if not cur:
                return SeriesResult(dims, "reached_zero", len(dims) - 1, terms)
            if prev_masks is not None and cur == prev_masks:
                return SeriesResult(dims, "stabilized", len(cur), terms)
            prev_masks = cur
            masks = cur
        return SeriesResult(dims, "budget_exceeded", dims[-1], terms)

    # -- Lie-solvability witness machinery ---------------------------------

    def _span_add_elem(self, elim: Eliminator, e) -> bool:
        if self.gf2_lane:
            return elim.add_mask(e)
        return elim.add_planes(self.pack_elem(e))

    def _elim_basis(self, elim: Eliminator):
        if self.gf2_lane:
            return elim.basis_masks()
        return [self.unpack_planes(r) for r in elim.basis_planes()]

    def _gens_of(self, mons):
        """The generators x_g among ``mons``, the 2^n monomials indexed by mask."""
        return [mons[1 << g] for g in range(self.n)]

    def _d1_pairs(self, mons):
        """Pairs whose brackets span D_1 = [u(L), u(L)].

        ``mons`` lists the 2^n monomials in either lane's form, indexed
        by mask.  In an associative algebra [a, bc] = [ab, c] + [ca, b],
        so by induction on the degree of the right factor every [a, m]
        lies in the span of the [a', x_g], and D_1 is spanned by the
        n*2^n brackets [m, x_g] of monomials m with generators x_g.
        Pairs are yielded lazily.
        """
        return product(mons, self._gens_of(mons))

    def sz_ideal(self) -> List[dict]:
        """Basis of the two-sided ideal generated by all [[a,b],[c,d],e].

        D_1 comes from ``_d1_pairs``.  The ideal is generated by the
        [u, x_g] for u in a basis of D_2 and generators x_g, because
        [u, m1*m2] = [u, m1]*m2 + m1*[u, m2] puts every [u, m] in the
        ideal they generate; the saturation below closes it under
        left and right multiplication by generators.
        """
        if self.gf2_lane:
            mons = [1 << m for m in range(self.dim)]
            lie, mul = self.lie_mask, self.mul_mask
        else:
            mons = [self.monomial(m) for m in range(self.dim)]
            lie, mul = self.lie, self.mul
        nonzero = (lambda e: e != 0) if self.gf2_lane else (lambda e: bool(e))
        gens = self._gens_of(mons)

        d1 = Eliminator(self.field, self.dim)
        for a, b in self._d1_pairs(mons):
            w = lie(a, b)
            if nonzero(w):
                self._span_add_elem(d1, w)
        b1 = self._elim_basis(d1)
        d2 = Eliminator(self.field, self.dim)
        for a, b in combinations(b1, 2):
            w = lie(a, b)
            if nonzero(w):
                self._span_add_elem(d2, w)
        b2 = self._elim_basis(d2)
        gen = Eliminator(self.field, self.dim)
        for u in b2:
            for g in gens:
                w = lie(u, g)
                if nonzero(w):
                    self._span_add_elem(gen, w)
        # saturate to a two-sided ideal with one generator multiplication at a time
        queue = list(self._elim_basis(gen))
        while queue:
            v = queue.pop()
            for g in gens:
                for w in (mul(v, g), mul(g, v)):
                    if nonzero(w) and self._span_add_elem(gen, w):
                        queue.append(w)
        basis = self._elim_basis(gen)
        if self.gf2_lane:
            return [self.from_mask(m) for m in basis]
        return basis

    def sz_nilpotency(self) -> SZResult:
        """Associative nilpotency index of the ideal from sz_ideal."""
        ideal = self.sz_ideal()
        if not ideal:
            return SZResult(True, 1, 0)
        if self.gf2_lane:
            base = [self.to_mask(e) for e in ideal]
            mul = self.mul_mask
            nonzero = lambda e: e != 0
        else:
            base = ideal
            mul = self.mul
            nonzero = lambda e: bool(e)
        cur = base
        power = 1
        while True:
            elim = Eliminator(self.field, self.dim)
            any_nonzero = False
            for u in cur:
                for v in base:
                    w = mul(u, v)
                    if nonzero(w):
                        any_nonzero = True
                        self._span_add_elem(elim, w)
            if not any_nonzero:
                return SZResult(True, power + 1, len(base))
            nxt = self._elim_basis(elim)
            if len(nxt) == len(cur):
                same = all(a == b for a, b in zip(nxt, cur))
                if same:
                    witness = self._pick_non_nilpotent(nxt)
                    return SZResult(False, None, len(base), witness)
            cur = nxt
            power += 1

    def _pick_non_nilpotent(self, basis) -> dict:
        elems = [self.from_mask(b) if self.gf2_lane else b for b in basis]
        for e in elems:
            ok, _ = self.is_nilpotent(e)
            if not ok:
                return e
        return elems[0]

    # -- structural checks from the solvable side ---------------------------

    def element_str(self, a: dict) -> str:
        if not a:
            return "0"
        f = self.field
        names = self.algebra.names
        parts = []
        for m in sorted(a, key=lambda m: (bin(m).count("1"), m)):
            mono = "*".join(names[i] for i in _bits(m)) if m else "1"
            c = a[m]
            if c == f.one:
                parts.append(mono)
            else:
                parts.append(f"{f.to_str(c)}·{mono}")
        return " + ".join(parts)


def envelope_augmentation_nilpotent(L: RestrictedLieAlgebra) -> Tuple[bool, Optional[int]]:
    """Oracle: is the augmentation ideal of u(L) associative nilpotent?

    Used to cross-check the chain criterion for 2-nilpotency of ideals.
    """
    env = Envelope(L)
    if env.gf2_lane:
        base = [1 << m for m in range(1, env.dim)]
        mul = env.mul_mask
    else:
        base = [env.monomial(m) for m in range(1, env.dim)]
        mul = env.mul
    cur = base
    power = 1
    prev_dim = None
    while True:
        products = []
        for u in cur:
            for v in base:
                w = mul(u, v)
                if w:
                    products.append(w)
        if not products:
            return True, power + 1
        elim = Eliminator(env.field, env.dim)
        for w in products:
            env._span_add_elem(elim, w)
        dim = elim.rank
        if prev_dim is not None and dim == prev_dim:
            return False, None
        prev_dim = dim
        cur = env._elim_basis(elim)
        power += 1


def reducedness_check(L: RestrictedLieAlgebra, samples: int = 40, seed: int = 0) -> bool:
    """True iff u(L) is reduced, for abelian L over a perfect field.

    The structural criterion is that the square map has trivial eventual
    kernel (nil part of the Fitting decomposition).  When the envelope
    is small, random elements are additionally squared to zero-hunt for
    a nilpotent that would falsify a positive verdict.
    """
    _, nil = L.torus_decomposition()
    reduced = nil.dim == 0
    if reduced and L.n <= 8 and getattr(L.field, "order", 1 << 30) <= 4:
        import random
        rng = random.Random(seed)
        env = Envelope(L)
        for _ in range(samples):
            e = {m: c for m in rng.sample(range(env.dim), min(4, env.dim))
                 if (c := L.field.random(rng)) and not L.field.is_zero(c)}
            ok, _ = env.is_nilpotent(e)
            if ok and e:
                raise AssertionError("structural reducedness contradicted by a nilpotent sample")
    return reduced


@dataclass
class CertificateReport:
    checks: List[Tuple[str, bool]]
    detail: dict

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)

    def __str__(self):
        lines = [f"{'PASS' if flag else 'FAIL'}  {name}" for name, flag in self.checks]
        return "\n".join(lines)


def _monomial_subspace(env: Envelope, masks) -> Subspace:
    return env.subspace_from_elems([env.monomial(m) for m in masks])


def _bracket_span_subspace(env: Envelope, pairs) -> Subspace:
    elim = Eliminator(env.field, env.dim)
    for u, v in pairs:
        w = env.lie(u, v)
        if w:
            env._span_add_elem(elim, env.to_mask(w) if env.gf2_lane else w)
    return elim.to_subspace()


def cond_ii_certificate(L: RestrictedLieAlgebra) -> CertificateReport:
    """Verify the explicit solvable filtration of u(L) for class-2 L with
    dim L/Z(L) <= 3.

    The witnesses are the subspaces spanned over u(Z) by 1, the central
    complement generators x_i, and their pair products x_i x_j; every
    stated invariance and derived-series containment is checked
    exactly.
    """
    cls = L.nilpotency_class()
    if cls is None or cls > 2:
        raise PreconditionFailed("algebra is not nilpotent of class <= 2")
    z = L.center()
    r = L.n - z.dim
    if r > 3:
        raise PreconditionFailed("dim L/Z(L) exceeds 3")
    quot = Quotient(L.full_space(), z)
    xs = list(quot.lifted)
    new_basis = xs + list(z.basis())
    names = [f"x{i+1}" for i in range(r)] + [f"z{i+1}" for i in range(z.dim)]
    M = L.rebase(new_basis, names=names)
    env = Envelope(M)
    zdim = z.dim
    zmasks = [m << r for m in range(1 << zdim)]
    x1, x2, x3 = (1 << i if i < r else 0 for i in range(3))
    w_h = [w for w in (x1, x2, x3, x1 | x2, x1 | x3, x2 | x3, 0)
           if w or w == 0]
    # drop duplicate masks caused by missing generators
    w_h = sorted(set(w_h))
    w_k = sorted({x1, x2, x3, 0})
    w_m = sorted({x1 | x2, x1 | x3, x2 | x3} - {x1, x2, x3, 0})

    def mask_family(ws):
        return [w | mz for w in ws for mz in zmasks]

    h_masks = mask_family(w_h)
    k_masks = mask_family(w_k)
    m_masks = mask_family(w_m)
    h_space = _monomial_subspace(env, h_masks)
    k_space = _monomial_subspace(env, k_masks)
    h_elems = [env.monomial(m) for m in h_masks]
    k_elems = [env.monomial(m) for m in k_masks]
    m_elems = [env.monomial(m) for m in m_masks]
    all_mons = [env.monomial(m) for m in range(env.dim)]

    checks = []
    br_hg = _bracket_span_subspace(env, product(h_elems, all_mons))
    checks.append(("bracket of h with u(L) stays in h", h_space.contains(br_hg)))
    br_gg = _bracket_span_subspace(env, env._d1_pairs(all_mons))
    checks.append(("u(L)/h is abelian", h_space.contains(br_gg)))
    br_kh = _bracket_span_subspace(env, product(k_elems, h_elems))
    checks.append(("bracket of k with h stays in k", k_space.contains(br_kh)))
    k_d1 = _bracket_span_subspace(env, product(k_elems, k_elems))
    k_d1_elems = [env.elem_from_row(row) for row in k_d1.rows]
    k_d2 = _bracket_span_subspace(env, product(k_d1_elems, k_d1_elems))
    checks.append(("second derived of k vanishes", k_d2.dim == 0))
    if r == 3:
        e1 = env.lie(env.monomial(x1 | x2), env.monomial(x1 | x3))
        e2 = env.lie(env.monomial(x1 | x2), env.monomial(x2 | x3))
        e3 = env.lie(env.monomial(x1 | x3), env.monomial(x2 | x3))
        es = [e1, e2, e3]
        ok_e = True
        kelim = k_space.elim()
        for i in range(3):
            for j in range(3):
                w = env.lie(es[i], es[j])
                if w and not kelim.contains_vector(env.elem_to_vec(w)):
                    ok_e = False
        checks.append(("pair-product brackets commute modulo k", ok_e))
    else:
        checks.append(("pair-product brackets commute modulo k", True))
    md1_elim = Eliminator(env.field, env.dim)
    for i in range(len(m_elems)):
        for j in range(i + 1, len(m_elems)):
            w = env.lie(m_elems[i], m_elems[j])
            if w:
                env._span_add_elem(md1_elim, env.to_mask(w) if env.gf2_lane else w)
    for e in k_elems:
        env._span_add_elem(md1_elim, env.to_mask(e) if env.gf2_lane else e)
    md1 = md1_elim.to_subspace()
    md1_elems = [env.elem_from_row(row) for row in md1.rows]
    md2 = _bracket_span_subspace(env, product(md1_elems, md1_elems))
    checks.append(("second derived of h/k vanishes", k_space.contains(md2)))
    detail = {
        "complement_dim": r,
        "center_dim": zdim,
        "h_dim": h_space.dim,
        "k_dim": k_space.dim,
    }
    return CertificateReport(checks, detail)


def m2_embedding_check(L: RestrictedLieAlgebra, a_space: Subspace,
                       pairs: int = 50, seed: int = 0) -> bool:
    """Check that u(L) acts faithfully as 2x2 matrices over u(A).

    A must be an abelian restricted ideal of codimension 1; u(L) is then
    a free right u(A)-module on 1, y and left multiplication gives the
    matrix representation, whose multiplicativity is verified on the
    generators and on random pairs.
    """
    f = L.field
    if a_space.dim != L.n - 1:
        raise PreconditionFailed("ideal is not of codimension 1")
    if not L.is_ideal(a_space) or not L.is_pmap_closed(a_space):
        raise PreconditionFailed("subspace is not a restricted ideal")
    for u in a_space.basis():
        for v in a_space.basis():
            if not all(f.is_zero(c) for c in L.bracket(u, v)):
                raise PreconditionFailed("ideal is not abelian")
    y = next(L.basis_vector(i) for i in range(L.n)
             if not a_space.contains_vector(L.basis_vector(i)))
    names = ["y"] + [f"a{i+1}" for i in range(L.n - 1)]
    M = L.rebase([y] + list(a_space.basis()), names=names)
    env = Envelope(M)
    a_alg = RestrictedLieAlgebra(
        f, names[1:], {},
        [tuple(M.pmap[i][1:]) for i in range(1, M.n)],
    )
    env_a = Envelope(a_alg)

    def split(e: dict) -> Tuple[dict, dict]:
        p, q = {}, {}
        for m, c in e.items():
            (q if m & 1 else p)[m >> 1] = c
        return p, q

    def phi(r: dict):
        p0, q0 = split(r)
        ry = env.mul(r, env.gen(0))
        p1, q1 = split(ry)
        return ((p0, p1), (q0, q1))

    def mat_mul(A, B):
        out = []
        for i in range(2):
            row = []
            for j in range(2):
                s = env_a.add(env_a.mul(A[i][0], B[0][j]), env_a.mul(A[i][1], B[1][j]))
                row.append(s)
            out.append(tuple(row))
        return tuple(out)

    import random
    rng = random.Random(seed)

    def rand_elem() -> dict:
        out = {}
        for _ in range(3):
            m = rng.randrange(env.dim)
            c = f.random(rng)
            if not f.is_zero(c):
                out[m] = f.add(out.get(m, f.zero), c) if m in out else c
                if f.is_zero(out[m]):
                    del out[m]
        return out

    candidates = [(env.gen(i), env.gen(j)) for i in range(M.n) for j in range(M.n)]
    candidates += [(rand_elem(), rand_elem()) for _ in range(pairs)]
    for r, s in candidates:
        if phi(env.mul(r, s)) != mat_mul(phi(r), phi(s)):
            return False
    return True
