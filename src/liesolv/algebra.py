"""Finite-dimensional Lie algebras, ordinary and restricted, over characteristic-2 fields.

``LieAlgebra`` is a bracket table on basis pairs i < j; it holds the
Jacobi check and everything computed from brackets alone (spans,
centralisers, the three series, base change).  ``RestrictedLieAlgebra``
is a ``LieAlgebra`` plus the square image of each basis vector, and adds
what reads it: the restricted axiom, p-closure, restricted ideals,
2-nilpotency, the torus decomposition, quotients.  Elements are
coordinate tuples; the square of a general element is defined by the
unique semilinear extension

    (sum a_i b_i)^[2] = sum a_i^2 b_i^[2] + sum_{i<j} a_i a_j [b_i, b_j],

which is the only extension compatible with (x+y)^[2] = x^[2] + y^[2] + [x,y]
in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Sequence, Tuple

from .fields import GF2k, FieldMismatch
from .linalg import (
    Eliminator, Quotient, Subspace, kernel, lin_comb, span, unit_vector,
    vec_add, vec_is_zero, vec_scale,
)


class NotAbelian(Exception):
    pass


class NotAnIdeal(Exception):
    pass


class UnsupportedField(Exception):
    pass


@dataclass(frozen=True)
class AxiomViolation:
    kind: str          # "jacobi" | "restricted" | "table"
    indices: tuple
    detail: str


@dataclass
class AxiomReport:
    violations: List[AxiomViolation] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "all axioms hold"
        return "\n".join(f"{v.kind}{v.indices}: {v.detail}" for v in self.violations)


@dataclass(frozen=True)
class RestrictedIdeal:
    """A subspace verified closed under [., L] and under the square map."""
    space: Subspace

    @property
    def dim(self) -> int:
        return self.space.dim


class LieAlgebra:
    """Bracket table only; alternating and Jacobi are the axioms.

    This is the ordinary algebra and the shared core: everything here
    reads the bracket table alone.  ``RestrictedLieAlgebra`` adds the
    square map.
    """

    def __init__(self, field, names: Sequence[str],
                 brackets: Dict[Tuple[int, int], Sequence]):
        n = len(names)
        self.field = field
        self.n = n
        self.names = list(names)
        zero_vec = (field.zero,) * n
        table = [[zero_vec] * n for _ in range(n)]
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < n):
                raise FieldMismatch(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            v = tuple(vec)
            if len(v) != n:
                raise FieldMismatch("bracket value has wrong length")
            table[i][j] = v
            table[j][i] = v  # characteristic 2: [b_j, b_i] = [b_i, b_j]
        self._table = table
        self._zero = zero_vec

    def _brackets(self, embed=lambda c: c) -> Dict[Tuple[int, int], Tuple]:
        """The nonzero table entries [b_i, b_j], i < j, with embed applied to each scalar."""
        return {(i, j): tuple(embed(c) for c in self._table[i][j])
                for i in range(self.n) for j in range(i + 1, self.n)
                if not vec_is_zero(self.field, self._table[i][j])}

    # -- basic element operations ------------------------------------

    def zero_vec(self) -> Tuple:
        return self._zero

    def basis_vector(self, i: int) -> Tuple:
        return unit_vector(self.field, self.n, i)

    def bracket(self, u: Sequence, v: Sequence) -> Tuple:
        f = self.field
        out = list(self._zero)
        for i in range(self.n):
            ui = u[i]
            vi = v[i]
            if f.is_zero(ui) and f.is_zero(vi):
                continue
            for j in range(i + 1, self.n):
                c = f.add(f.mul(ui, v[j]), f.mul(u[j], vi))
                if not f.is_zero(c):
                    row = self._table[i][j]
                    for t in range(self.n):
                        if not f.is_zero(row[t]):
                            out[t] = f.add(out[t], f.mul(c, row[t]))
        return tuple(out)

    def ad_images(self, x: Sequence) -> List[Tuple]:
        """Images [b_j, x] for each basis vector; the matrix of ad(x) acting on the right."""
        return [self.bracket(self.basis_vector(j), x) for j in range(self.n)]

    # -- axioms --------------------------------------------------------

    def check_axioms(self) -> AxiomReport:
        report = AxiomReport()
        f = self.field
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    s = self.bracket(self._table[i][j], self.basis_vector(k))
                    s = vec_add(f, s, self.bracket(self._table[j][k], self.basis_vector(i)))
                    s = vec_add(f, s, self.bracket(self._table[k][i], self.basis_vector(j)))
                    if not vec_is_zero(f, s):
                        report.violations.append(AxiomViolation(
                            "jacobi", (i, j, k),
                            f"jacobi sum on ({self.names[i]},{self.names[j]},{self.names[k]}) is nonzero"))
        return report

    # -- canonical subspaces -------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.n)

    def span_of(self, vecs: Iterable[Sequence]) -> Subspace:
        return span(self.field, self.n, vecs)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        vecs = [self.bracket(u, v) for u in a.basis() for v in b.basis()]
        return self.span_of(vecs)

    def derived_subalgebra(self) -> Subspace:
        full = self.full_space()
        return self.bracket_span(full, full)

    def center(self) -> Subspace:
        return self.centralizer(self.full_space())

    def centralizer(self, s: Subspace) -> Subspace:
        """Largest subspace bracketing every element of s to zero."""
        if s.dim == 0:
            return self.full_space()
        images = []
        for j in range(self.n):
            row = []
            for v in s.basis():
                row.extend(self.bracket(self.basis_vector(j), v))
            images.append(tuple(row))
        return kernel(self.field, images, self.n, self.n * s.dim)

    def series(self, kind: str) -> List[Subspace]:
        """Derived, lower central, or upper central series until stable."""
        if kind == "derived":
            terms = [self.full_space()]
            while True:
                nxt = self.bracket_span(terms[-1], terms[-1])
                if nxt == terms[-1]:
                    break
                terms.append(nxt)
                if nxt.dim == 0:
                    break
            return terms
        if kind == "lower_central":
            full = self.full_space()
            terms = [full]
            while True:
                nxt = self.bracket_span(terms[-1], full)
                if nxt == terms[-1]:
                    break
                terms.append(nxt)
                if nxt.dim == 0:
                    break
            return terms
        if kind == "upper_central":
            terms = [Subspace.zero(self.field, self.n)]
            while True:
                prev = terms[-1]
                if prev.dim == self.n:
                    break
                quot = Quotient(self.full_space(), prev)
                images = []
                for j in range(self.n):
                    row = []
                    for i in range(self.n):
                        row.extend(quot.project(self.bracket(self.basis_vector(j),
                                                             self.basis_vector(i))))
                    images.append(tuple(row))
                nxt = kernel(self.field, images, self.n, self.n * quot.dim)
                if nxt == prev:
                    break
                terms.append(nxt)
            return terms
        raise ValueError(f"unknown series kind {kind!r}")

    def is_abelian(self) -> bool:
        return self.derived_subalgebra().dim == 0

    def nilpotency_class(self) -> int | None:
        terms = self.series("lower_central")
        if terms[-1].dim != 0:
            return None
        return len(terms) - 1

    def is_metabelian(self) -> bool:
        d1 = self.derived_subalgebra()
        return self.bracket_span(d1, d1).dim == 0

    # -- ideals ---------------------------------------------------------

    def is_ideal(self, s: Subspace) -> bool:
        e = s.elim()
        return all(e.contains_vector(self.bracket(v, self.basis_vector(j)))
                   for v in s.basis() for j in range(self.n))

    def base_change(self, new_field, embed) -> "LieAlgebra":
        return LieAlgebra(new_field, self.names, self._brackets(embed))

    def element_str(self, v: Sequence) -> str:
        f = self.field
        terms = []
        for i, c in enumerate(v):
            if f.is_zero(c):
                continue
            if c == f.one:
                terms.append(self.names[i])
            else:
                terms.append(f"{f.to_str(c)}·{self.names[i]}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.n}, field={self.field!r})"


class RestrictedLieAlgebra(LieAlgebra):
    """Structure constants plus square map for a restricted Lie algebra."""

    def __init__(self, field, names: Sequence[str],
                 brackets: Dict[Tuple[int, int], Sequence],
                 pmap: Sequence[Sequence]):
        super().__init__(field, names, brackets)
        if len(pmap) != self.n:
            raise FieldMismatch("pmap must give one image per basis vector")
        self.pmap = [tuple(v) for v in pmap]

    # perfbench/tracing.py wraps the methods it finds in this class's own
    # __dict__, so the inherited bracket is bound here as well.
    bracket = LieAlgebra.bracket

    def pmap_eval(self, v: Sequence) -> Tuple:
        f = self.field
        out = list(self._zero)
        for i in range(self.n):
            a = v[i]
            if f.is_zero(a):
                continue
            a2 = f.mul(a, a)
            row = self.pmap[i]
            for t in range(self.n):
                if not f.is_zero(row[t]):
                    out[t] = f.add(out[t], f.mul(a2, row[t]))
            for j in range(i + 1, self.n):
                c = f.mul(a, v[j])
                if not f.is_zero(c):
                    row = self._table[i][j]
                    for t in range(self.n):
                        if not f.is_zero(row[t]):
                            out[t] = f.add(out[t], f.mul(c, row[t]))
        return tuple(out)

    def check_axioms(self) -> AxiomReport:
        report = super().check_axioms()
        for i in range(self.n):
            ad_i = self.ad_images(self.basis_vector(i))
            ad_sq = [lin_comb(self.field, col, ad_i, self.n) for col in ad_i]
            ad_p = self.ad_images(self.pmap[i])
            if ad_sq != ad_p:
                report.violations.append(AxiomViolation(
                    "restricted", (i,),
                    f"ad({self.names[i]}^[2]) differs from (ad {self.names[i]})^2"))
        return report

    # -- restricted ideals ----------------------------------------------

    def is_pmap_closed(self, s: Subspace) -> bool:
        e = s.elim()
        return all(e.contains_vector(self.pmap_eval(v)) for v in s.basis())

    def restricted_ideal(self, s: Subspace) -> RestrictedIdeal:
        if not self.is_ideal(s):
            raise NotAnIdeal("subspace is not bracket-closed against the algebra")
        if not self.is_pmap_closed(s):
            raise NotAnIdeal("subspace is not closed under the square map")
        return RestrictedIdeal(s)

    def restricted_closure(self, gens: Iterable[Sequence]) -> RestrictedIdeal:
        """Least restricted ideal containing gens, by worklist saturation."""
        current = self.span_of(gens)
        while True:
            vecs = list(current.basis())
            for v in current.basis():
                for j in range(self.n):
                    vecs.append(self.bracket(v, self.basis_vector(j)))
                vecs.append(self.pmap_eval(v))
            nxt = self.span_of(vecs)
            if nxt == current:
                return RestrictedIdeal(current)
            current = nxt

    def p_closure(self, s: Subspace) -> Subspace:
        """Closure of a bracket-closed subspace under the square map."""
        current = s
        while True:
            vecs = list(current.basis())
            for v in current.basis():
                vecs.append(self.pmap_eval(v))
            nxt = self.span_of(vecs)
            if nxt == current:
                return current
            current = nxt

    # -- 2-nilpotency -----------------------------------------------------

    def is_2nilpotent_element(self, v: Sequence) -> Tuple[bool, object]:
        """Iterate the square map; (True, m) when v^[2]^m = 0 within n+1 steps."""
        f = self.field
        chain = [tuple(v)]
        if vec_is_zero(f, chain[0]):
            return True, 0
        for m in range(1, self.n + 2):
            nxt = self.pmap_eval(chain[-1])
            chain.append(nxt)
            if vec_is_zero(f, nxt):
                return True, m
        return False, chain

    def is_2nilpotent_ideal(self, s: Subspace) -> Tuple[bool, List[Subspace]]:
        """Descending chain N_{k+1} = [N_k, P] + span{v^[2]} on the square-closure P of s.

        Reaching zero certifies a uniform square-nilpotency exponent for
        every element of s; a nonzero stable term certifies failure (the
        enveloping-algebra augmentation ideal is then non-nilpotent,
        which tests cross-check).
        """
        p = self.p_closure(s)
        chain = [p]
        while True:
            cur = chain[-1]
            if cur.dim == 0:
                return True, chain
            vecs = []
            for v in cur.basis():
                for w in p.basis():
                    vecs.append(self.bracket(v, w))
                vecs.append(self.pmap_eval(v))
            nxt = self.span_of(vecs)
            if nxt == cur:
                return False, chain
            chain.append(nxt)

    def is_2abelian(self, ideal: RestrictedIdeal) -> bool:
        """True iff the derived subalgebra of the ideal is 2-nilpotent."""
        s = ideal.space
        derived = self.bracket_span(s, s)
        ok, _ = self.is_2nilpotent_ideal(derived)
        return ok

    # -- torus decomposition ------------------------------------------------

    def torus_decomposition(self) -> Tuple[Subspace, Subspace]:
        """Fitting decomposition of the square map on an abelian algebra.

        Returns (T, N): the square map is bijective on T and nilpotent on
        N, and L = T + N directly.  Needs a perfect field, i.e. GF(2^k).
        """
        if not self.is_abelian():
            raise NotAbelian("torus decomposition needs an abelian algebra")
        f = self.field
        if not isinstance(f, GF2k):
            raise UnsupportedField("torus decomposition is defined over GF(2^k) only")
        t = self.full_space()
        while True:
            img = self.span_of([self.pmap_eval(v) for v in t.basis()])
            if img == t:
                break
            t = img
        # eventual kernel of the square map, computed over GF(2) where it is linear
        k, n = f.k, self.n
        dim2 = n * k
        t_pows = [f.pow(2, s) if k > 1 else 1 for s in range(k)]

        def to_bits(vec) -> Tuple[int, ...]:
            bits = []
            for i in range(n):
                for s in range(k):
                    bits.append((vec[i] >> s) & 1)
            return tuple(bits)

        images = []
        for i in range(n):
            for s in range(k):
                sq = f.mul(t_pows[s], t_pows[s])
                img_vec = vec_scale(f, sq, self.pmap[i])
                images.append(to_bits(img_vec))
        # iterate the GF(2) kernel chain K_{j+1} = preimage of K_j to its fixpoint
        from .fields import GF2
        cur = kernel(GF2, images, dim2, dim2)
        while True:
            quot = Quotient(Subspace.full(GF2, dim2), cur)
            proj_images = [quot.project(img) for img in images]
            nxt = kernel(GF2, proj_images, dim2, quot.dim)
            if nxt == cur:
                break
            cur = nxt
        n_vecs = []
        for row in cur.basis():
            vec = []
            for i in range(n):
                c = 0
                for s in range(k):
                    if row[i * k + s]:
                        c ^= t_pows[s]
                vec.append(c)
            n_vecs.append(tuple(vec))
        nil = self.span_of(n_vecs)
        total, inter = t.sum_intersect(nil)
        if total.dim != self.n or inter.dim != 0:
            raise AssertionError("Fitting decomposition failed to split the algebra")
        return t, nil

    # -- derived algebras ------------------------------------------------

    def quotient(self, ideal: RestrictedIdeal,
                 name_prefix: str = "q") -> Tuple["RestrictedLieAlgebra", Quotient]:
        quot = Quotient(self.full_space(), ideal.space)
        d = quot.dim
        names = [f"{name_prefix}{i}" for i in range(d)]
        brackets = {}
        for i in range(d):
            for j in range(i + 1, d):
                val = quot.project(self.bracket(quot.lifted[i], quot.lifted[j]))
                if any(not self.field.is_zero(c) for c in val):
                    brackets[(i, j)] = val
        pmap = [quot.project(self.pmap_eval(l)) for l in quot.lifted]
        return RestrictedLieAlgebra(self.field, names, brackets, pmap), quot

    def base_change(self, new_field, embed) -> "RestrictedLieAlgebra":
        pmap = [tuple(embed(c) for c in row) for row in self.pmap]
        return RestrictedLieAlgebra(new_field, self.names, self._brackets(embed), pmap)

    def direct_sum(self, other: "RestrictedLieAlgebra") -> "RestrictedLieAlgebra":
        if self.field != other.field:
            raise FieldMismatch("direct sum needs a common field")
        f = self.field
        n, m = self.n, other.n
        brackets = {key: row + (f.zero,) * m for key, row in self._brackets().items()}
        brackets.update({(n + i, n + j): (f.zero,) * n + row
                         for (i, j), row in other._brackets().items()})
        pmap = [row + (f.zero,) * m for row in self.pmap]
        pmap += [(f.zero,) * n + row for row in other.pmap]
        return RestrictedLieAlgebra(f, self.names + other.names, brackets, pmap)

    def rebase(self, new_basis: Sequence[Sequence],
               names: Sequence[str] | None = None) -> "RestrictedLieAlgebra":
        """The same algebra written on a new basis (given in old coordinates)."""
        f = self.field
        n = self.n
        if len(new_basis) != n:
            raise FieldMismatch("rebase needs a full basis")
        elim = Eliminator(f, 2 * n)
        for r, vec in enumerate(new_basis):
            tag = [f.zero] * n
            tag[r] = f.one
            elim.add_vector(tuple(vec) + tuple(tag))
        if any(p >= n for p in elim.pivots) or elim.rank != n:
            raise FieldMismatch("rebase vectors are linearly dependent")
        all_rows = elim.basis_rows()
        left_rows = [row[:n] for row in all_rows]
        inv_rows = [row[n:] for row in all_rows]
        pivots = elim.pivots

        def to_new(vec):
            out = [f.zero] * n
            residue = list(vec)
            for idx, p in enumerate(pivots):
                c = residue[p]
                if not f.is_zero(c):
                    row = left_rows[idx]
                    for j in range(n):
                        residue[j] = f.add(residue[j], f.mul(c, row[j]))
                    for j in range(n):
                        out[j] = f.add(out[j], f.mul(c, inv_rows[idx][j]))
            return tuple(out)

        names = list(names) if names else [f"u{i}" for i in range(n)]
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                val = to_new(self.bracket(new_basis[i], new_basis[j]))
                if not vec_is_zero(f, val):
                    brackets[(i, j)] = val
        pmap = [to_new(self.pmap_eval(v)) for v in new_basis]
        return RestrictedLieAlgebra(f, names, brackets, pmap)

    def subalgebra_on(self, s: Subspace,
                      name_prefix: str = "s") -> Tuple["RestrictedLieAlgebra", List[Tuple]]:
        """The restricted algebra structure on a bracket- and square-closed subspace."""
        basis = s.basis()
        e = s.elim()
        f = self.field
        d = len(basis)

        def coords(vec):
            # basis rows are in RREF, so coordinates read off at the pivots
            return tuple(vec[p] for p in s.pivots)

        brackets = {}
        for i in range(d):
            for j in range(i + 1, d):
                w = self.bracket(basis[i], basis[j])
                if not e.contains_vector(w):
                    raise NotAnIdeal("subspace is not bracket-closed")
                val = coords(w)
                if not vec_is_zero(f, val):
                    brackets[(i, j)] = val
        pmap = []
        for i in range(d):
            w = self.pmap_eval(basis[i])
            if not e.contains_vector(w):
                raise NotAnIdeal("subspace is not square-closed")
            pmap.append(coords(w))
        names = [f"{name_prefix}{i}" for i in range(d)]
        return RestrictedLieAlgebra(f, names, brackets, pmap), basis
