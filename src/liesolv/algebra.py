"""Finite-dimensional Lie algebras, ordinary and restricted, over characteristic-2 fields.

``LieAlgebra`` is a bracket table on basis pairs i < j; it holds the
Jacobi check and everything computed from brackets alone (spans,
centralisers, the three series, base change).  ``RestrictedLieAlgebra``
is a ``LieAlgebra`` plus the square image of each basis vector, and adds
what reads it: the restricted axiom, p-closure, restricted ideals,
2-nilpotency, the Fitting parts of the square map on central elements
(the torus decomposition among them), quotients.  Elements are
coordinate tuples, and a restricted ideal is a plain ``Subspace``; the
quotient by one is read from the bracket table and the square images
at the columns that are not pivots of the ideal.  The square of a
general element is defined by the unique semilinear extension

    (sum a_i b_i)^[2] = sum a_i^2 b_i^[2] + sum_{i<j} a_i a_j [b_i, b_j],

which is the only extension compatible with (x+y)^[2] = x^[2] + y^[2] + [x,y]
in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Dict, Iterable, List, Sequence, Tuple

from .fields import GF2k, FieldMismatch
from .linalg import (
    Eliminator, Quotient, Subspace, kernel, lin_comb, saturate, span, terms_str,
    unit_vector, vec_add, vec_is_zero,
)


class NotAbelian(Exception):
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
        # The nonzero structure constants (i, j, [(t, c), ...]) with
        # [b_i, b_j] = sum c b_t, i < j in increasing order: the bracket
        # and the cross term of the square map cost one pass over them.
        self._nonzero = []
        # The bracket adjacency: bit j of _moves[i] is set iff [b_i, b_j] != 0.
        self._moves = [0] * n
        for i, j in sorted(brackets):
            row = [(t, c) for t, c in enumerate(table[i][j]) if not field.is_zero(c)]
            if row:
                self._nonzero.append((i, j, row))
                self._moves[i] |= 1 << j
                self._moves[j] |= 1 << i

    def _brackets(self, embed=lambda c: c) -> Dict[Tuple[int, int], Tuple]:
        """The nonzero table entries [b_i, b_j], i < j, with embed applied to each scalar."""
        return {(i, j): tuple(embed(c) for c in self._table[i][j])
                for i, j, _ in self._nonzero}

    # -- basic element operations ------------------------------------

    def zero_vec(self) -> Tuple:
        return self._zero

    def basis_vector(self, i: int) -> Tuple:
        return unit_vector(self.field, self.n, i)

    def bracket(self, u: Sequence, v: Sequence) -> Tuple:
        """[u, v] = sum over the nonzero constants of (u_i v_j + u_j v_i) c b_t."""
        f = self.field
        add, mul, is_zero = f.add, f.mul, f.is_zero
        out = list(self._zero)
        for i, j, row in self._nonzero:
            c = add(mul(u[i], v[j]), mul(u[j], v[i]))
            if not is_zero(c):
                for t, ct in row:
                    out[t] = add(out[t], mul(c, ct))
        return tuple(out)

    def ad_images(self, x: Sequence) -> List[Tuple]:
        """Images [b_j, x] for each basis vector; the matrix of ad(x) acting on the right."""
        return [self.bracket(self.basis_vector(j), x) for j in range(self.n)]

    # -- axioms --------------------------------------------------------

    def check_axioms(self) -> AxiomReport:
        """The Jacobi identity on every basis triple i < j < k.

        A triple whose brackets [b_i, b_j], [b_j, b_k] and [b_k, b_i] are
        all 0 has Jacobi sum 0 term by term, so it is skipped on one test
        of the adjacency ``_moves``; the others are evaluated in order.
        """
        report = AxiomReport()
        f, moves = self.field, self._moves
        for i in range(self.n):
            for j in range(i + 1, self.n):
                pair, adjacent = 1 << i | 1 << j, moves[i] >> j & 1
                for k in range(j + 1, self.n):
                    if not (adjacent or moves[k] & pair):
                        continue
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
        """L' = [L, L], the span of the table rows [b_i, b_j] for i < j.

        The bracket is bilinear, so this is ``bracket_span(full, full)``
        without a single bracket evaluation.
        """
        n = self.n
        return self.span_of(self._table[i][j] for i in range(n) for j in range(i + 1, n))

    def center(self) -> Subspace:
        """Z(L), the kernel of the n x n^2 table matrix whose row i is
        [b_i, b_0], ..., [b_i, b_{n-1}] laid end to end.

        The same subspace as ``centralizer(full_space())``, read from the
        table with no bracket evaluation.
        """
        n = self.n
        images = [tuple(c for row in self._table[i] for c in row) for i in range(n)]
        return kernel(self.field, images, n, n * n)

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
        if kind in ("derived", "lower_central"):
            full = self.full_space()
            terms = [full]
            while terms[-1].dim:
                nxt = self.bracket_span(terms[-1], terms[-1] if kind == "derived" else full)
                if nxt == terms[-1]:
                    break
                terms.append(nxt)
            return terms
        if kind == "upper_central":
            terms = [Subspace.zero(self.field, self.n)]
            while True:
                prev = terms[-1]
                if prev.dim == self.n:
                    break
                # [b_j, b_i] mod prev, read from the table
                quot = Quotient(prev)
                images = [tuple(c for v in self._table[j] for c in quot.project(v))
                          for j in range(self.n)]
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
        return terms_str(f, ((self.names[i], c) for i, c in enumerate(v) if not f.is_zero(c)))

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
        add, mul, is_zero = f.add, f.mul, f.is_zero
        out = list(self._zero)
        for i in range(self.n):
            a = v[i]
            if is_zero(a):
                continue
            a2 = mul(a, a)
            row = self.pmap[i]
            for t in range(self.n):
                if not is_zero(row[t]):
                    out[t] = add(out[t], mul(a2, row[t]))
        for i, j, row in self._nonzero:
            c = mul(v[i], v[j])
            if not is_zero(c):
                for t, ct in row:
                    out[t] = add(out[t], mul(c, ct))
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

    def restricted_closure(self, gens: Iterable[Sequence]) -> Subspace:
        """Least restricted ideal containing gens.

        The span is closed under each [., b_j] and the square map.  That
        suffices: (sum c_a w_a)^[2] = sum c_a^2 w_a^[2] + sum c_a c_b [w_a, w_b],
        and the brackets lie in a span closed under [., L].
        """
        maps = [partial(self.bracket, v=self.basis_vector(j)) for j in range(self.n)]
        return self._saturated(gens, maps + [self.pmap_eval])

    def p_closure(self, s: Subspace) -> Subspace:
        """Closure of a bracket-closed subspace under the square map."""
        return self._saturated(s.basis(), [self.pmap_eval])

    def _saturated(self, vecs: Iterable[Sequence], maps) -> Subspace:
        elim = Eliminator(self.field, self.n)
        saturate(elim.add_vector, vecs, maps)
        return elim.to_subspace()

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

    def is_2abelian(self, ideal: Subspace) -> bool:
        """True iff the derived subalgebra of the ideal is 2-nilpotent."""
        derived = self.bracket_span(ideal, ideal)
        ok, _ = self.is_2nilpotent_ideal(derived)
        return ok

    # -- the square map's Fitting parts ------------------------------------

    def square_fitting(self, s: Subspace) -> Tuple[Subspace, Subspace]:
        """(image, kernel) of phi^n on s, where phi is the square map.

        s must lie in the centre, or L be abelian.  Then phi is additive on
        s and on its images, and phi(c x) = c^2 phi(x), so

            phi^n(sum a_i s_i) = sum a_i^(2^n) phi^n(s_i).

        The image is the span of the phi^n(s_i).  The kernel is the linear
        kernel of the phi^n(s_i) with c -> c^(2^-n) applied to each
        coordinate, which takes an RREF basis to an RREF basis.  An element
        of s that phi kills eventually is killed within n steps, since it
        lies in the square-closure of s, of dimension at most n; s itself
        need not be square-closed.  Needs a perfect field, i.e. GF(2^k).
        """
        f = self.field
        if not isinstance(f, GF2k):
            raise UnsupportedField("the square map's Fitting parts need a GF(2^k) field")
        basis, n = s.basis(), self.n
        images = []
        for v in basis:
            for _ in range(n):
                v = self.pmap_eval(v)
            images.append(v)
        # c^(2^-n) = c^(2^m) with m = -n mod k, since c^(2^k) = c
        root = 1 << (-n % f.k)
        ker = kernel(f, images, s.dim, n)
        nil = [lin_comb(f, [f.pow(c, root) for c in row], basis, n) for row in ker.rows]
        return self.span_of(images), self.span_of(nil)

    def torus_decomposition(self) -> Tuple[Subspace, Subspace]:
        """Fitting decomposition of the square map on an abelian algebra.

        Returns (T, N) = (im phi^n, ker phi^n), the full-space case of
        ``square_fitting``: the square map is bijective on T and nilpotent
        on N, and L = T + N directly.  Needs a perfect field, i.e. GF(2^k).
        """
        if not self.is_abelian():
            raise NotAbelian("torus decomposition needs an abelian algebra")
        if not isinstance(self.field, GF2k):
            raise UnsupportedField("torus decomposition is defined over GF(2^k) only")
        t, nil = self.square_fitting(self.full_space())
        total, inter = t.sum_intersect(nil)
        if total.dim != self.n or inter.dim != 0:
            raise AssertionError("Fitting decomposition failed to split the algebra")
        return t, nil

    # -- derived algebras ------------------------------------------------

    def quotient(self, ideal: Subspace) -> Tuple["RestrictedLieAlgebra", Quotient]:
        """L/ideal on the basis ``Quotient(ideal).lifted``.

        The lifted basis is unit vectors, so its brackets and squares are
        rows of the bracket table and of pmap.
        """
        quot = Quotient(ideal)
        cols = quot.lift_pivots
        names = [f"q{i}" for i in range(quot.dim)]
        brackets = {}
        for a, i in enumerate(cols):
            for b in range(a + 1, len(cols)):
                val = quot.project(self._table[i][cols[b]])
                if not vec_is_zero(self.field, val):
                    brackets[(a, b)] = val
        pmap = [quot.project(self.pmap[i]) for i in cols]
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
        # all n pivots lie in the left block, so the RREF of [B | I] is [I | B^-1]
        inv_rows = [row[n:] for row in elim.basis_rows()]

        def to_new(vec):
            return lin_comb(f, vec, inv_rows, n)

        names = list(names) if names else [f"u{i}" for i in range(n)]
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                val = to_new(self.bracket(new_basis[i], new_basis[j]))
                if not vec_is_zero(f, val):
                    brackets[(i, j)] = val
        pmap = [to_new(self.pmap_eval(v)) for v in new_basis]
        return RestrictedLieAlgebra(f, names, brackets, pmap)
