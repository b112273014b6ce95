"""Finite-dimensional Lie algebras, ordinary and restricted, over characteristic-2 fields.

``LieAlgebra`` holds the structure constants; it holds the Jacobi check
and everything computed from brackets alone (spans, centralisers, the
three series, base change).  ``RestrictedLieAlgebra`` is a
``LieAlgebra`` plus the square image of each basis vector, and adds what
reads it: the restricted axiom, p-closure, restricted ideals,
2-nilpotency, the Fitting parts of the square map on central elements
(the torus decomposition among them), quotients.

Elements are rows of ``linalg.Eliminator`` in the row form of the field
(``LieAlgebra.form``): stacked ints over GF(2^k), bitmasks over GF(2),
``_Sparse`` dicts over F2(X,Y).  The structure constants are rows too,
as column tables: ``ad[j][i] = [b_i, b_j]``, so a bracket with a basis
vector is one apply of a table, the kernel u(L) uses for its products,
and a general bracket is one apply per basis vector in the support of
its left factor.  A restricted ideal is a plain ``Subspace`` of such
rows; the quotient by one is read from the tables and the square images
at the columns that are not pivots of the ideal.  Scalar tuples appear
only at the edge: ``bracket``, ``pmap_eval``, ``restricted_closure`` and
``element_str`` take them, and ``_table``, ``pmap`` and
``Subspace.rows`` give them.  The square of a general element is
defined by the unique semilinear extension

    (sum a_i b_i)^[2] = sum a_i^2 b_i^[2] + sum_{i<j} a_i a_j [b_i, b_j],

which is the only extension compatible with (x+y)^[2] = x^[2] + y^[2] + [x,y]
in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, partial
from typing import Dict, Iterable, List, Sequence, Tuple

from .fields import GF2k, FieldMismatch
from .linalg import (
    Eliminator, Quotient, Subspace, kernel_rows, lin_comb, row_form, saturate, span, span_rows,
    terms_str, unit_vector,
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
    """Structure constants only; alternating and Jacobi are the axioms.

    This is the ordinary algebra and the shared core: everything here
    reads the structure constants alone.  ``RestrictedLieAlgebra`` adds
    the square map.
    """

    def __init__(self, field, names: Sequence[str],
                 brackets: Dict[Tuple[int, int], Sequence]):
        n = len(names)
        form = row_form(field, n)
        rows = {}
        for (i, j), vec in brackets.items():
            if not (0 <= i < j < n):
                raise FieldMismatch(f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim")
            if len(vec) != n:
                raise FieldMismatch("bracket value has wrong length")
            items = [(t, c) for t, c in enumerate(vec) if not field.is_zero(c)]
            if items:
                rows[i, j] = form.pack(items)
        self._setup(field, names, form, rows)

    def _setup(self, field, names: Sequence[str], form: Eliminator, rows: dict) -> None:
        """Take the nonzero structure constants ``rows``, {(i, j): row of
        [b_i, b_j]} with i < j, in the row form ``form``."""
        n = len(names)
        self.field = field
        self.n = n
        self.names = list(names)
        self.form = form
        # ad[j][i] = [b_i, b_j] = ad[i][j] (characteristic 2): ad[j] is the
        # column table of ad(b_j), so [x, b_j] is one apply of it to x
        self.ad = [[form.zero] * n for _ in range(n)]
        # The bracket adjacency: bit j of _moves[i] is set iff [b_i, b_j] != 0.
        self._moves = [0] * n
        # _above[i]: the bits j > i of _moves[i], the cross terms of the square map
        self._above = [0] * n
        # The pairs (i, j), i < j, with [b_i, b_j] != 0, in increasing order.
        self._nonzero = sorted(rows)
        for (i, j), r in rows.items():
            self.ad[i][j] = self.ad[j][i] = r
            self._moves[i] |= 1 << j
            self._moves[j] |= 1 << i
            self._above[i] |= 1 << j
        self._center = self._derived = None

    @classmethod
    def _from_rows(cls, field, names: Sequence[str], rows: dict, *rest) -> "LieAlgebra":
        self = object.__new__(cls)
        self._setup(field, names, row_form(field, len(names)), rows, *rest)
        return self

    @cached_property
    def _table(self) -> List[List[Tuple]]:
        """The structure constants as scalar tuples, _table[i][j] = [b_i, b_j]."""
        zero, n = self.zero_vec(), self.n
        table = [[zero] * n for _ in range(n)]
        for i, j in self._nonzero:
            table[i][j] = table[j][i] = self.form.decode(self.ad[i][j])
        return table

    def _brackets(self, embed=lambda c: c) -> Dict[Tuple[int, int], Tuple]:
        """The nonzero table entries [b_i, b_j], i < j, with embed applied to each scalar."""
        return {(i, j): tuple(embed(c) for c in self._table[i][j]) for i, j in self._nonzero}

    # -- elements ----------------------------------------------------------

    def zero_vec(self) -> Tuple:
        return (self.field.zero,) * self.n

    def basis_vector(self, i: int) -> Tuple:
        return unit_vector(self.field, self.n, i)

    def bracket_row(self, x, y):
        """[x, y] = sum of a_i b_j [b_i, b_j] over the pairs whose adjacency
        bit ``_moves[i] >> j`` is set, on the rows x and y; one
        ``Eliminator.pair`` of the tables ad."""
        return self.form.pair(self.ad, self._moves, x, y)

    def bracket(self, u: Sequence, v: Sequence) -> Tuple:
        """[u, v] on scalar tuples."""
        form = self.form
        return form.decode(self.bracket_row(form._row(u), form._row(v)))

    # -- axioms --------------------------------------------------------

    def check_axioms(self) -> AxiomReport:
        """The Jacobi identity on every basis triple i < j < k.

        Each term [[b_i, b_j], b_k] is one apply of the table ad[k] to the
        table entry [b_i, b_j].  A triple whose brackets [b_i, b_j],
        [b_j, b_k] and [b_k, b_i] are all 0 has Jacobi sum 0 term by term,
        so it is skipped on one test of the adjacency ``_moves``; the
        others are evaluated in order.
        """
        report = AxiomReport()
        ad, moves, apply = self.ad, self._moves, self.form.apply
        for i in range(self.n):
            for j in range(i + 1, self.n):
                pair, adjacent = 1 << i | 1 << j, moves[i] >> j & 1
                for k in range(j + 1, self.n):
                    if not (adjacent or moves[k] & pair):
                        continue
                    if (apply(ad[k], None, ad[i][j]) ^ apply(ad[i], None, ad[j][k])
                            ^ apply(ad[j], None, ad[k][i])):
                        report.violations.append(AxiomViolation(
                            "jacobi", (i, j, k),
                            f"jacobi sum on ({self.names[i]},{self.names[j]},{self.names[k]}) is nonzero"))
        return report

    # -- canonical subspaces -------------------------------------------

    def full_space(self) -> Subspace:
        return Subspace.full(self.field, self.n)

    def span_of(self, vecs: Iterable[Sequence]) -> Subspace:
        return span(self.field, self.n, vecs)

    def span_rows(self, rows: Iterable) -> Subspace:
        return span_rows(self.field, self.n, rows)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        return self.span_rows(self.bracket_row(u, v) for u in a.planes for v in b.planes)

    def derived_subalgebra(self) -> Subspace:
        """L' = [L, L], the span of the table entries [b_i, b_j], i < j,
        with no bracket evaluation; computed once."""
        if self._derived is None:
            self._derived = self.span_rows(self.ad[i][j] for i, j in self._nonzero)
        return self._derived

    def center(self) -> Subspace:
        """Z(L), the kernel of the n x n^2 table matrix whose row i is
        [b_i, b_0], ..., [b_i, b_{n-1}] laid end to end: the table row
        ad[i].  The same subspace as ``centralizer(full_space())``, with
        no bracket evaluation; computed once."""
        if self._center is None:
            self._center = kernel_rows(self.field, self.ad, self.n)
        return self._center

    def centralizer(self, s: Subspace) -> Subspace:
        """Largest subspace bracketing every element of s to zero."""
        if s.dim == 0:
            return self.full_space()
        apply = self.form.apply
        return kernel_rows(self.field, [[apply(table, None, v) for v in s.planes]
                                        for table in self.ad], self.n)

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
                nxt = kernel_rows(self.field, [list(map(quot.project_row, table))
                                               for table in self.ad], quot.dim)
                if nxt == prev:
                    break
                terms.append(nxt)
            return terms
        raise ValueError(f"unknown series kind {kind!r}")

    def is_abelian(self) -> bool:
        return not self._nonzero

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
        reduce, apply = s.elim().reduce, self.form.apply
        return not any(reduce(apply(table, None, v)) for v in s.planes for table in self.ad)

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
        self.sq = [self.form._row(v) for v in self.pmap]

    def _setup(self, field, names, form, rows, sq=None) -> None:
        super()._setup(field, names, form, rows)
        if sq is not None:
            self.sq = sq    # b_i^[2], in the row form

    @cached_property
    def pmap(self) -> List[Tuple]:
        """The square images b_i^[2] as scalar tuples."""
        return [self.form.decode(r) for r in self.sq]

    # perfbench/tracing.py wraps the methods it finds in this class's own
    # __dict__, so the inherited bracket is bound here as well.
    bracket = LieAlgebra.bracket

    def pmap_row(self, x):
        """x^[2] = sum a_i^2 b_i^[2] + sum_i a_i [b_i, x_{>i}] on the row x
        = sum a_i b_i, x_{>i} the part of x in the columns after i."""
        form = self.form
        return form.apply(self.sq, None, form.frobenius(x)) ^ form.pair(self.ad, self._above, x, x)

    def pmap_eval(self, v: Sequence) -> Tuple:
        """v^[2] on a scalar tuple."""
        form = self.form
        return form.decode(self.pmap_row(form._row(v)))

    def check_axioms(self) -> AxiomReport:
        """Jacobi, then ad(b_i^[2]) = (ad b_i)^2 on every b_j: the table
        entry [[b_j, b_i], b_i] against [b_j, b_i^[2]], one apply each."""
        report = super().check_axioms()
        ad, apply = self.ad, self.form.apply
        for i in range(self.n):
            if any(apply(ad[i], None, ad[i][j]) != apply(ad[j], None, self.sq[i])
                   for j in range(self.n)):
                report.violations.append(AxiomViolation(
                    "restricted", (i,),
                    f"ad({self.names[i]}^[2]) differs from (ad {self.names[i]})^2"))
        return report

    # -- restricted ideals ----------------------------------------------

    def is_pmap_closed(self, s: Subspace) -> bool:
        reduce = s.elim().reduce
        return not any(reduce(self.pmap_row(v)) for v in s.planes)

    def restricted_closure(self, gens: Iterable[Sequence]) -> Subspace:
        """Least restricted ideal containing gens, scalar tuples."""
        return self.restricted_closure_rows(map(self.form._row, gens))

    def restricted_closure_rows(self, rows: Iterable) -> Subspace:
        """Least restricted ideal containing the rows ``rows``.

        The span is closed under each [., b_j] and the square map.  That
        suffices: (sum c_a w_a)^[2] = sum c_a^2 w_a^[2] + sum c_a c_b [w_a, w_b],
        and the brackets lie in a span closed under [., L].
        """
        maps = [partial(self.form.apply, table, None) for table in self.ad]
        return self._saturated(rows, maps + [self.pmap_row])

    def p_closure(self, s: Subspace) -> Subspace:
        """Closure of a bracket-closed subspace under the square map."""
        return self._saturated(s.planes, [self.pmap_row])

    def _saturated(self, rows: Iterable, maps) -> Subspace:
        elim = Eliminator(self.field, self.n)
        saturate(elim.add, rows, maps)
        return elim.to_subspace()

    # -- 2-nilpotency -----------------------------------------------------

    def is_2nilpotent_element(self, v: Sequence) -> Tuple[bool, object]:
        """Iterate the square map; (True, m) when v^[2]^m = 0 within n+1 steps."""
        form = self.form
        chain = [form._row(v)]
        if not chain[0]:
            return True, 0
        for m in range(1, self.n + 2):
            chain.append(self.pmap_row(chain[-1]))
            if not chain[-1]:
                return True, m
        return False, [form.decode(x) for x in chain]

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
            rows = []
            for v in cur.planes:
                rows.extend(self.bracket_row(v, w) for w in p.planes)
                rows.append(self.pmap_row(v))
            nxt = self.span_rows(rows)
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
        n = self.n
        images = []
        for v in s.planes:
            for _ in range(n):
                v = self.pmap_row(v)
            images.append(v)
        # c^(2^-n) = c^(2^m) with m = -n mod k, since c^(2^k) = c
        root = 1 << (-n % f.k)
        ker = kernel_rows(f, [[v] for v in images], n)
        nil = [lin_comb(f, [f.pow(c, root) for c in row], s.rows, n) for row in ker.rows]
        return self.span_rows(images), self.span_of(nil)

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
        the table entries and square images, projected.
        """
        quot = Quotient(ideal)
        cols, project = quot.lift_pivots, quot.project_row
        rows = {}
        for a, i in enumerate(cols):
            for b in range(a + 1, len(cols)):
                if self._moves[i] >> cols[b] & 1:
                    r = project(self.ad[i][cols[b]])
                    if r:
                        rows[a, b] = r
        names = [f"q{i}" for i in range(quot.dim)]
        sq = [project(self.sq[i]) for i in cols]
        return RestrictedLieAlgebra._from_rows(self.field, names, rows, sq), quot

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
        form, elim = self.form, Eliminator(f, 2 * n)
        basis = [form._row(v) for v in new_basis]
        for r, x in enumerate(basis):
            elim.add(elim.place(x, n, 0) ^ elim.unit(n + r))
        if any(p >= n for p in elim.pivots) or elim.rank != n:
            raise FieldMismatch("rebase vectors are linearly dependent")
        # all n pivots lie in the left block, so the RREF of [B | I] is [I | B^-1]
        inv = [elim.block(row, n, n) for row in elim.basis_planes()]
        to_new = partial(form.apply, inv, None)
        names = list(names) if names else [f"u{i}" for i in range(n)]
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                val = to_new(self.bracket_row(basis[i], basis[j]))
                if val:
                    brackets[i, j] = val
        sq = [to_new(self.pmap_row(x)) for x in basis]
        return RestrictedLieAlgebra._from_rows(f, names, brackets, sq)
