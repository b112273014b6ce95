"""The restricted enveloping algebra u(L) as an exact 2^n-dimensional algebra.

Since the characteristic is 2, every PBW exponent is 0 or 1, so a PBW
monomial is a bitmask over the basis indices of L and u(L) coordinates
are indexed by the masks themselves.  The public element form is a
sparse dict {mask: scalar}.

Inside, an element has a native form.  Over GF(2^k) it is a stacked
int, the bit-sliced layout of M4RIE (``linalg.Stacked``): one int of
k*2^n bits whose plane j, the bits [j*2^n, (j+1)*2^n), holds bit j of
every coefficient; over GF(2) it is the bitmask of the monomials
present.  Over any other field (F2(X,Y)) it is a ``linalg._Sparse`` dict
{mask: scalar} whose ``^`` is addition.  Each form is also the row of
the ``linalg.Eliminator`` for its field, so spans of elements take and
give them as they are.  Both forms run on one straightening, one right
generator at a time:

    b_i b_j = b_j b_i + [b_i, b_j]   (i > j)
    b_i b_i = b_i^[2]

memoised in flat tables indexed by monomial: ``right[g][m]`` is m*x_g
and ``left[g][m]`` is x_g*m.  ``Envelope._apply`` applies such a table T
to a native element x, summing c_m*T[m] over the monomials m of x.  It
is bound once, to ``Stacked.apply`` of the envelope's layout for every
GF(2^k), which XORs the entries of each plane's set bits and folds the
planes together by Horner's rule in t, or to ``_apply_sparse``; neither
refers to the envelope, so binding one makes no reference cycle.

For a fixed left factor a, the ad table Ad_a[m] = [a, m] = a*m + m*a is
filled lazily from the right and left generator tables, and then
[a, b] is one apply of Ad_a to b.  The derived series brackets pairs
this way.  Its first step uses the associative identity
[a, bc] = [ab, c] + [ca, b]: it makes D_1 = [u(L), u(L)] the span of the
n*2^n brackets [m, x_g] = right[g][m] + left[g][m], not of all
2^n(2^n-1)/2 monomial pairs.

The series is computed as a module over the centre.  A basis vector z
of L that occurs in no nonzero structure constant commutes with every
generator, so the subalgebra A of u(L) generated by these x_z is central
and [c*a, c'*b] = cc'*[a, b] for c, c' in A.  Hence every term D_k is an
A-submodule, and D_{k+1} is the A-span of the brackets of pairs of
module generators of D_k.  A PBW monomial is m*c with m a monomial in
the other n-r basis vectors and c one in the r central x_z, so the m
generate u(L) over A (freely when the x_z span a p-closed subspace, by
PBW for restricted Lie algebras: Strade and Farnsteiner, *Modular Lie
Algebras and their Representations*, 1988), and D_1 is the A-span of
the (n-r)*2^(n-r) brackets [m, x_g] with g non-central too.
``Envelope._series_step`` takes such brackets, closes their span under
right multiplication by each x_z, and keeps the accepted brackets apart
as the generators of the next step.  With r = 0, A is the field and the
step is a plain span.

The tables are filled by the same rule.  A central x_z leaves every
product from the right: m*x_z is the monomial m + z when z is not in m,
left[z] is the list right[z], and

    a*(m'*x_z) = (a*m')*x_z,  (m'*x_z)*a = (m'*a)*x_z,  [a, m'*x_z] = [a, m']*x_z,

so a table entry whose monomial has a central factor is one apply of
right[z] to the entry without it, and only the 2^(n-r) central-free
monomials reach the memos of a*m and m*a behind an ad table.  An entry
whose prefix is 0 is 0 and costs no apply.  With r = 0 a fill strips the
top generator of m from a*m and the low one from m*a.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from .algebra import RestrictedLieAlgebra
from .fields import GF2k
from .linalg import (Eliminator, Quotient, Stacked, Subspace, _Sparse, _apply_sparse, _bits,
                     addmul, saturate, stack_items, terms_str)

# u(L) has 2^n monomials and the derived series brackets up to ~4^n/2
# pairs of them, so larger algebras are refused before anything is built.
MAX_ENVELOPE_N = 12


class PreconditionFailed(Exception):
    pass


class EnvelopeTooLarge(Exception):
    pass


@dataclass
class SeriesResult:
    """Outcome of a Lie derived series run inside u(L)."""
    dims: List[int]
    outcome: str            # "reached_zero" | "stabilized" | "budget_exceeded"
    value: int              # derived length, or the stable dimension
    terms: Optional[List[Subspace]] = None


@dataclass
class SZResult:
    """Nilpotency measurement of the ideal generated by [[u,u],[u,u],u]."""
    nilpotent: bool
    index: Optional[int]            # least m with ideal^m = 0
    ideal_dim: int
    witness: Optional[dict] = None  # stable element when not nilpotent


class _GenTables:
    """Memoised products with generators, one flat list per generator.

    ``right[g][m]`` is m*x_g and ``left[g][m]`` is x_g*m as native
    elements, None until first asked for.  A central x_z commutes with
    every monomial, so ``left[z]`` is the list ``right[z]`` for each z in
    ``central``; len() counts the filled entries, a shared list's once.
    """

    __slots__ = ("right", "left")

    def __init__(self, n: int, dim: int, central: Sequence[int] = ()):
        self.right = [[None] * dim for _ in range(n)]
        self.left = [self.right[g] if g in central else [None] * dim for g in range(n)]

    def __len__(self) -> int:
        tables = self.right + [t for t, r in zip(self.left, self.right) if t is not r]
        return sum(len(t) - t.count(None) for t in tables)


class Envelope:
    """u(L) with exact PBW arithmetic and solvability measurements.

    ``force_dict`` runs a GF(2^k) algebra on ``_Sparse`` elements, the
    form of every other field, so tests can compare the two forms.
    """

    def __init__(self, algebra: RestrictedLieAlgebra, force_dict: bool = False):
        if algebra.n > MAX_ENVELOPE_N:
            raise EnvelopeTooLarge(
                f"u(L) of a dimension-{algebra.n} algebra has 2^{algebra.n} "
                f"monomials; envelopes are limited to dimension {MAX_ENVELOPE_N}")
        self.algebra = algebra
        self.field = algebra.field
        self.n = algebra.n
        self.dim = 1 << algebra.n
        self.stacked = isinstance(self.field, GF2k) and not force_dict
        # Always empty: every product lives in the generator tables.  It
        # stays because perfbench/tracing.py counts len(_cache) too.
        self._cache: dict = {}
        # a central x_z leaves every product table from the right (see the
        # module docstring); with none, _cmask is 0 and no fill strips one
        self._central = self._central_gens()
        self._cmask = sum(1 << z for z in self._central)
        self._mask_cache = _GenTables(self.n, self.dim, self._central)
        self._right = self._mask_cache.right
        self._left = self._mask_cache.left
        # The fills reach the envelope through a weak proxy: bound to
        # self they would put it in a reference cycle, and its tables
        # would wait for the cyclic collector to be freed.
        me = weakref.proxy(self)
        self._right_fill = [partial(Envelope._fill_right, me, g) for g in range(self.n)]
        self._left_fill = [self._right_fill[g] if g in self._central
                           else partial(Envelope._fill_left, me, g) for g in range(self.n)]
        if not self.stacked:
            self._zero = _Sparse(self.field)
            self._apply = _apply_sparse
            return
        self._zero = 0
        self._stack = Stacked(self.field.modulus, self.dim)
        self._apply = self._stack.apply

    # -- element constructors -----------------------------------------

    def one(self) -> dict:
        return {0: self.field.one}

    def gen(self, i: int) -> dict:
        return {1 << i: self.field.one}

    def monomial(self, mask: int) -> dict:
        return {mask: self.field.one}

    def from_algebra_vec(self, v: Sequence) -> dict:
        f = self.field
        return {1 << i: c for i, c in enumerate(v) if not f.is_zero(c)}

    # -- dict arithmetic --------------------------------------------------

    def add(self, a: dict, b: dict) -> dict:
        return addmul(self.field, dict(a), b)

    def mul(self, a: dict, b: dict) -> dict:
        """PBW normal form of the product a*b."""
        table, fill = self._products(self._native(a))
        return self._to_dict(self._apply(table, fill, self._native(b)))

    def lie(self, a: dict, b: dict) -> dict:
        x, y = self._native(a), self._native(b)
        return self._to_dict(self._apply(*self._products(x), y)
                             ^ self._apply(*self._products(y), x))

    def is_nilpotent(self, a: dict) -> Tuple[bool, Optional[int]]:
        """Square repeatedly; n+1 squarings decide nilpotency in dim 2^n."""
        return self._is_nilpotent(self._native(a))

    def _is_nilpotent(self, cur) -> Tuple[bool, Optional[int]]:
        """``is_nilpotent`` of a native element."""
        if not cur:
            return True, 0
        for m in range(1, self.n + 2):
            cur = self.mul_mask(cur, cur)
            if not cur:
                return True, m
        return False, None

    # -- native elements ----------------------------------------------------

    def to_mask(self, a: dict) -> int:
        """The stacked int of a dict element (GF(2^k) only)."""
        return stack_items(a.items(), self.dim)

    def from_mask(self, x: int) -> dict:
        """The dict element of a stacked int."""
        out: dict = {}
        st = self._stack
        for j, s in enumerate(st.offsets):
            for m in _bits(x >> s & st.plane):
                out[m] = out.get(m, 0) | 1 << j
        return out

    def mul_mask(self, a, b):
        """The product a*b of native elements of either form."""
        table, fill = self._products(a)
        return self._apply(table, fill, b)

    def lie_mask(self, a, b):
        return self.mul_mask(a, b) ^ self.mul_mask(b, a)

    # The five primitives below are the only methods, besides __init__
    # (which binds _apply to the kernel of the element form) and
    # _saturate, that tell the stacked form from the _Sparse one.

    def _native(self, a: dict):
        return self.to_mask(a) if self.stacked else _Sparse(self.field, a)

    def _to_dict(self, e) -> dict:
        return self.from_mask(e) if self.stacked else dict(e)

    def _mono(self, m: int):
        return 1 << m if self.stacked else _Sparse(self.field, {m: self.field.one})

    def _scale(self, c, x):
        """c*x for a nonzero scalar c."""
        return self._stack.scale(c, x) if self.stacked else x.scale(c)

    # -- the generator-table kernel -------------------------------------------

    def _right_entry(self, g: int, m: int):
        """m*x_g, from the right generator table."""
        e = self._right[g][m]
        return self._fill_right(g, m) if e is None else e

    def _left_entry(self, g: int, m: int):
        """x_g*m, from the left generator table."""
        e = self._left[g][m]
        return self._fill_left(g, m) if e is None else e

    def _fill_right(self, g: int, m: int):
        """right[g][m] = m*x_g, with x_g straightened into place; a central
        x_g not in m commutes into place at once."""
        top = m.bit_length() - 1
        if g > top or (self._cmask >> g & 1 and not m >> g & 1):
            out = self._mono(m | 1 << g)
        else:
            low = m ^ (1 << top)
            low_times = partial(self._right_entry, m=low)     # j -> low*x_j
            if g == top:
                out = self._combine(self.algebra.pmap[top], low_times)
            else:
                # low x_top x_g = (low x_g) x_top + low [x_top, x_g]
                out = (self._apply(self._right[top], self._right_fill[top],
                                   self._right_entry(g, low))
                       ^ self._combine(self.algebra._table[top][g], low_times))
        self._right[g][m] = out
        return out

    def _fill_left(self, g: int, m: int):
        """left[g][m] = x_g*m = (x_g*m')*x_top for m = m'*x_top."""
        if not m & ((2 << g) - 1):          # x_g is below every factor of m
            out = self._mono(m | 1 << g)
        else:
            top = m.bit_length() - 1
            out = self._apply(self._right[top], self._right_fill[top],
                              self._left_entry(g, m ^ (1 << top)))
        self._left[g][m] = out
        return out

    def _products(self, a, left: bool = False):
        """Lazy table of a*m (or m*a when ``left``) over the monomials m.

        Returns (table, fill) for ``_apply``.  An entry strips one factor
        of m: a central x_z first, (a*m')*x_z or (m'*a)*x_z, else
        a*m = (a*m')*x_top by the right generator tables or
        m*a = x_low*(m''*a) by the left ones.  A zero prefix costs no apply.
        """
        tables, fills = ((self._left, self._left_fill) if left
                         else (self._right, self._right_fill))
        apply, cmask = self._apply, self._cmask
        memo = [None] * self.dim
        memo[0] = a

        def fill_path(m):
            # strip one generator at a time down to a filled entry, then
            # multiply back up (a closure calling itself would be a cycle)
            path = []
            while memo[m] is None:
                g = (m & cmask or ((m & -m) if left else m)).bit_length() - 1
                path.append((m, g))
                m ^= 1 << g
            e = memo[m]
            for m, g in reversed(path):
                if e:
                    e = apply(tables[g], fills[g], e)
                memo[m] = e
            return e

        def fill(m):
            # the factor stripped: the top central one (left[z] is right[z])
            # else a*m = (a*m')*x_top or m*a = x_low*(m''*a)
            g = (m & cmask or ((m & -m) if left else m)).bit_length() - 1
            e = memo[m ^ (1 << g)]
            if e is None:
                return fill_path(m)
            if e:
                e = apply(tables[g], fills[g], e)
            memo[m] = e
            return e

        return memo, fill

    def _ad_table(self, a):
        """Lazy table of [a, m] = a*m + m*a over the monomials m, as (table, fill).

        [a, m'*x_z] = [a, m']*x_z for a central x_z, so only central-free
        entries use the memos of a*m and m*a.  A zero prefix costs no apply.
        """
        am, am_fill = self._products(a)
        ma, ma_fill = self._products(a, left=True)
        apply, right, left = self._apply, self._right, self._left
        right_fill, left_fill = self._right_fill, self._left_fill
        cmask = self._cmask
        ad = [None] * self.dim

        def fill(m):
            # strip the top central bit down to a filled entry or a central-free m
            path = []
            while m & cmask:
                g = (m & cmask).bit_length() - 1
                path.append((m, g))
                m ^= 1 << g
                if ad[m] is not None:
                    break
            e = ad[m]
            if e is None:
                # a*m = (a*m')*x_top and m*a = x_low*(m''*a), in one step
                # from a filled prefix, else through the path walk of _products
                x = am[m]
                if x is None:
                    g = m.bit_length() - 1
                    x = am[m ^ (1 << g)]
                    if x is None:
                        x = am_fill(m)
                    else:
                        x = am[m] = apply(right[g], right_fill[g], x) if x else x
                y = ma[m]
                if y is None:
                    g = (m & -m).bit_length() - 1
                    y = ma[m ^ (1 << g)]
                    if y is None:
                        y = ma_fill(m)
                    else:
                        y = ma[m] = apply(left[g], left_fill[g], y) if y else y
                e = ad[m] = x ^ y
            for m, g in reversed(path):
                if e:
                    e = apply(right[g], right_fill[g], e)
                ad[m] = e
            return e

        return ad, fill

    def _saturate(self, vectors, maps, ceiling: Optional[int] = None):
        """``saturate`` into a fresh eliminator, stopping at rank ``ceiling``.

        Returns the eliminator and the accepted inputs.
        """
        elim = Eliminator(self.field, self.dim, force_generic=not self.stacked)
        return elim, saturate(elim.add_planes, vectors, maps, ceiling)

    def _span(self, elems) -> Eliminator:
        """An eliminator holding the span of the native elements ``elems``."""
        return self._saturate(elems, ())[0]

    def _central_gens(self) -> List[int]:
        """The basis indices z of L with [b_z, b_j] = 0 for every j, read off
        the bracket adjacency ``_moves``.

        Each such x_z commutes with every generator, so it is central in u(L).
        """
        moves = self.algebra._moves
        return [z for z in range(self.n) if not moves[z]]

    def _d1_brackets(self, central: Sequence[int] = ()):
        """The brackets [m, x_g] of the monomials m with the generators x_g,
        both free of the indices in ``central``.

        In an associative algebra [a, bc] = [ab, c] + [ca, b], so by
        induction on the degree of the right factor every [a, m] lies in
        the span of the [a', x_g], and these n*2^n brackets span D_1 =
        [u(L), u(L)].  A central x_z brackets to 0 and factors out of a
        monomial, m*x_z, so with ``central`` the ones left span D_1 as a
        module over the algebra the x_z generate.  Each is a pair of
        table entries.
        """
        free = self.dim - 1
        for z in central:
            free ^= 1 << z
        for g in _bits(free):
            m = 0
            while True:         # the submasks m of free, in increasing order
                yield self._right_entry(g, m) ^ self._left_entry(g, m)
                if m == free:
                    break
                m = (m - free) & free

    def _series_step(self, candidates, central: Sequence[int] = (),
                     ceiling: Optional[int] = None):
        """One term of a derived series: the A-span of the ``candidates``.

        A is the central subalgebra generated by the x_z, z in ``central``
        (the field when it is empty), so the term is the span of the
        candidates closed under right multiplication by every x_z.  The
        step stops once the rank reaches ``ceiling``.  Returns the term's
        eliminator, its rank, and the module generators: the RREF basis of
        the span of the accepted candidates alone, which is the term's
        basis when A is the field.  Only then are the term's own rows
        read, so with central generators they are never back-substituted.
        """
        term, accepted = self._saturate(candidates, [self._times_gen(z) for z in central],
                                        ceiling)
        gens = self._span(accepted) if central else term
        return term, term.rank, gens.basis_planes()

    def _times_gen(self, g: int, left: bool = False):
        """The map v -> v*x_g (x_g*v when ``left``), one apply of a generator table."""
        if left:
            return partial(self._apply, self._left[g], self._left_fill[g])
        return partial(self._apply, self._right[g], self._right_fill[g])

    def _mul_gen(self, v, g: int):
        """v*x_g, from the right generator table."""
        return self._apply(self._right[g], self._right_fill[g], v)

    def _gen_mul(self, g: int, v):
        """x_g*v, from the left generator table."""
        return self._apply(self._left[g], self._left_fill[g], v)

    def _lie_gen(self, v, g: int):
        """[v, x_g] = v*x_g + x_g*v."""
        return self._mul_gen(v, g) ^ self._gen_mul(g, v)

    def _combine(self, vec: Sequence, term):
        """The sum of vec[g]*term(g) over the nonzero coordinates of ``vec``."""
        out, zero = self._zero, self.field.zero
        for g, c in enumerate(vec):
            if c != zero:
                out ^= self._scale(c, term(g))
        return out

    def _ad(self, a):
        """The map v -> [a, v], one apply of the lazy ad table of a."""
        return partial(self._apply, *self._ad_table(a))

    def _brackets_with(self, a, vs):
        """[a, v] for each v in ``vs``; one ad table of a serves all."""
        table, fill = self._ad_table(a)
        for v in vs:
            yield self._apply(table, fill, v)

    def _pair_brackets(self, elems: list):
        """[a, b] for every pair a before b of ``elems``."""
        for i in range(len(elems) - 1):
            yield from self._brackets_with(elems[i], elems[i + 1:])

    # -- coordinate rows ----------------------------------------------------

    def elem_from_row(self, row: Sequence) -> dict:
        f = self.field
        return {m: c for m, c in enumerate(row) if not f.is_zero(c)}

    def subspace_from_elems(self, elems: Sequence[dict]) -> Subspace:
        return self._span(self._native(e) for e in elems).to_subspace()

    # -- derived series oracle --------------------------------------------

    def lie_derived_series(self, max_steps: int = 64,
                           keep_terms: bool = False) -> SeriesResult:
        """D_0 = u(L), D_{k+1} = span[D_k, D_k], until 0 or stable.

        The terms are computed as modules over the algebra A generated by
        the central basis vectors of L (see the module docstring): D_1
        from the brackets [m, x_g] of monomials with generators free of
        the central indices (``_d1_brackets``), D_{k+1} from the brackets
        of pairs of module generators of D_k, each left factor through
        its ad table, and ``_series_step`` closes each span under A.
        Since D_{k+1} lies in D_k, the two are equal iff their ranks are:
        a step stops bracketing when its rank reaches dim D_k, and the
        series has stabilized.  Terms are compared by rank, not by rows.
        """
        dims = [self.dim]
        central = self._central
        terms: Optional[List[Subspace]] = None
        if keep_terms:
            terms = [Subspace.full(self.field, self.dim)]
        prev = gens = None
        for _ in range(max_steps):
            elim, rank, gens = self._series_step(
                self._d1_brackets(central) if gens is None else self._pair_brackets(gens),
                central, dims[-1])
            dims.append(rank)
            if keep_terms:
                terms.append(elim.to_subspace())
            if not rank:
                return SeriesResult(dims, "reached_zero", len(dims) - 1, terms)
            if rank == prev:
                return SeriesResult(dims, "stabilized", rank, terms)
            prev = rank
        return SeriesResult(dims, "budget_exceeded", dims[-1], terms)

    # -- Lie-solvability witness machinery ---------------------------------

    def sz_ideal(self) -> List[dict]:
        """Basis of the two-sided ideal generated by all [[a,b],[c,d],e].

        D_1 and D_2 are computed as in ``lie_derived_series``, as modules
        over the algebra A generated by the central basis vectors.  The
        ideal is generated by the [u, x_g] for u in D_2 and generators
        x_g, because [u, m1*m2] = [u, m1]*m2 + m1*[u, m2] puts every
        [u, m] in the ideal they generate.  For u = c*s with c in A,
        [c*s, x_g] = c*[s, x_g], so the [s, x_g] for the module generators
        s of D_2 and the non-central x_g suffice.
        """
        ideal, _ = self._sz_ideal()
        return [self._to_dict(e) for e in ideal.basis_planes()]

    def _sz_ideal(self):
        """The eliminator of the sz ideal and the seeds [s, x_g] that generate it.

        The seeds are closed under left and right multiplication by the
        generators; a seed is kept only if it was not already in the
        ideal of the seeds before it, so the kept ones still generate it.
        """
        central = self._central
        _, d1_rank, d1_gens = self._series_step(self._d1_brackets(central), central)
        _, _, d2_gens = self._series_step(self._pair_brackets(d1_gens), central, d1_rank)
        moved = [g for g in range(self.n) if g not in central]
        sides = [self._times_gen(g) for g in range(self.n)]
        sides += [self._times_gen(g, left=True) for g in moved]      # x_z*v = v*x_z
        return self._saturate((self._lie_gen(s, g) for s in d2_gens for g in moved), sides)

    def sz_nilpotency(self) -> SZResult:
        """Associative nilpotency index of the ideal I from sz_ideal.

        The powers come from ``_power_index`` and the seeds of I; a*s is
        one apply of the lazy table of m*s, which serves every power.
        """
        ideal, seeds = self._sz_ideal()
        if not ideal.rank:
            return SZResult(True, 1, 0)
        times = [partial(self._apply, *self._products(s, left=True)) for s in seeds]
        index, stable = self._power_index(ideal.basis_planes(), times)
        if index is not None:
            return SZResult(True, index, ideal.rank)
        return SZResult(False, None, ideal.rank, self._pick_non_nilpotent(stable))

    def _power_index(self, basis: list, times: list):
        """(m, None) for the least m with I^m = 0, or (None, the RREF basis of I^p = I^(p+1)).

        I is spanned by ``basis`` and generated as a two-sided ideal by
        seeds s, and ``times`` holds the maps a -> a*s.  As I^p is an
        ideal, I^(p+1) = I^p*S*u(L): the a*s for a in a basis of I^p,
        closed under right multiplication by the generators.  It lies in
        I^p, so it stops once its rank reaches dim I^p.
        """
        right = [self._times_gen(g) for g in range(self.n)]
        power = 1
        while True:
            elim, _ = self._saturate((f(a) for a in basis for f in times), right, len(basis))
            nxt = elim.basis_planes()
            if not nxt:
                return power + 1, None
            if len(nxt) == len(basis):
                return None, nxt
            basis = nxt
            power += 1

    def _pick_non_nilpotent(self, basis) -> dict:
        for e in basis:
            if not self._is_nilpotent(e)[0]:
                return self._to_dict(e)
        return self._to_dict(basis[0])

    # -- structural checks from the solvable side ---------------------------

    def element_str(self, a: dict) -> str:
        names = self.algebra.names
        return terms_str(self.field, (
            ("*".join(names[i] for i in _bits(m)) if m else "1", a[m])
            for m in sorted(a, key=lambda m: (bin(m).count("1"), m))))


def envelope_augmentation_nilpotent(L: RestrictedLieAlgebra) -> Tuple[bool, Optional[int]]:
    """Oracle: is the augmentation ideal of u(L) associative nilpotent?

    Used to cross-check the chain criterion for 2-nilpotency of ideals.
    """
    env = Envelope(L)
    # the augmentation ideal is generated by the x_g, and a*x_g is one generator-table apply
    index, _ = env._power_index([env._mono(m) for m in range(1, env.dim)],
                                [env._times_gen(g) for g in range(env.n)])
    return index is not None, index


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


def _bracket_span(env: Envelope, us, vs=None) -> Eliminator:
    """Span of the [u, v] for u in ``us`` and v in ``vs`` (pairs of ``us`` if None)."""
    if vs is None:
        return env._span(env._pair_brackets(us))
    return env._span(w for u in us for w in env._brackets_with(u, vs))


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
    quot = Quotient(z)
    xs = list(quot.lifted)
    new_basis = xs + list(z.basis())
    names = [f"x{i+1}" for i in range(r)] + [f"z{i+1}" for i in range(z.dim)]
    M = L.rebase(new_basis, names=names)
    env = Envelope(M)
    zdim = z.dim
    zmasks = [m << r for m in range(1 << zdim)]
    x1, x2, x3 = (1 << i if i < r else 0 for i in range(3))
    # the set drops duplicate masks caused by missing generators
    w_h = sorted({x1, x2, x3, x1 | x2, x1 | x3, x2 | x3, 0})
    w_k = sorted({x1, x2, x3, 0})
    w_m = sorted({x1 | x2, x1 | x3, x2 | x3} - {x1, x2, x3, 0})

    def mask_family(ws):
        return [w | mz for w in ws for mz in zmasks]

    h_masks = mask_family(w_h)
    k_masks = mask_family(w_k)
    m_masks = mask_family(w_m)
    h_space = _monomial_subspace(env, h_masks)
    k_space = _monomial_subspace(env, k_masks)
    h_elems = [env._mono(m) for m in h_masks]
    k_elems = [env._mono(m) for m in k_masks]
    m_elems = [env._mono(m) for m in m_masks]
    all_mons = [env._mono(m) for m in range(env.dim)]

    checks = []
    br_hg = _bracket_span(env, h_elems, all_mons).to_subspace()
    checks.append(("bracket of h with u(L) stays in h", h_space.contains(br_hg)))
    br_gg = env._span(env._d1_brackets()).to_subspace()
    checks.append(("u(L)/h is abelian", h_space.contains(br_gg)))
    br_kh = _bracket_span(env, k_elems, h_elems).to_subspace()
    checks.append(("bracket of k with h stays in k", k_space.contains(br_kh)))
    k_d1_elems = _bracket_span(env, k_elems).basis_planes()
    k_d2 = _bracket_span(env, k_d1_elems)
    checks.append(("second derived of k vanishes", k_d2.rank == 0))
    if r == 3:
        e1 = env.lie(env.monomial(x1 | x2), env.monomial(x1 | x3))
        e2 = env.lie(env.monomial(x1 | x2), env.monomial(x2 | x3))
        e3 = env.lie(env.monomial(x1 | x3), env.monomial(x2 | x3))
        es = [e1, e2, e3]
        br_ee = env.subspace_from_elems([env.lie(a, b) for a in es for b in es])
        checks.append(("pair-product brackets commute modulo k", k_space.contains(br_ee)))
    else:
        checks.append(("pair-product brackets commute modulo k", True))
    md1_elems = env._span(chain(env._pair_brackets(m_elems), k_elems)).basis_planes()
    md2 = _bracket_span(env, md1_elems).to_subspace()
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
            m, c = rng.randrange(env.dim), f.random(rng)
            if not f.is_zero(c):
                addmul(f, out, {m: c})
        return out

    candidates = [(env.gen(i), env.gen(j)) for i in range(M.n) for j in range(M.n)]
    candidates += [(rand_elem(), rand_elem()) for _ in range(pairs)]
    for r, s in candidates:
        if phi(env.mul(r, s)) != mat_mul(phi(r), phi(s)):
            return False
    return True
