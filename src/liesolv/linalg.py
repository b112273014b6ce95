"""Exact linear algebra over the characteristic-2 coefficient fields.

Vectors live as the rows of an ``Eliminator``, in the row form of their
field; scalar tuples appear only at the edge (spec files, printed
elements, certificates, ``--json``), where ``encode`` and ``decode``
convert.  Over GF(2^k) a row is one stacked int, the layout ``Stacked``
describes and ``envelope.Envelope`` uses for elements of u(L): k*W bits
for a row of length W, plane j (the bits [j*W, (j+1)*W)) holding bit j
of every coordinate.  Adding rows is one XOR, and a scalar multiple is
one Horner pass in t, so a row operation costs O(k) big-int operations
regardless of the ambient dimension.  Over GF(2) the row is the bitmask
of its nonzero coordinates.  Over any other field (F2(X,Y)) a row is a
``_Sparse`` dict {column: scalar}, the form u(L)'s elements take there;
``addmul`` sums these and every other sparse dict, U(L)'s elements
included.  Every form adds rows with ``^`` and is zero iff falsy, and
``Eliminator.apply`` sums a table of rows weighted by the coordinates of
a row: the product-table kernel of u(L) and the bracket of
``algebra.LieAlgebra``.

An eliminator keeps its rows keyed by pivot and fully reduced, so
reducing a vector touches only the pivots in its support.  A Subspace
keeps those RREF rows, so two subspaces are equal iff their rows are
identical; it decodes them to tuples once, when asked.  A Quotient is
the whole space modulo a subspace: the columns that are not the
subspace's pivots give the quotient's basis and coordinates directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .fields import GF2k, FieldMismatch


class DimensionMismatch(Exception):
    pass


# ----------------------------------------------------------------------
# stacked rows over GF(2^k)
# ----------------------------------------------------------------------

def stack_items(items: Iterable[Tuple[int, int]], width: int) -> int:
    """The stacked int of width ``width`` with coordinate c at column m
    for each (m, c) of ``items``."""
    out = 0
    for m, c in items:
        while c:
            if c & 1:
                out |= 1 << m
            c >>= 1
            m += width
    return out


def pack_row(vec: Sequence[int]) -> int:
    """The stacked int of a GF(2^k) vector."""
    return stack_items(enumerate(vec), len(vec))


class Stacked:
    """Arithmetic on the stacked ints of width ``width`` over GF(2^k) =
    GF(2)[t]/(modulus), k the degree of ``modulus``.

    Plane j, the bits [j*width, (j+1)*width), holds bit j of every
    coordinate: the bit-sliced layout of M4RIE.  Multiplying by t moves
    every plane up one and folds plane k back by the modulus.  ``apply``
    is the product-table kernel of ``envelope.Envelope`` on this layout,
    and ``pair`` the bracket kernel of ``algebra.LieAlgebra``.
    """

    __slots__ = ("k", "width", "plane", "offsets", "top", "fold", "column", "mul_t", "apply",
                 "pair")

    def __init__(self, modulus: int, width: int):
        k = self.k = modulus.bit_length() - 1
        self.width = width
        plane = self.plane = (1 << width) - 1
        offsets = self.offsets = tuple(j * width for j in range(k))  # plane j at bit j*width
        top = self.top = k * width
        # t^k = sum of t^j over the bits j < k of the modulus
        fold = self.fold = tuple(j * width for j in range(k) if modulus >> j & 1)
        column = self.column = sum(1 << s for s in offsets)  # bit 0 of every plane
        planes = offsets[::-1]
        high = planes[0]

        # closures over the layout's numbers, built once, so a call loads
        # no attribute; they hold no object, so they make no reference cycle
        def mul_t(x: int) -> int:
            """t*x."""
            x <<= width
            t = x >> top
            if t:
                x ^= t << top
                for s in fold:
                    x ^= t << s
            return x

        def apply(table: list, fill, x: int) -> int:
            """Sum of c_m*table[m] over the columns m of x, c_m their
            coordinates; entries still None are computed by fill(m).  Plane
            j of x adds t^j times the XOR of the entries at its set bits."""
            acc = 0
            for s in planes:
                if acc:             # acc = t*acc, mul_t inlined
                    acc <<= width
                    t = acc >> top
                    if t:
                        acc ^= t << top
                        for f in fold:
                            acc ^= t << f
                p = x >> s
                if s != high:       # the top plane needs no mask
                    p &= plane
                while p:            # top bit first: p & -p is slower on big ints
                    m = p.bit_length() - 1
                    e = table[m]
                    if e is None:
                        e = fill(m)
                    acc ^= e
                    p ^= 1 << m
            return acc

        def pair(table: list, masks: list, x: int, y: int) -> int:
            """Sum of a_i*b_j*table[i][j] over the columns i of x and the
            columns j of y in masks[i], a and b the coordinates: the apply
            to x of the rows r_i = sum of b_j*table[i][j], each made by one
            apply, and only where y meets masks[i]."""
            sx, sy, p, q = 0, 0, x, y
            while p:                        # the supports: OR of the planes
                sx |= p & plane
                p >>= width
            while q:
                sy |= q & plane
                q >>= width
            rows = None
            while sx:
                i = sx.bit_length() - 1
                sx ^= 1 << i
                m = masks[i] & sy
                if m:
                    if rows is None:
                        rows = [0] * width
                    rows[i] = apply(table[i], None, y & m * column)
            return 0 if rows is None else apply(rows, None, x)

        self.mul_t = mul_t
        self.apply = apply
        self.pair = pair

    def scale(self, c: int, x: int) -> int:
        """c*x for a scalar c, by Horner's rule over the bits of c."""
        if c == 1:
            return x
        out = 0
        for j in reversed(range(self.k)):
            if out:
                out = self.mul_t(out)
            if c >> j & 1:
                out ^= x
        return out

    def support(self, x: int) -> int:
        """The bitmask of the columns where x is nonzero."""
        s, plane, width = 0, self.plane, self.width
        while x:
            s |= x & plane
            x >>= width
        return s

    def coord(self, x: int, j: int) -> int:
        """The coordinate of x at column j."""
        x >>= j
        c = 0
        for i, s in enumerate(self.offsets):
            c |= (x >> s & 1) << i
        return c


# Eliminators are built by the thousand and most are small, so the
# layouts they need are shared rather than rebuilt: a new Stacked per
# eliminator makes building one over GF(4) about 4x slower.
_stacked = lru_cache(maxsize=256)(Stacked)


def addmul(field, out: dict, other: dict, c=None) -> dict:
    """Add c*other (other itself when c is None) into the sparse dict
    ``out`` in place, deleting the keys whose sum is zero; returns ``out``.

    Sparse dicts map a key to a nonzero scalar; c, when given, is nonzero.
    """
    add, is_zero = field.add, field.is_zero
    if c is not None and c != field.one:
        mul = field.mul
        other = {m: mul(c, x) for m, x in other.items()}
    for m, x in other.items():
        if m in out:
            s = add(out[m], x)
            if is_zero(s):
                del out[m]
            else:
                out[m] = s
        else:
            out[m] = x
    return out


def terms_str(field, terms: Iterable[Tuple[str, object]]) -> str:
    """``c·mono + ...`` for the (mono, c) pairs of ``terms``, just ``mono``
    where c is 1; "0" when there are none."""
    one, to_str = field.one, field.to_str
    parts = [mono if c == one else f"{to_str(c)}·{mono}" for mono, c in terms]
    return " + ".join(parts) if parts else "0"


class _Sparse(dict):
    """A sparse vector {column: scalar} storing no zero; ``^`` is addition.

    ``^`` and ``scale`` return new vectors and leave their operands
    alone: ``envelope.Envelope`` shares these as table entries.
    """

    __slots__ = ("field",)

    def __init__(self, field, items=()):
        super().__init__(items)
        self.field = field

    def __xor__(self, other: dict) -> "_Sparse":
        return addmul(self.field, _Sparse(self.field, self), other)

    def scale(self, c) -> "_Sparse":
        """c times this vector, for a nonzero scalar c."""
        f = self.field
        if c == f.one:
            return self
        return _Sparse(f, {m: f.mul(c, v) for m, v in self.items()})


def _bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _apply_sparse(table: list, fill, x):
    """Sum of c_m*table[m] over the columns m of a ``_Sparse`` row x, c_m
    their coordinates; entries still None are computed by fill(m)."""
    acc = _Sparse(x.field)
    for m, c in x.items():
        e = table[m]
        if e is None:
            e = fill(m)
        addmul(acc.field, acc, e, c)
    return acc


def _pair_sparse(table: list, masks: list, x: dict, y: dict):
    """``Stacked.pair`` on ``_Sparse`` rows."""
    f = x.field
    acc = _Sparse(f)
    for i, a in x.items():
        row, m = table[i], masks[i]
        for j, b in y.items():
            if m >> j & 1:
                addmul(f, acc, row[j], f.mul(a, b))
    return acc


class Eliminator:
    """Incremental RREF of a growing span, on the rows of its back end.

    ``Eliminator(field, ambient)`` builds ``_GF2Elim`` over GF(2),
    ``_PackedElim`` over GF(2^k), k > 1, and ``_GenericElim`` otherwise
    or with ``force_generic``, which lets tests cross-check the three.
    ``add``, ``add_planes`` and ``basis_planes`` take and give the back
    end's own rows; ``add_vector``, ``residue`` and ``basis_rows`` speak
    scalar tuples.  ``rows`` maps each pivot to its row, 1 at the pivot
    and 0 at the other pivots, so ``reduce`` subtracts each row in a
    vector's support once.  A back end supplies ``reduce`` and ``add``
    and keeps ``pivmask``, one bit per pivot.

    An eliminator is also the row form of its width: ``encode``,
    ``decode``, ``apply``, ``pair`` and the column moves below act on
    rows of length ``ambient``.  They are written here for stacked ints,
    and ``_GenericElim`` writes them for ``_Sparse`` rows.
    """

    zero = 0

    def __new__(cls, field, ambient: int, force_generic: bool = False):
        if cls is Eliminator:
            if force_generic or not isinstance(field, GF2k):
                cls = _GenericElim
            else:
                # bare XOR over GF(2): through _PackedElim, where every scalar
                # is 1, sz-ideal and series-gf2 run 10-14% slower
                cls = _GF2Elim if field.k == 1 else _PackedElim
        return object.__new__(cls)

    def __init__(self, field, ambient: int, force_generic: bool = False):
        self.field = field
        self.ambient = ambient
        self.rows: dict = {}
        self.pivmask = 0
        if isinstance(self, _GenericElim):
            self.zero = _Sparse(field)
            self.apply, self.pair = _apply_sparse, _pair_sparse
        else:
            st = self.stack = _stacked(field.modulus, ambient)
            self.apply, self.pair = st.apply, st.pair

    # -- the row form -----------------------------------------------------

    encode = staticmethod(pack_row)

    def pack(self, items: Iterable[Tuple[int, object]]):
        """The row with coordinate c at column m for each (m, c) of items, c nonzero."""
        return stack_items(items, self.ambient)

    def decode(self, x: int) -> Tuple[int, ...]:
        n = self.ambient
        out, plane = [0] * n, (1 << n) - 1
        for i in range(self.field.k):
            p = x >> i * n & plane
            while p:
                low = p & -p
                out[low.bit_length() - 1] |= 1 << i
                p ^= low
        return tuple(out)

    def unit(self, j: int):
        return 1 << j

    def frobenius(self, x):
        """The row of the squares of x's coordinates: with c = sum c_j t^j,
        c^2 = sum c_j t^(2j), so the planes are summed by Horner's rule in t^2."""
        st = self.stack
        out = 0
        for s in reversed(st.offsets):
            out = st.mul_t(st.mul_t(out)) ^ (x >> s & st.plane)
        return out

    def place(self, x, width: int, at: int):
        """The row x of length ``width`` moved to the columns [at, at + width)."""
        mask = (1 << width) - 1
        return sum((x >> j * width & mask) << s + at for j, s in enumerate(self.stack.offsets))

    def block(self, x, at: int, width: int):
        """Columns [at, at + width) of x as a row of length ``width``."""
        mask = (1 << width) - 1
        return sum((x >> s + at & mask) << j * width for j, s in enumerate(self.stack.offsets))

    def gather(self, x, cols: Sequence[int]):
        """The row of length len(cols) whose coordinate i is x's at cols[i]."""
        d, out = len(cols), 0
        for j, s in enumerate(self.stack.offsets):
            p = x >> s
            for i, c in enumerate(cols):
                if p >> c & 1:
                    out |= 1 << j * d + i
        return out

    def scatter(self, y, cols: Sequence[int]):
        """The row whose coordinate at cols[i] is y's at i, and 0 elsewhere."""
        d, out = len(cols), 0
        for j, s in enumerate(self.stack.offsets):
            for i in _bits(y >> j * d & (1 << d) - 1):
                out |= 1 << s + cols[i]
        return out

    # -- the span ---------------------------------------------------------

    def _row(self, vec: Sequence):
        if len(vec) != self.ambient:
            raise DimensionMismatch(f"vector length {len(vec)} != ambient {self.ambient}")
        return self.encode(vec)

    def load(self, planes: Sequence, pivots: Sequence[int]) -> None:
        """Take the RREF rows ``planes`` of this back end, with pivots ``pivots``, as they are."""
        self.rows = dict(zip(pivots, planes))
        self.pivmask = sum(1 << p for p in pivots)

    def add_vector(self, vec: Sequence) -> bool:
        return self.add(self._row(vec))

    def add_planes(self, x) -> bool:
        """Add x, a row of this back end."""
        return self.add(x)

    def add_mask(self, mask: int) -> bool:
        """GF(2) convenience: the row is one bitmask."""
        if not isinstance(self, _GF2Elim):
            raise FieldMismatch("bitmask rows need a packed GF(2) eliminator")
        return self.add(mask)

    def residue(self, vec: Sequence) -> Tuple:
        return self.decode(self.reduce(self._row(vec)))

    def contains_vector(self, vec: Sequence) -> bool:
        return not self.reduce(self._row(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> List[int]:
        return sorted(self.rows)

    def basis_planes(self) -> list:
        """The rows in pivot order."""
        rows = self.rows
        return [rows[p] for p in sorted(rows)]

    def basis_rows(self) -> List[Tuple]:
        return [self.decode(r) for r in self.basis_planes()]

    def to_subspace(self) -> "Subspace":
        planes = self.basis_planes()
        if isinstance(self, _GenericElim) and isinstance(self.field, GF2k):
            # a forced dict back end: a Subspace keeps the field's own row form
            form = row_form(self.field, self.ambient)
            planes = [form.encode(self.decode(r)) for r in planes]
        return Subspace._from_rref(self.field, self.ambient, planes, self.pivots)


class _GF2Elim(Eliminator):
    """Over GF(2): a row is the bitmask of its nonzero coordinates."""

    def reduce(self, x: int) -> int:
        rows = self.rows
        hit = x & self.pivmask
        while hit:
            low = hit & -hit
            x ^= rows[low.bit_length() - 1]
            hit ^= low
        return x

    def add(self, x: int) -> bool:
        x = self.reduce(x)
        if not x:
            return False
        low = x & -x
        rows = self.rows
        for p, row in rows.items():
            if row & low:
                rows[p] = row ^ x
        rows[low.bit_length() - 1] = x
        self.pivmask |= low
        return True


class _PackedElim(Eliminator):
    """Over GF(2^k), k > 1: a row is a stacked int.

    A new row is subtracted from every stored row that is nonzero at its
    pivot: one AND with the pivot's column in every plane finds them, and
    only those have their coordinate read.
    """

    def reduce(self, x: int) -> int:
        st, rows = self.stack, self.rows
        hit = st.support(x) & self.pivmask
        while hit:
            low = hit & -hit
            p = low.bit_length() - 1
            x ^= st.scale(st.coord(x, p), rows[p])
            hit ^= low
        return x

    def add(self, x: int) -> bool:
        x = self.reduce(x)
        if not x:
            return False
        st = self.stack
        low = st.support(x)
        low &= -low
        j = low.bit_length() - 1
        lead = st.coord(x, j)
        if lead != 1:
            x = st.scale(self.field.inv(lead), x)
        col = st.column << j
        rows = self.rows
        for p, row in rows.items():
            if row & col:
                rows[p] = row ^ st.scale(st.coord(row, j), x)
        rows[j] = x
        self.pivmask |= low
        return True


class _GenericElim(Eliminator):
    """Over any field: a row is a ``_Sparse`` dict, the form u(L)'s
    elements take off GF(2^k)."""

    def pack(self, items) -> _Sparse:
        return _Sparse(self.field, items)

    def encode(self, vec: Sequence) -> _Sparse:
        f = self.field
        return _Sparse(f, ((j, c) for j, c in enumerate(vec) if not f.is_zero(c)))

    def decode(self, x: dict) -> Tuple:
        out = [self.field.zero] * self.ambient
        for j, c in x.items():
            out[j] = c
        return tuple(out)

    def unit(self, j: int) -> _Sparse:
        return _Sparse(self.field, {j: self.field.one})

    def frobenius(self, x: dict) -> _Sparse:
        return self.pack((j, self.field.mul(c, c)) for j, c in x.items())

    def place(self, x: dict, width: int, at: int) -> _Sparse:
        return self.pack((j + at, c) for j, c in x.items())

    def block(self, x: dict, at: int, width: int) -> _Sparse:
        return self.pack((j - at, c) for j, c in x.items() if at <= j < at + width)

    def gather(self, x: dict, cols: Sequence[int]) -> _Sparse:
        return self.pack((i, x[c]) for i, c in enumerate(cols) if c in x)

    def scatter(self, y: dict, cols: Sequence[int]) -> _Sparse:
        return self.pack((cols[i], c) for i, c in y.items())

    def reduce(self, x: _Sparse) -> _Sparse:
        rows = self.rows
        for p in [p for p in x if p in rows]:
            x = x ^ rows[p].scale(x[p])
        return x

    def add(self, x: _Sparse) -> bool:
        x = self.reduce(x)
        if not x:
            return False
        j = min(x)
        if x[j] != self.field.one:
            x = x.scale(self.field.inv(x[j]))
        rows = self.rows
        for p, row in rows.items():
            if j in row:
                rows[p] = row ^ x.scale(row[j])
        rows[j] = x
        self.pivmask |= 1 << j
        return True


# The row form of a field and width, for the work that needs no span:
# shared like the layouts, and never given a row.
row_form = lru_cache(maxsize=256)(Eliminator)


# ----------------------------------------------------------------------
# Subspace
# ----------------------------------------------------------------------

class Subspace:
    """A subspace in canonical RREF form: ``planes`` are its eliminator's
    rows in pivot order, so equality is row-for-row identity.  ``rows``
    and ``basis()`` give them as scalar tuples, decoded once."""

    __slots__ = ("field", "ambient", "planes", "pivots", "_rows")

    def __init__(self, field, ambient: int, vectors: Iterable[Sequence] = ()):
        elim = Eliminator(field, ambient)
        for v in vectors:
            elim.add_vector(v)
        self.field = field
        self.ambient = ambient
        self.planes = tuple(elim.basis_planes())
        self.pivots = tuple(elim.pivots)
        self._rows = None

    @classmethod
    def _from_rref(cls, field, ambient, planes, pivots) -> "Subspace":
        self = object.__new__(cls)
        self.field = field
        self.ambient = ambient
        self.planes = tuple(planes)
        self.pivots = tuple(pivots)
        self._rows = None
        return self

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls._from_rref(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        unit = row_form(field, ambient).unit
        return cls._from_rref(field, ambient, map(unit, range(ambient)), range(ambient))

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        if self._rows is None:
            self._rows = tuple(map(row_form(self.field, self.ambient).decode, self.planes))
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.planes == other.planes)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def _check_compatible(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatch("subspaces over different fields")
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces in different ambient spaces")

    def elim(self) -> Eliminator:
        """An eliminator holding this subspace; its rows are already RREF."""
        e = Eliminator(self.field, self.ambient)
        e.load(self.planes, self.pivots)
        return e

    def contains_vector(self, vec: Sequence) -> bool:
        return self.elim().contains_vector(vec)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        reduce = self.elim().reduce
        return not any(map(reduce, other.planes))

    def sum_intersect(self, other: "Subspace") -> Tuple["Subspace", "Subspace"]:
        """Zassenhaus double-block elimination: one pass gives both."""
        self._check_compatible(other)
        f, n = self.field, self.ambient
        elim = Eliminator(f, 2 * n)
        for r in self.planes:
            elim.add(elim.place(r, n, 0) ^ elim.place(r, n, n))
        for r in other.planes:
            elim.add(elim.place(r, n, 0))
        # both come out in RREF: the left block of the rows with pivot < n
        # spans the sum, the right block of the others the intersection
        total, inter = [], []
        for piv, row in zip(elim.pivots, elim.basis_planes()):
            if piv < n:
                total.append((elim.block(row, 0, n), piv))
            else:
                inter.append((elim.block(row, n, n), piv - n))
        return _from_pairs(f, n, total), _from_pairs(f, n, inter)

    def sum(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[0]

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[1]

    def basis(self) -> List[Tuple]:
        return list(self.rows)


def _from_pairs(field, ambient: int, pairs: Sequence[Tuple[object, int]]) -> Subspace:
    """The subspace of RREF rows given as (row, pivot) pairs, taken as they are."""
    return Subspace._from_rref(field, ambient, [r for r, _ in pairs], [p for _, p in pairs])


def span(field, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
    return Subspace(field, ambient, vectors)


def span_rows(field, ambient: int, rows: Iterable) -> Subspace:
    """The span of rows in the row form of ``Eliminator(field, ambient)``."""
    elim = Eliminator(field, ambient)
    for r in rows:
        elim.add(r)
    return elim.to_subspace()


def saturate(add: Callable[[object], bool], vectors: Iterable, maps: Sequence[Callable] = (),
             ceiling: Optional[int] = None) -> list:
    """Close a span under linear maps with one worklist; returns the accepted inputs.

    ``add`` puts a vector into the span and returns True when it is new,
    that is when the rank grows by one.  Every map is applied to each
    new input, and to each new image in turn, before the next input is
    read.  The loop ends once ``ceiling`` vectors are new, a known bound
    on the rank the span can gain.
    """
    accepted, queue, rank = [], [], 0
    for v in vectors:
        if not add(v):
            continue
        accepted.append(v)
        queue.append(v)
        rank += 1
        while queue:
            if rank == ceiling:
                return accepted
            u = queue.pop()
            for f in maps:
                w = f(u)
                if add(w):
                    queue.append(w)
                    rank += 1
    return accepted


def kernel(field, images: Sequence[Sequence], dom: int, codom: int) -> Subspace:
    """Kernel of the linear map sending basis vector i to images[i], scalar tuples."""
    if len(images) != dom:
        raise DimensionMismatch("one image per domain basis vector required")
    form = row_form(field, codom)
    return kernel_rows(field, [[form._row(img)] for img in images], codom)


def kernel_rows(field, images: Sequence[Sequence], width: int) -> Subspace:
    """Kernel of the linear map sending basis vector i to the rows of
    images[i], each of length ``width``, laid end to end.

    Row-reduces [images | I]; rows whose pivot falls in the augmented
    block are exactly the dependencies, i.e. a kernel basis, and their
    augmented blocks are already in RREF.
    """
    dom = len(images)
    codom = width * max(map(len, images), default=0)
    elim = Eliminator(field, codom + dom)
    for i, blocks in enumerate(images):
        x = elim.unit(codom + i)
        for b, r in enumerate(blocks):
            if r:
                x = x ^ elim.place(r, width, b * width)
        elim.add(x)
    return _from_pairs(field, dom, [(elim.block(row, codom, dom), piv - codom) for piv, row
                                    in zip(elim.pivots, elim.basis_planes()) if piv >= codom])


class Quotient:
    """Coordinates on the whole space modulo sub, read off the RREF pivots of sub.

    The columns that are not pivots of sub index a basis of the quotient:
    their unit vectors are the lifted basis, and a vector's coordinates
    are its residue modulo sub read at those columns.
    """

    def __init__(self, sub: Subspace):
        self.field = sub.field
        self.ambient = sub.ambient
        self._sub_elim = sub.elim()
        pivots = set(sub.pivots)
        self.lift_pivots = [j for j in range(sub.ambient) if j not in pivots]
        self.dim = len(self.lift_pivots)

    @property
    def lifted(self) -> List[Tuple]:
        """The lifted basis, as scalar tuples."""
        return [unit_vector(self.field, self.ambient, j) for j in self.lift_pivots]

    def project(self, vec: Sequence) -> Tuple:
        """Quotient coordinates of vec."""
        r = self._sub_elim.residue(vec)
        return tuple(r[j] for j in self.lift_pivots)

    def project_row(self, x):
        """Quotient coordinates of the row x, as a row of length ``dim``."""
        e = self._sub_elim
        return e.gather(e.reduce(x), self.lift_pivots)

    def lift(self, coords: Sequence) -> Tuple:
        """The vector with coords at the lifted columns and zero elsewhere."""
        out = [self.field.zero] * self.ambient
        for j, c in zip(self.lift_pivots, coords):
            out[j] = c
        return tuple(out)

    def lift_row(self, y):
        """The row with the row y's coordinates at the lifted columns."""
        return self._sub_elim.scatter(y, self.lift_pivots)


def lin_comb(field, coeffs: Sequence, rows: Sequence[Sequence], ambient: int) -> Tuple:
    """sum coeffs[i] * rows[i], a vector of length ambient."""
    out = [field.zero] * ambient
    for c, row in zip(coeffs, rows):
        if not field.is_zero(c):
            for j, x in enumerate(row):
                if not field.is_zero(x):
                    out[j] = field.add(out[j], field.mul(c, x))
    return tuple(out)


def vec_add(field, u: Sequence, v: Sequence) -> Tuple:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_scale(field, c, v: Sequence) -> Tuple:
    return tuple(field.mul(c, a) for a in v)


def vec_is_zero(field, v: Sequence) -> bool:
    return all(field.is_zero(a) for a in v)


def unit_vector(field, ambient: int, i: int) -> Tuple:
    out = [field.zero] * ambient
    out[i] = field.one
    return tuple(out)
