"""Exact linear algebra over the characteristic-2 coefficient fields.

Vectors are tuples of scalars; a Subspace is a canonical reduced
row-echelon basis, so two subspaces are equal iff their stored rows are
identical.

An ``Eliminator`` keeps the RREF basis of a growing span in the row
form of its field.  Over GF(2^k) a row is one stacked int, the layout
``Stacked`` describes and ``envelope.Envelope`` uses for elements of
u(L): k*W bits for a row of length W, plane j (the bits [j*W, (j+1)*W))
holding bit j of every coordinate.  Adding rows is one XOR, and a scalar
multiple is one Horner pass in t, so a row operation costs O(k) big-int
operations regardless of the ambient dimension.  Over GF(2) the row is
the bitmask of its nonzero coordinates and elimination is bare XOR.
Over any other field (F2(X,Y)) a row is a ``_Sparse`` dict {column:
scalar}, the form u(L)'s elements take there; ``addmul`` sums these and
every other sparse dict, U(L)'s elements included.  Rows are keyed by
pivot and kept fully reduced, so reducing a vector touches only the
pivots in its support.

A Quotient is the whole space modulo a subspace.  The subspace is in
RREF, so the columns that are not its pivots give the quotient's basis
and coordinates directly.
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
    is the product-table kernel of ``envelope.Envelope`` on this layout.
    """

    __slots__ = ("k", "width", "plane", "offsets", "top", "fold", "column", "mul_t", "apply")

    def __init__(self, modulus: int, width: int):
        k = self.k = modulus.bit_length() - 1
        self.width = width
        plane = self.plane = (1 << width) - 1
        self.offsets = tuple(j * width for j in range(k))  # plane j starts at bit j*width
        top = self.top = k * width
        # t^k = sum of t^j over the bits j < k of the modulus
        fold = self.fold = tuple(j * width for j in range(k) if modulus >> j & 1)
        self.column = sum(1 << s for s in self.offsets)  # bit 0 of every plane
        planes = self.offsets[::-1]
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
                if acc:
                    acc = mul_t(acc)
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

        self.mul_t = mul_t
        self.apply = apply

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


class Eliminator:
    """Incremental RREF of a growing span, on the rows of its back end.

    ``Eliminator(field, ambient)`` builds ``_GF2Elim`` over GF(2),
    ``_PackedElim`` over GF(2^k), k > 1, and ``_GenericElim`` otherwise
    or with ``force_generic``, which lets tests cross-check the three.
    ``add_planes`` and ``basis_planes`` take and give the back end's own
    rows; the other methods speak scalar tuples.  ``rows`` maps each
    pivot to its row, 1 at the pivot and 0 at the other pivots, so
    ``reduce`` subtracts each row in a vector's support once.  A back
    end supplies ``reduce``, ``add`` and a row codec (here the stacked
    int's), and keeps ``pivmask``, one bit per pivot.
    """

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

    _encode = staticmethod(pack_row)

    def _decode(self, x: int) -> Tuple[int, ...]:
        n = self.ambient
        out, plane = [0] * n, (1 << n) - 1
        for i in range(self.field.k):
            p = x >> i * n & plane
            while p:
                low = p & -p
                out[low.bit_length() - 1] |= 1 << i
                p ^= low
        return tuple(out)

    def _row(self, vec: Sequence):
        if len(vec) != self.ambient:
            raise DimensionMismatch(f"vector length {len(vec)} != ambient {self.ambient}")
        return self._encode(vec)

    def load(self, rows: Sequence[Sequence], pivots: Sequence[int]) -> None:
        """Take the RREF ``rows`` with pivots ``pivots`` as they are."""
        self.rows = {p: self._encode(r) for p, r in zip(pivots, rows)}
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
        return self._decode(self.reduce(self._row(vec)))

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
        return [self._decode(r) for r in self.basis_planes()]

    def to_subspace(self) -> "Subspace":
        return Subspace._from_rref(self.field, self.ambient,
                                   self.basis_rows(), self.pivots)


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

    def __init__(self, field: GF2k, ambient: int, force_generic: bool = False):
        Eliminator.__init__(self, field, ambient)
        self.stack = _stacked(field.modulus, ambient)

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

    def _encode(self, vec: Sequence) -> _Sparse:
        f = self.field
        return _Sparse(f, ((j, c) for j, c in enumerate(vec) if not f.is_zero(c)))

    def _decode(self, x: dict) -> Tuple:
        out = [self.field.zero] * self.ambient
        for j, c in x.items():
            out[j] = c
        return tuple(out)

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


# ----------------------------------------------------------------------
# Subspace
# ----------------------------------------------------------------------

class Subspace:
    """A subspace in canonical RREF form; equality is row-for-row identity."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient: int, vectors: Iterable[Sequence] = ()):
        elim = Eliminator(field, ambient)
        for v in vectors:
            elim.add_vector(v)
        self.field = field
        self.ambient = ambient
        self.rows = tuple(elim.basis_rows())
        self.pivots = tuple(elim.pivots)

    @classmethod
    def _from_rref(cls, field, ambient, rows, pivots) -> "Subspace":
        self = object.__new__(cls)
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)
        return self

    @classmethod
    def zero(cls, field, ambient: int) -> "Subspace":
        return cls._from_rref(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient: int) -> "Subspace":
        rows = []
        for i in range(ambient):
            row = [field.zero] * ambient
            row[i] = field.one
            rows.append(tuple(row))
        return cls._from_rref(field, ambient, rows, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

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
        e.load(self.rows, self.pivots)
        return e

    def contains_vector(self, vec: Sequence) -> bool:
        return self.elim().contains_vector(vec)

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        e = self.elim()
        return all(e.contains_vector(r) for r in other.rows)

    def sum_intersect(self, other: "Subspace") -> Tuple["Subspace", "Subspace"]:
        """Zassenhaus double-block elimination: one pass gives both."""
        self._check_compatible(other)
        f, n = self.field, self.ambient
        zero = f.zero
        elim = Eliminator(f, 2 * n)
        for r in self.rows:
            elim.add_vector(tuple(r) + tuple(r))
        for r in other.rows:
            elim.add_vector(tuple(r) + (zero,) * n)
        # both come out in RREF: the left block of the rows with pivot < n
        # spans the sum, the right block of the others the intersection
        total, inter = [], []
        for piv, row in zip(elim.pivots, elim.basis_rows()):
            if piv < n:
                total.append((row[:n], piv))
            else:
                inter.append((row[n:], piv - n))
        return _from_pairs(f, n, total), _from_pairs(f, n, inter)

    def sum(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[0]

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[1]

    def basis(self) -> List[Tuple]:
        return list(self.rows)


def _from_pairs(field, ambient: int, pairs: Sequence[Tuple[Tuple, int]]) -> Subspace:
    """The subspace of RREF rows given as (row, pivot) pairs, taken as they are."""
    return Subspace._from_rref(field, ambient, [r for r, _ in pairs], [p for _, p in pairs])


def span(field, ambient: int, vectors: Iterable[Sequence]) -> Subspace:
    return Subspace(field, ambient, vectors)


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
    """Kernel of the linear map sending basis vector i to images[i].

    Row-reduces [images | I]; rows whose pivot falls in the augmented
    block are exactly the dependencies, i.e. a kernel basis, and their
    augmented blocks are already in RREF.
    """
    if len(images) != dom:
        raise DimensionMismatch("one image per domain basis vector required")
    zero, one = field.zero, field.one
    elim = Eliminator(field, codom + dom)
    for i, img in enumerate(images):
        if len(img) != codom:
            raise DimensionMismatch("image length mismatch")
        tag = [zero] * dom
        tag[i] = one
        elim.add_vector(tuple(img) + tuple(tag))
    return _from_pairs(field, dom, [(row[codom:], piv - codom) for piv, row
                                    in zip(elim.pivots, elim.basis_rows()) if piv >= codom])


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
        self.lifted = [unit_vector(self.field, self.ambient, j) for j in self.lift_pivots]
        self.dim = len(self.lift_pivots)

    def project(self, vec: Sequence) -> Tuple:
        """Quotient coordinates of vec."""
        r = self._sub_elim.residue(vec)
        return tuple(r[j] for j in self.lift_pivots)

    def lift(self, coords: Sequence) -> Tuple:
        """The vector with coords at the lifted columns and zero elsewhere."""
        out = [self.field.zero] * self.ambient
        for j, c in zip(self.lift_pivots, coords):
            out[j] = c
        return tuple(out)


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
