"""Exact linear algebra over the characteristic-2 coefficient fields.

Vectors are tuples of scalars; a Subspace is a canonical reduced
row-echelon basis, so two subspaces are equal iff their stored rows are
identical.

Rows over GF(2^k) are packed into k bit planes (Python ints), which
turns every row operation into at most k^2 XORs regardless of the
ambient dimension; GF(2) is the one-plane special case.  Packed rows
are keyed by pivot and kept fully reduced, so reducing a vector touches
only the pivots in its support.  RatFunc2 rows stay as plain scalar
lists.

A Quotient is the whole space modulo a subspace.  The subspace is in
RREF, so the columns that are not its pivots give the quotient's basis
and coordinates directly.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .fields import GF2k, FieldMismatch


class DimensionMismatch(Exception):
    pass


# ----------------------------------------------------------------------
# packed rows over GF(2^k)
# ----------------------------------------------------------------------

def pack_row(field: GF2k, vec: Sequence[int]) -> List[int]:
    planes = [0] * field.k
    for j, c in enumerate(vec):
        i = 0
        while c:
            if c & 1:
                planes[i] |= 1 << j
            c >>= 1
            i += 1
    return planes


def unpack_row(field: GF2k, planes: Sequence[int], ambient: int) -> Tuple[int, ...]:
    out = [0] * ambient
    for i, plane in enumerate(planes):
        while plane:
            low = plane & -plane
            out[low.bit_length() - 1] |= 1 << i
            plane ^= low
    return tuple(out)


def _support(planes) -> int:
    s = 0
    for p in planes:
        s |= p
    return s


def _coord(planes, j: int) -> int:
    c = 0
    for i, p in enumerate(planes):
        c |= ((p >> j) & 1) << i
    return c


def _addmul(target, source, mul_row) -> None:
    # target += c * source where mul_row = [c * t^i for i in range(k)]
    for i, ci in enumerate(mul_row):
        if ci:
            si = source[i]
            if si:
                j = 0
                while ci:
                    if ci & 1:
                        target[j] ^= si
                    ci >>= 1
                    j += 1


def _scale(planes, mul_row, k: int):
    out = [0] * k
    for i, ci in enumerate(mul_row):
        if ci:
            si = planes[i]
            if si:
                j = 0
                while ci:
                    if ci & 1:
                        out[j] ^= si
                    ci >>= 1
                    j += 1
    return out


class _PackedElim:
    """Incremental RREF accumulator over GF(2^k) with packed rows.

    Rows are keyed by their pivot column and ``pivmask`` has one bit per
    pivot.  The rows are kept fully reduced: row ``p`` is 1 at column
    ``p`` and 0 at every other pivot.  So subtracting a multiple of row
    ``p`` leaves a vector's coordinates at the other pivots unchanged,
    and ``reduce`` can read all the coordinates it needs first, at the
    pivots in ``support & pivmask`` only, and apply the row operations
    after.
    """

    def __init__(self, field: GF2k, ambient: int):
        self.field = field
        self.ambient = ambient
        self.k = field.k
        self.rows: Dict[int, List[int]] = {}
        self.pivmask = 0
        self._mul_rows = field.mul_rows()

    def reduce(self, planes: List[int]) -> List[int]:
        rows = self.rows
        hit = _support(planes) & self.pivmask
        coords = []
        while hit:
            low = hit & -hit
            p = low.bit_length() - 1
            coords.append((p, _coord(planes, p)))
            hit ^= low
        mul_rows = self._mul_rows
        for p, c in coords:
            _addmul(planes, rows[p], mul_rows[c])
        return planes

    def add(self, planes: List[int]) -> bool:
        planes = self.reduce(list(planes))
        sup = _support(planes)
        if not sup:
            return False
        j = (sup & -sup).bit_length() - 1
        lead = _coord(planes, j)
        if lead != 1:
            planes = _scale(planes, self._mul_rows[self.field.inv(lead)], self.k)
        mul_rows = self._mul_rows
        for row in self.rows.values():
            c = _coord(row, j)
            if c:
                _addmul(row, planes, mul_rows[c])
        self.rows[j] = planes
        self.pivmask |= 1 << j
        return True

    @property
    def pivots(self) -> List[int]:
        return sorted(self.rows)

    def basis(self) -> List[List[int]]:
        """The rows in pivot order."""
        rows = self.rows
        return [rows[p] for p in sorted(rows)]

    @property
    def rank(self) -> int:
        return len(self.rows)


class _GenericElim:
    """Incremental RREF accumulator with plain scalar-list rows (any field)."""

    def __init__(self, field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows: List[List] = []
        self.pivots: List[int] = []

    def _axpy(self, target, source, c) -> None:
        f = self.field
        for j in range(self.ambient):
            s = source[j]
            if not f.is_zero(s):
                target[j] = f.add(target[j], f.mul(c, s))

    def reduce(self, row: List) -> List:
        f = self.field
        for idx, p in enumerate(self.pivots):
            c = row[p]
            if not f.is_zero(c):
                self._axpy(row, self.rows[idx], c)
        return row

    def add(self, row: Sequence) -> bool:
        f = self.field
        row = self.reduce(list(row))
        j = next((i for i, c in enumerate(row) if not f.is_zero(c)), None)
        if j is None:
            return False
        lead = row[j]
        if lead != f.one:
            inv = f.inv(lead)
            row = [f.mul(inv, c) for c in row]
        for other in self.rows:
            c = other[j]
            if not f.is_zero(c):
                self._axpy(other, row, c)
        pos = bisect.bisect_left(self.pivots, j)
        self.pivots.insert(pos, j)
        self.rows.insert(pos, row)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


class Eliminator:
    """Field-dispatching incremental row reducer.

    GF(2^k) inputs run on packed bit planes; other fields fall back to
    scalar lists.  ``force_generic`` exists so tests can cross-check the
    two paths on the same input.
    """

    def __init__(self, field, ambient: int, force_generic: bool = False):
        self.field = field
        self.ambient = ambient
        self.packed = isinstance(field, GF2k) and not force_generic
        self._impl = (_PackedElim if self.packed else _GenericElim)(field, ambient)

    def add_vector(self, vec: Sequence) -> bool:
        if len(vec) != self.ambient:
            raise DimensionMismatch(f"vector length {len(vec)} != ambient {self.ambient}")
        if self.packed:
            return self._impl.add(pack_row(self.field, vec))
        return self._impl.add(list(vec))

    def add_planes(self, planes) -> bool:
        if not self.packed:
            raise FieldMismatch("packed rows need a GF(2^k) eliminator")
        return self._impl.add(list(planes))

    def _check_gf2(self) -> None:
        if not (self.packed and self.field.k == 1):
            raise FieldMismatch("bitmask rows need a packed GF(2) eliminator")

    def add_mask(self, mask: int) -> bool:
        """GF(2) convenience: the row is one bitmask."""
        self._check_gf2()
        return self._impl.add([mask])

    def residue(self, vec: Sequence):
        if self.packed:
            planes = self._impl.reduce(pack_row(self.field, vec))
            return unpack_row(self.field, planes, self.ambient)
        return tuple(self._impl.reduce(list(vec)))

    def contains_vector(self, vec: Sequence) -> bool:
        f = self.field
        return all(f.is_zero(c) for c in self.residue(vec))

    @property
    def rank(self) -> int:
        return self._impl.rank

    @property
    def pivots(self) -> List[int]:
        return list(self._impl.pivots)

    def basis_rows(self) -> List[Tuple]:
        if self.packed:
            return [unpack_row(self.field, r, self.ambient) for r in self._impl.basis()]
        return [tuple(r) for r in self._impl.rows]

    def basis_planes(self) -> List[List[int]]:
        """The RREF rows as bit planes, in pivot order (GF(2^k) only)."""
        if not self.packed:
            raise FieldMismatch("packed rows need a GF(2^k) eliminator")
        return [list(r) for r in self._impl.basis()]

    def to_subspace(self) -> "Subspace":
        return Subspace._from_rref(self.field, self.ambient,
                                   self.basis_rows(), self.pivots)


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
        e = Eliminator(self.field, self.ambient)
        for r in self.rows:
            e.add_vector(r)
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
        sum_rows, int_rows = [], []
        for piv, row in zip(elim.pivots, elim.basis_rows()):
            if piv < n:
                sum_rows.append(row[:n])
            else:
                int_rows.append(row[n:])
        total = Subspace(f, n, sum_rows)
        inter = Subspace(f, n, int_rows)
        return total, inter

    def sum(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[0]

    def intersect(self, other: "Subspace") -> "Subspace":
        return self.sum_intersect(other)[1]

    def basis(self) -> List[Tuple]:
        return list(self.rows)


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
    block are exactly the dependencies, i.e. a kernel basis.
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
    rows = [row[codom:] for piv, row in zip(elim.pivots, elim.basis_rows())
            if piv >= codom]
    return Subspace(field, dom, rows)


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
