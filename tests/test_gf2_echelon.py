"""The stacked eliminators over GF(2), GF(4) and GF(8), which keep echelon
rows while the span grows and back-substitute when they are read, against
the fully reduced eliminators they replaced: every add and every read
must agree."""

import pytest
from hypothesis import given, settings, strategies as st

from liesolv.fields import GF2, gf
from liesolv.linalg import Eliminator, Subspace, stack_items


class FullyReduced(Eliminator):
    """The reference: every add clears the new pivot from all stored rows,
    so the rows are RREF at all times."""

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


class FullyReducedPacked(Eliminator):
    """The GF(2^k) reference: stacked rows, each 1 at its pivot and 0 at
    every other pivot; a vector is reduced by the row of each pivot in
    its support, scaled by its coordinate there."""

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


READS = ("basis_planes", "to_subspace", "residue", "contains_vector", "rank", "pivots", "load")


def _masks(n: int):
    """Dense masks, sparse ones (a few bits, so that rows overlap at their
    higher pivots), the zero row and the full row."""
    return st.one_of(
        st.integers(0, (1 << n) - 1),
        st.lists(st.integers(0, n - 1), max_size=4).map(lambda bs: sum({1 << b for b in bs})),
        st.sampled_from((0, (1 << n) - 1)))


def _vector(mask: int, n: int) -> tuple:
    return tuple(mask >> j & 1 for j in range(n))


def _read(elim, what: str, mask: int, n: int):
    if what == "basis_planes":
        return elim.basis_planes()
    if what == "to_subspace":
        sub = elim.to_subspace()
        return sub.planes, sub.pivots
    if what == "residue":
        return elim.residue(_vector(mask, n))
    if what == "contains_vector":
        return elim.contains_vector(_vector(mask, n))
    return getattr(elim, what)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_echelon_eliminator_matches_the_fully_reduced_one(data):
    n = data.draw(st.integers(1, 300), label="width")
    fast = Eliminator(GF2, n)
    ref = FullyReduced(GF2, n)
    added = []
    for _ in range(data.draw(st.integers(0, 80), label="steps")):
        kind = data.draw(st.sampled_from(("add", "add", "add", "repeat", "sum") + READS))
        if kind in ("add", "repeat", "sum"):
            if kind == "add" or not added:
                x = data.draw(_masks(n))
            elif kind == "repeat":
                x = data.draw(st.sampled_from(added))
            else:  # a combination of rows already in the span
                x = data.draw(st.sampled_from(added)) ^ data.draw(st.sampled_from(added))
            added.append(x)
            assert fast.add(x) == ref.add(x)
        elif kind == "load":
            # replace both spans with the span of some added rows, then go on adding
            sub = Subspace(GF2, n, [_vector(x, n) for x in added[::2]])
            fast.load(sub.planes, sub.pivots)
            ref.load(sub.planes, sub.pivots)
        else:
            mask = data.draw(_masks(n))
            assert _read(fast, kind, mask, n) == _read(ref, kind, mask, n), kind
    assert fast.basis_planes() == ref.basis_planes()
    assert fast.to_subspace() == ref.to_subspace()


def _stacked_rows(n: int, q: int):
    """Stacked rows of width n over GF(q): random coordinates in every
    plane, a few random coordinates (so that rows overlap at the pivots
    stored after them), the zero row, and the row of all ones."""
    return st.one_of(
        st.integers(0, (1 << n * (q.bit_length() - 1)) - 1),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, q - 1)), max_size=4)
        .map(lambda items: stack_items(dict(items).items(), n)),
        st.sampled_from((0, (1 << n) - 1)))


@pytest.mark.parametrize("q", [4, 8])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_packed_echelon_eliminator_matches_the_fully_reduced_one(q, data):
    field = gf(q)
    n = data.draw(st.integers(1, 300), label="width")
    fast = Eliminator(field, n)
    ref = FullyReducedPacked(field, n)
    scale = fast.stack.scale
    scalars = st.integers(1, q - 1)
    added = []

    def row(kind):
        if kind == "add" or not added:
            return data.draw(_stacked_rows(n, q))
        if kind == "repeat":
            return data.draw(st.sampled_from(added))
        if kind == "multiple":
            return scale(data.draw(scalars), data.draw(st.sampled_from(added)))
        # a combination of rows already in the span
        return (scale(data.draw(scalars), data.draw(st.sampled_from(added)))
                ^ scale(data.draw(scalars), data.draw(st.sampled_from(added))))

    adds = ("add", "add", "add", "repeat", "multiple", "sum")
    for _ in range(data.draw(st.integers(0, 80), label="steps")):
        kind = data.draw(st.sampled_from(adds + READS))
        if kind in adds:
            x = row(kind)
            added.append(x)
            assert fast.add(x) == ref.add(x)
        elif kind == "load":
            # replace both spans with the span of some added rows, or of new
            # ones, then go on adding
            some = added[::2] if data.draw(st.booleans()) else [row("add") for _ in range(3)]
            sub = Subspace(field, n, map(fast.decode, some))
            fast.load(sub.planes, sub.pivots)
            ref.load(sub.planes, sub.pivots)
        else:
            x = fast.decode(row(data.draw(st.sampled_from(adds))))
            if kind == "residue":
                assert fast.residue(x) == ref.residue(x)
            elif kind == "contains_vector":
                assert fast.contains_vector(x) == ref.contains_vector(x)
            else:
                assert _read(fast, kind, 0, n) == _read(ref, kind, 0, n), kind
    assert fast.basis_planes() == ref.basis_planes()
    assert fast.to_subspace() == ref.to_subspace()
