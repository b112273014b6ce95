"""The GF(2) eliminator, which keeps echelon rows while the span grows
and back-substitutes when it is read, against the fully reduced
eliminator it replaced: every add and every read must agree."""

from hypothesis import given, settings, strategies as st

from liesolv.fields import GF2
from liesolv.linalg import Eliminator, Subspace


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
