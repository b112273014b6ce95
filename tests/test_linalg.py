import random
import time

import pytest

from liesolv.fields import GF2, GF2k, RATFUNC2, TABLE_MAX_K, FieldMismatch, gf
from liesolv.linalg import (
    DimensionMismatch, Eliminator, Quotient, Subspace, _Sparse, addmul, kernel, pack_row,
    span, terms_str, unit_vector, vec_add, vec_scale,
)

GF4 = gf(4)


def rand_vec(field, n, rng):
    return tuple(field.random(rng) for _ in range(n))


def test_span_empty_is_zero():
    s = span(GF2, 4, [])
    assert s.dim == 0
    assert s == Subspace.zero(GF2, 4)


def test_span_duplicate_row():
    v = (1, 0, 1)
    assert span(GF2, 3, [v, v]).dim == 1


def test_span_gf2_dependency():
    # third vector is the sum of the first two in characteristic 2
    s = span(GF2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert s.dim == 2


def test_rref_idempotent():
    rng = random.Random(23)
    for field in [GF2, GF4]:
        for _ in range(10):
            vecs = [rand_vec(field, 5, rng) for _ in range(4)]
            s = span(field, 5, vecs)
            assert span(field, 5, s.basis()) == s
    # RatFunc2 entries of an eliminated random matrix are minor ratios whose
    # degrees grow fast, so keep this corner small
    for _ in range(3):
        vecs = [rand_vec(RATFUNC2, 4, rng) for _ in range(3)]
        s = span(RATFUNC2, 4, vecs)
        assert span(RATFUNC2, 4, s.basis()) == s


def _low_rank_vecs(field, ambient, rank, count, rng):
    """count vectors spanning at most rank dimensions, so some adds are redundant."""
    base = [rand_vec(field, ambient, rng) for _ in range(rank)]
    vecs = list(base)
    for _ in range(count - rank):
        v = (field.zero,) * ambient
        for b in base:
            v = vec_add(field, v, vec_scale(field, field.random(rng), b))
        vecs.append(v)
    rng.shuffle(vecs)
    return vecs


def _assert_paths_agree(field, ambient, vecs, probes):
    fast = Eliminator(field, ambient)
    slow = Eliminator(field, ambient, force_generic=True)
    for v in vecs:
        assert fast.add_vector(v) == slow.add_vector(v)
    assert fast.rank == slow.rank
    assert fast.pivots == slow.pivots
    assert fast.basis_rows() == slow.basis_rows()
    assert fast.basis_planes() == [pack_row(r) for r in slow.basis_rows()]
    assert fast.to_subspace().elim().basis_planes() == fast.basis_planes()
    for p in probes:
        assert fast.residue(p) == slow.residue(p)
        assert fast.contains_vector(p) == slow.contains_vector(p)
    return fast


def test_packed_and_generic_paths_agree():
    rng = random.Random(29)
    for field in [GF2, GF4, gf(8), gf(16), GF2k(TABLE_MAX_K + 1)]:
        for ambient, rank, count, trials in [(7, 5, 9, 20), (64, 12, 20, 4),
                                             (256, 10, 16, 2)]:
            for _ in range(trials):
                vecs = _low_rank_vecs(field, ambient, rank, count, rng)
                probes = [rand_vec(field, ambient, rng) for _ in range(3)]
                probes.append((field.zero,) * ambient)
                probes += [vec_add(field, vecs[0], vecs[1]), vec_add(field, vecs[0], probes[0])]
                fast = _assert_paths_agree(field, ambient, vecs, probes)
                assert fast.rank <= rank
                assert fast.contains_vector(probes[-2])


def test_packed_paths_agree_off_unit_leads():
    # Over GF(16): the second row has lead 3, and clearing its pivot from
    # the first row subtracts 5 times it; reducing the probe subtracts 6
    # and 9 times the two rows.
    f = gf(16)
    vecs = [(0, 1, 5, 7, 0), (0, 0, 3, 2, 1)]
    probes = [(0, 6, 9, 1, 4), vec_add(f, vec_scale(f, 6, vecs[0]), vec_scale(f, 9, vecs[1]))]
    fast = _assert_paths_agree(f, 5, vecs, probes)
    assert not fast.contains_vector(probes[0]) and fast.contains_vector(probes[1])
    c = f.div(5, 3)
    assert fast.basis_rows() == [(0, 1, 0, f.add(7, f.mul(c, 2)), c),
                                 (0, 0, 1, f.div(2, 3), f.inv(3))]


def test_packed_eliminator_above_the_log_tables_is_fast():
    # Fields above TABLE_MAX_K multiply without log tables, so the packed
    # lane must not build per-field tables: these 8 vectors took seconds
    # while it built a table of q*k products.
    field = GF2k(TABLE_MAX_K + 1)
    rng = random.Random(41)
    vecs = [rand_vec(field, 6, rng) for _ in range(8)]
    start = time.perf_counter()
    fast = Eliminator(field, 6)
    for v in vecs:
        fast.add_vector(v)
    assert time.perf_counter() - start < 0.5
    _assert_paths_agree(field, 6, vecs, [rand_vec(field, 6, rng)])
    assert fast.rank == 6


def test_eliminator_basis_accessors():
    rng = random.Random(30)
    e2 = Eliminator(GF2, 9)
    for v in _low_rank_vecs(GF2, 9, 4, 7, rng):
        e2.add_vector(v)
    assert e2.basis_planes() == [pack_row(r) for r in e2.basis_rows()]
    e4 = Eliminator(GF4, 9)
    for v in _low_rank_vecs(GF4, 9, 4, 7, rng):
        e4.add_vector(v)
    assert e4.basis_planes() == [pack_row(r) for r in e4.basis_rows()]


@pytest.mark.parametrize("field,generic", [(GF2, False), (GF4, False), (gf(8), False),
                                           (RATFUNC2, False), (GF4, True)],
                         ids=["gf2", "gf4", "gf8", "ratfunc2", "gf4-generic"])
def test_eliminator_rows_round_trip_through_add_planes(field, generic):
    # every back end's basis_planes() are rows that add_planes takes back
    rng = random.Random(31)
    ambient, rank, count = (4, 2, 3) if field is RATFUNC2 else (9, 4, 7)
    src = Eliminator(field, ambient, force_generic=generic)
    for v in _low_rank_vecs(field, ambient, rank, count, rng):
        src.add_vector(v)
    dst = Eliminator(field, ambient, force_generic=generic)
    assert all(dst.add_planes(r) for r in src.basis_planes())
    assert dst.pivots == src.pivots and dst.rank == src.rank > 0
    assert dst.basis_rows() == src.basis_rows()
    if generic or field is RATFUNC2:
        for row in src.basis_planes() + dst.basis_planes():
            assert isinstance(row, dict) and row
            assert not any(field.is_zero(c) for c in row.values())


def test_eliminator_refuses_vectors_of_another_length():
    # a stacked row's planes sit at multiples of the ambient dimension, so
    # a vector of another length would be read with its planes misplaced
    for field in (GF2, GF4, RATFUNC2):
        e = Eliminator(field, 3)
        e.add_vector((field.one, field.zero, field.zero))
        for vec in ((field.one,) * 2, (field.one,) * 4):
            for call in (e.add_vector, e.residue, e.contains_vector):
                with pytest.raises(DimensionMismatch):
                    call(vec)
        assert e.rank == 1


def test_add_mask_needs_packed_gf2():
    e = Eliminator(GF2, 4)
    assert e.add_mask(0b0110)
    assert not e.add_mask(0b0110)
    assert e.basis_planes() == [0b0110]
    for elim in (Eliminator(GF4, 4), Eliminator(gf(8), 4), Eliminator(RATFUNC2, 4),
                 Eliminator(GF2, 4, force_generic=True)):
        with pytest.raises(FieldMismatch):
            elim.add_mask(0b0110)
        assert elim.rank == 0


def test_zassenhaus_dimension_formula():
    rng = random.Random(31)
    for field in [GF2, GF4]:
        for _ in range(15):
            a = span(field, 6, [rand_vec(field, 6, rng) for _ in range(3)])
            b = span(field, 6, [rand_vec(field, 6, rng) for _ in range(3)])
            total, inter = a.sum_intersect(b)
            assert a.dim + b.dim == total.dim + inter.dim
            assert total.contains(a) and total.contains(b)
            assert a.contains(inter) and b.contains(inter)


def test_lattice_trivial_identities():
    a = span(GF2, 5, [(1, 0, 1, 0, 0), (0, 1, 0, 0, 1)])
    zero = Subspace.zero(GF2, 5)
    assert a.intersect(a) == a
    assert a.sum(zero) == a


def test_modular_law_spot_checks():
    rng = random.Random(37)
    for _ in range(25):
        a = span(GF2, 6, [rand_vec(GF2, 6, rng) for _ in range(4)])
        b = span(GF2, 6, [rand_vec(GF2, 6, rng) for _ in range(3)])
        c = span(GF2, 6, [rand_vec(GF2, 6, rng) for _ in range(3)])
        lhs = a.intersect(b.sum(a.intersect(c)))
        rhs = (a.intersect(b)).sum(a.intersect(c))
        assert lhs.contains(rhs)  # one inclusion always; modular law gives equality
        assert lhs == a.intersect(b.sum(a.intersect(c)))


def test_kernel_against_bruteforce():
    rng = random.Random(41)
    for field in [GF2, GF4]:
        n, m = 4, 3
        for _ in range(10):
            images = [rand_vec(field, m, rng) for _ in range(n)]
            ker = kernel(field, images, n, m)
            # brute-force oracle: evaluate the map on every domain vector
            count = 0
            for idx in range(field.order ** n):
                coords, r = [], idx
                for _ in range(n):
                    coords.append(r % field.order)
                    r //= field.order
                img = [field.zero] * m
                for i, c in enumerate(coords):
                    if c:
                        for j in range(m):
                            img[j] = field.add(img[j], field.mul(c, images[i][j]))
                if all(field.is_zero(x) for x in img):
                    count += 1
                    assert ker.contains_vector(tuple(coords))
            assert field.order ** ker.dim == count


def _ref_blocks(field, rows, split, ambient):
    """The old second elimination: (Subspace of the left blocks of the rows
    with pivot < split, Subspace of the right blocks of the others)."""
    elim = Eliminator(field, len(rows[0]))
    for r in rows:
        elim.add_vector(r)
    pairs = list(zip(elim.pivots, elim.basis_rows()))
    return (Subspace(field, split, [row[:split] for piv, row in pairs if piv < split]),
            Subspace(field, ambient, [row[split:] for piv, row in pairs if piv >= split]))


@pytest.mark.parametrize("field", [GF2, GF4, gf(8), RATFUNC2],
                         ids=["gf2", "gf4", "gf8", "ratfunc2"])
def test_kernel_and_sum_intersect_take_their_blocks_as_rref(field):
    # the blocks are read off the RREF as they are, with shifted pivots;
    # they must equal what a second elimination of the same rows gives
    rng = random.Random(47)
    small = field is RATFUNC2
    rounds, n = (4, 3) if small else (25, 6)
    for _ in range(rounds):
        dom, codom = n, rng.randrange(1, n)
        images = _low_rank_vecs(field, codom, rng.randrange(codom + 1), dom, rng)
        got = kernel(field, images, dom, codom)
        tagged = [tuple(img) + unit_vector(field, dom, i) for i, img in enumerate(images)]
        want = _ref_blocks(field, tagged, codom, dom)[1]
        assert got == want and got.pivots == want.pivots
        shared = _low_rank_vecs(field, n, 1, 1, rng)
        a = span(field, n, shared + [rand_vec(field, n, rng) for _ in range(rng.randrange(3))])
        b = span(field, n, shared + [rand_vec(field, n, rng) for _ in range(rng.randrange(3))])
        zero = (field.zero,) * n
        doubled = [tuple(r) + tuple(r) for r in a.rows] + [tuple(r) + zero for r in b.rows]
        for got, want in zip(a.sum_intersect(b), _ref_blocks(field, doubled, n, n)):
            assert got == want and got.pivots == want.pivots
            assert span(field, n, got.rows) == got


def test_quotient_round_trip():
    rng = random.Random(43)
    for field in [GF2, GF4]:
        sub = span(field, 5, [rand_vec(field, 5, rng) for _ in range(2)])
        q = Quotient(sub)
        assert q.dim == 5 - sub.dim
        for _ in range(10):
            w = tuple(field.random(rng) for _ in range(q.dim))
            assert q.project(q.lift(w)) == w
        # kernel of the projection is exactly sub
        for r in sub.rows:
            assert all(field.is_zero(c) for c in q.project(r))


def test_quotient_by_zero_and_self():
    q0 = Quotient(Subspace.zero(GF2, 4))
    assert q0.dim == 4 and q0.lifted == [unit_vector(GF2, 4, i) for i in range(4)]
    assert Quotient(Subspace.full(GF2, 4)).dim == 0
    # the lifted basis sits at the columns that are not pivots of sub
    q = Quotient(span(GF2, 4, [(1, 0, 0, 0), (0, 1, 1, 0)]))
    assert q.lift_pivots == [2, 3]
    assert q.project((0, 1, 0, 1)) == (1, 1)


def test_ratfunc_subspace_ops():
    F = RATFUNC2
    X, Y = F.X, F.Y
    rows = [(F.one, X, F.zero), (F.zero, Y, F.one)]
    s = span(F, 3, rows)
    assert s.dim == 2
    v = tuple(F.add(a, b) for a, b in zip(rows[0], rows[1]))
    assert s.contains_vector(v)
    assert not s.contains_vector((F.zero, F.one, F.zero))


def test_unit_vector_and_full():
    full = Subspace.full(GF4, 3)
    assert full.dim == 3
    for i in range(3):
        assert full.contains_vector(unit_vector(GF4, 3, i))


# -- the shared sparse accumulate and term printer ---------------------------

@pytest.mark.parametrize("field", [GF2, GF4, RATFUNC2], ids=["gf2", "gf4", "ratfunc2"])
def test_addmul_matches_a_dense_sum(field):
    rng = random.Random(5)
    one, zero = field.one, field.zero

    def sparse():
        d = {}
        for m in range(6):
            c = field.random(rng)
            if not field.is_zero(c):
                d[m] = c
        return d

    for _ in range(60):
        out, other = sparse(), sparse()
        c = field.random(rng)
        if field.is_zero(c):
            c = one
        dense = [field.add(out.get(m, zero), field.mul(c, other.get(m, zero))) for m in range(6)]
        want = {m: x for m, x in enumerate(dense) if not field.is_zero(x)}
        before = dict(out)
        got = addmul(field, out, other, c)
        assert got is out and got == want
        assert addmul(field, dict(before), other) == addmul(field, dict(before), other, one)
    # a sum that cancels deletes its key; in characteristic 2 a vector
    # plus itself cancels everywhere
    assert addmul(field, {0: one, 1: one}, {0: one}) == {1: one}
    out = sparse()
    assert out and addmul(field, out, dict(out)) == {} and out == {}


def test_sparse_xor_leaves_its_operands_alone():
    # Envelope shares these as table entries, so ^ must build a new vector
    a = _Sparse(GF4, {0: 1, 1: 2})
    b = _Sparse(GF4, {1: 2, 2: 3})
    c = a ^ b
    assert c == {0: 1, 2: 3} and isinstance(c, _Sparse)
    assert a == {0: 1, 1: 2} and b == {1: 2, 2: 3}
    assert c is not a and c is not b


def test_terms_str():
    assert terms_str(GF4, []) == "0"
    assert terms_str(GF4, [("x", 1), ("y", 2), ("1", 3)]) == "x + 2·y + 3·1"
    X = RATFUNC2.from_str("X")
    assert terms_str(RATFUNC2, [("e1", X), ("e2", RATFUNC2.one)]) == "X·e1 + e2"
