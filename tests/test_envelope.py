import gc
import random
import weakref
from functools import partial

import pytest

from liesolv.algebra import RestrictedLieAlgebra
from liesolv.envelope import (
    MAX_ENVELOPE_N, Envelope, EnvelopeTooLarge, PreconditionFailed, cond_ii_certificate,
    envelope_augmentation_nilpotent, m2_embedding_check, reducedness_check,
)
from liesolv.families import (
    example_7_1, family_i, family_iv, family_v, free_class2, heisenberg, negative_class2,
    random_instance, witness_chain,
)
from liesolv.fields import GF2, RATFUNC2, gf
from liesolv.linalg import span

GF4 = gf(4)
GF8 = gf(8)


def _ratfunc_instances():
    # F2(X,Y) has no stacked form: these run on _Sparse elements only
    return [example_7_1(), heisenberg(RATFUNC2), family_v(RATFUNC2, 2)]


def _off_gf2_instances():
    # structure constants outside GF(2): random_instance(6, GF4, 353) has
    # [b2,b5] = 2*b6 and b5^[2] = 3*b1; the GF(8) draw has [b1,b5] = 3*b3
    # and b1^[2] = 4*b3, so products run the t^i multiply of the kernel
    return [random_instance(6, GF4, 353)[0], random_instance(6, GF8, 1)[0]]


def test_h3_one_straightening_step():
    env = Envelope(heisenberg())
    # e2 * e1 = e1 e2 + e3
    prod = env.mul(env.gen(1), env.gen(0))
    assert prod == {0b011: 1, 0b100: 1}


def test_h3_square_of_generator_vanishes():
    env = Envelope(heisenberg())
    assert env.mul(env.gen(0), env.gen(0)) == {}


def test_h3_associativity_example():
    env = Envelope(heisenberg())
    e1e2 = env.mul(env.gen(0), env.gen(1))
    left = env.mul(e1e2, env.gen(1))
    right = env.mul(env.gen(0), env.mul(env.gen(1), env.gen(1)))
    assert left == right == {}


def test_algebra_embeds_in_envelope():
    for L in [heisenberg(), negative_class2(), free_class2(gens=3), heisenberg(GF4)]:
        env = Envelope(L)
        for i in range(L.n):
            for j in range(L.n):
                if i == j:
                    continue
                br = env.lie(env.gen(i), env.gen(j))
                expected = env.from_algebra_vec(
                    L.bracket(L.basis_vector(i), L.basis_vector(j)))
                assert br == expected
            sq = env.mul(env.gen(i), env.gen(i))
            assert sq == env.from_algebra_vec(L.pmap[i])


def test_associativity_randomized():
    rng = random.Random(51)
    cases = [(L, 200) for L in [negative_class2(), heisenberg(GF4),
                                free_class2(gens=3, center_squares=True)] + _off_gf2_instances()]
    # F2(X,Y) coefficients grow with each product, so fewer triples there
    cases += [(L, 10) for L in _ratfunc_instances()]
    for L, trials in cases:
        env = Envelope(L)
        f = L.field
        for _ in range(trials):
            def rand_elem():
                return {rng.randrange(env.dim): c
                        for _ in range(3)
                        if not f.is_zero(c := f.random(rng))}
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert env.mul(env.mul(a, b), c) == env.mul(a, env.mul(b, c))


def _rand_elem(rng, env, terms=3):
    f = env.field
    return {rng.randrange(env.dim): c for _ in range(terms)
            if not f.is_zero(c := f.random(rng))}


def _forms(L):
    """An Envelope of each element form: native stacked ints and _Sparse dicts."""
    env, sparse = Envelope(L), Envelope(L, force_dict=True)
    assert env.stacked and not sparse.stacked
    return env, sparse


def _dict_sum(f, *terms):
    out = {}
    for d in terms:
        for m, c in d.items():
            s = f.add(out.get(m, f.zero), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _oracle_lie(env, a, b):
    return _dict_sum(env.field, _left_mul_oracle(env, a, b), _left_mul_oracle(env, b, a))


def _oracle_nilpotent(env, a):
    """(nilpotent, squarings) by squaring with the left-multiplication oracle."""
    if not a:
        return True, 0
    for m in range(1, env.n + 2):
        a = _left_mul_oracle(env, a, a)
        if not a:
            return True, m
    return False, None


def test_stacked_kernel_agrees_with_dict_products():
    # both element forms against the left-multiplication oracle
    rng = random.Random(53)
    for L in [heisenberg(), negative_class2(), free_class2(gens=4), heisenberg(GF4),
              negative_class2(GF8)] + _off_gf2_instances():
        env, sparse = _forms(L)
        for _ in range(40):
            a, b = _rand_elem(rng, env, 4), _rand_elem(rng, env, 4)
            assert env.to_mask(a) == env.to_mask(env.from_mask(env.to_mask(a)))
            want = _left_mul_oracle(env, a, b)
            assert env.mul(a, b) == sparse.mul(a, b) == want
            assert env.from_mask(env.mul_mask(env.to_mask(a), env.to_mask(b))) == want
            assert sparse._to_dict(sparse.mul_mask(sparse._native(a), sparse._native(b))) == want
            assert env.lie(a, b) == sparse.lie(a, b) == _oracle_lie(env, a, b)
            assert env.is_nilpotent(a) == sparse.is_nilpotent(a)
        for _ in range(5):
            a = _rand_elem(rng, env, 2)
            assert env.is_nilpotent(a) == sparse.is_nilpotent(a) == _oracle_nilpotent(env, a)


def test_ad_table_gives_brackets():
    # one apply of Ad_a to b is [a, b] = a*b + b*a, by the oracle, on both forms
    rng = random.Random(67)
    for L in [negative_class2(), heisenberg(GF4)] + _off_gf2_instances():
        for env in _forms(L):
            for _ in range(10):
                a = _rand_elem(rng, env, 4)
                table, fill = env._ad_table(env._native(a))
                for _ in range(5):
                    b = _rand_elem(rng, env, 4)
                    got = env._to_dict(env._apply(table, fill, env._native(b)))
                    assert got == _oracle_lie(env, a, b)


def _permuted(L, order):
    """L on its own basis vectors, taken in ``order``."""
    return L.rebase([L.basis_vector(i) for i in order], names=[L.names[i] for i in order])


def _central_moved(L, interleave=False):
    """L with its central basis vectors first, or alternating with the others."""
    central = Envelope(L)._central_gens()
    moved = [g for g in range(L.n) if g not in central]
    if not interleave:
        return _permuted(L, central + moved)
    order = [g for pair in zip(moved, central) for g in pair]
    return _permuted(L, order + moved[len(central):] + central[len(moved):])


def _central_off_top():
    # the central vectors lead the basis, or sit between the others, so a
    # fill that stripped the top bit where it means the top central one
    # would multiply by a non-central generator from the wrong side
    out = [(L, _central_moved(L)) for L in
           [family_v(GF2, 2), family_v(GF4, 2), witness_chain(2), negative_class2(GF4)]]
    return out + [(out[2][0], _central_moved(out[2][0], interleave=True))]


def test_tables_with_central_vectors_off_the_top():
    rng = random.Random(73)
    for L, M in _central_off_top():
        central = Envelope(M)._central_gens()
        assert central and central != list(range(M.n - len(central), M.n)), M.names
        for env in _forms(M):
            assert env._central == central
            for g in range(M.n):
                assert (env._left[g] is env._right[g]) == (g in central)
                assert (env._left_fill[g] is env._right_fill[g]) == (g in central)
            for _ in range(4):
                # every monomial of a, and some of b, has a central factor
                a, b = _rand_elem(rng, env, 4), _rand_elem(rng, env, 4)
                a = {m | 1 << rng.choice(central): c for m, c in a.items()}
                b.update({m | 1 << rng.choice(central): c
                          for m, c in _rand_elem(rng, env, 3).items()})
                na, nb = env._native(a), env._native(b)
                assert env._to_dict(env.mul_mask(na, nb)) == _left_mul_oracle(env, a, b)
                assert (env._to_dict(env._apply(*env._products(na, left=True), nb))
                        == _left_mul_oracle(env, b, a))
                table, fill = env._ad_table(na)
                assert env._to_dict(env._apply(table, fill, nb)) == _oracle_lie(env, a, b)
                for m in rng.sample(range(env.dim), 6):
                    mono = env.monomial(m)
                    got = env._apply(table, fill, env._native(mono))
                    assert env._to_dict(table[m]) == env._to_dict(got)
                    assert env._to_dict(got) == _oracle_lie(env, a, mono), (M.names, m)
        env, ref = _forms(M)
        got = env.lie_derived_series(keep_terms=True)
        want = ref.lie_derived_series(keep_terms=True)
        assert (got.dims, got.outcome, got.terms) == (want.dims, want.outcome, want.terms)
        assert got.dims == Envelope(L).lie_derived_series().dims, M.names
        assert env.sz_ideal() == ref.sz_ideal()


def test_native_helpers_agree_with_dict_products():
    # the generator-table helpers of the pattern tests, on both element
    # forms, against the oracle
    rng = random.Random(71)
    for L in [negative_class2(), heisenberg(GF4), family_v(GF8, 2)] + _off_gf2_instances():
        f = L.field
        for env in _forms(L):
            for _ in range(10):
                a, b = _rand_elem(rng, env, 4), _rand_elem(rng, env, 4)
                na, nb = env._native(a), env._native(b)
                for g in range(L.n):
                    x = env.gen(g)
                    assert env._to_dict(env._mul_gen(na, g)) == _left_mul_oracle(env, a, x)
                    assert env._to_dict(env._gen_mul(g, na)) == _left_mul_oracle(env, x, a)
                    assert env._to_dict(env._lie_gen(na, g)) == _oracle_lie(env, a, x)
                assert env._to_dict(env._ad(na)(nb)) == _oracle_lie(env, a, b)
                vec = [f.random(rng) for _ in range(L.n)]
                u = env.from_algebra_vec(vec)
                assert (env._to_dict(env._combine(vec, partial(env._mul_gen, na)))
                        == _left_mul_oracle(env, a, u))
                assert (env._to_dict(env._combine(vec, partial(env._lie_gen, na)))
                        == _oracle_lie(env, a, u))
            a = _rand_elem(rng, env, 2)
            assert env._is_nilpotent(env._native(a)) == _oracle_nilpotent(env, a)


def test_derived_series_and_sz_ideal_agree_with_dict_products():
    # the GF(2) inputs have central toral (x_z^[2] = x_z) and central
    # nilpotent generators, so the module-over-the-centre steps run too
    for L in [heisenberg(GF4), negative_class2(GF8), family_v(GF4, 2), family_v(GF2, 2),
              negative_class2(), family_i(GF2, toral=2, nilchain=1, moved=2)
              ] + _off_gf2_instances():
        env, ref = Envelope(L), Envelope(L, force_dict=True)
        got = env.lie_derived_series(keep_terms=True)
        want = ref.lie_derived_series(keep_terms=True)
        assert (got.dims, got.outcome, got.terms) == (want.dims, want.outcome, want.terms)
        assert env.sz_ideal() == ref.sz_ideal()


def _left_mul_oracle(env, a, b):
    """Independent product: straighten by LEFT-multiplying b with the
    generators of each monomial of a in descending order.

    Left multiplication by one generator is its own recursion (prepend
    when the generator is below the monomial's minimum, otherwise push it
    rightward past the smallest factor), so it shares no code or cache
    with the library's right-multiplication straightening.
    """
    L = env.algebra
    f = env.field

    def iadd(out, d, c):
        for m, x in d.items():
            s = f.add(out.get(m, f.zero), f.mul(c, x))
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s

    def gen_mono(g, mask):
        low = (mask & -mask).bit_length() - 1 if mask else None
        if mask == 0 or g < low:
            return {mask | (1 << g): f.one}
        rest = mask ^ (1 << low)
        out = {}
        if g == low:
            # b_g b_g rest = b_g^[2] rest
            for j, c in enumerate(L.pmap[g]):
                if not f.is_zero(c):
                    iadd(out, gen_mono(j, rest), c)
            return out
        # b_g b_low rest = b_low b_g rest + [b_g, b_low] rest
        inner = gen_mono(g, rest)
        for m2, c2 in inner.items():
            iadd(out, gen_mono(low, m2), c2)
        for j, c in enumerate(L._table[g][low]):
            if not f.is_zero(c):
                iadd(out, gen_mono(j, rest), c)
        return out

    def gen_elem(g, d):
        out = {}
        for m, c in d.items():
            iadd(out, gen_mono(g, m), c)
        return out

    out = {}
    for ma, ca in a.items():
        term = b
        for g in sorted((i for i in range(L.n) if ma >> i & 1), reverse=True):
            term = gen_elem(g, term)
        iadd(out, term, ca)
    return out


def test_mul_agrees_with_left_multiplication_oracle():
    rng = random.Random(61)
    for L in [heisenberg(), negative_class2(), free_class2(gens=3, center_squares=True),
              heisenberg(GF4)] + _off_gf2_instances() + _ratfunc_instances():
        env = Envelope(L)
        f = L.field
        for _ in range(40):
            def rand_elem():
                return {rng.randrange(env.dim): c
                        for _ in range(3)
                        if not f.is_zero(c := f.random(rng))}
            a, b = rand_elem(), rand_elem()
            assert env.mul(a, b) == _left_mul_oracle(env, a, b)


def test_product_cache_consistency():
    # table entries m*x_g and x_g*m equal a fresh recomputation in another
    # fill order, and the oracle, on both element forms
    for L in [negative_class2()] + _off_gf2_instances():
        for force_dict in (False, True):
            env1, env2 = Envelope(L, force_dict), Envelope(L, force_dict)
            rng = random.Random(59)
            keys = [(rng.randrange(L.n), rng.randrange(env1.dim)) for _ in range(30)]
            for g, m in keys:
                env1._right_entry(g, m)
                env1._left_entry(g, m)
            for g, m in reversed(keys):  # different fill order
                env2._left_entry(g, m)
                env2._right_entry(g, m)
            for g, m in keys:
                assert env1._right_entry(g, m) == env2._right_entry(g, m)
                assert env1._left_entry(g, m) == env2._left_entry(g, m)
                x, mono = env1.gen(g), env1.monomial(m)
                assert env1._to_dict(env1._right_entry(g, m)) == _left_mul_oracle(env1, mono, x)
                assert env1._to_dict(env1._left_entry(g, m)) == _left_mul_oracle(env1, x, mono)
            # a central generator's left and right tables are one list
            tables = {id(t): t for t in env1._right + env1._left}.values()
            filled = sum(e is not None for t in tables for e in t)
            assert len(env1._cache) + len(env1._mask_cache) == filled > 0


def test_envelope_freed_without_cycle_collector():
    # the tables of an Envelope hold no reference back to it, so refcounting
    # alone frees it; a cycle would keep every table until the next collection
    gc.collect()
    gc.disable()
    try:
        for L, force_dict in [(family_v(GF4, 2), False), (family_v(GF4, 2), True),
                              (family_v(GF2, 2), False), (heisenberg(RATFUNC2), False),
                              (_central_moved(family_v(GF4, 2)), False),
                              (_central_moved(family_v(GF4, 2)), True)]:
            env = Envelope(L, force_dict)
            env.lie_derived_series()
            env.sz_nilpotency()
            ref = weakref.ref(env)
            del env
            assert ref() is None, (L.field, force_dict)
    finally:
        gc.enable()


def test_envelope_size_guard():
    def abelian(n):
        return RestrictedLieAlgebra(GF2, [f"a{i}" for i in range(n)], {}, [(0,) * n] * n)

    assert MAX_ENVELOPE_N >= 12  # the n=11 oracle must still run
    with pytest.raises(EnvelopeTooLarge):
        Envelope(abelian(MAX_ENVELOPE_N + 1))
    assert Envelope(abelian(MAX_ENVELOPE_N)).dim == 1 << MAX_ENVELOPE_N


def test_identity_is_central():
    env = Envelope(heisenberg())
    for i in range(3):
        assert env.lie(env.one(), env.gen(i)) == {}


def test_derived_series_abelian():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0), (0, 0)])
    res = Envelope(L).lie_derived_series()
    assert res.outcome == "reached_zero"
    assert res.value == 1
    assert res.dims[0] == 4


def test_derived_series_h3():
    res = Envelope(heisenberg()).lie_derived_series()
    assert res.outcome == "reached_zero"
    assert res.value == 2
    assert res.dims == [8, 3, 0]


def test_derived_series_h3_gf4_matches_gf2():
    res = Envelope(heisenberg(GF4)).lie_derived_series()
    assert res.outcome == "reached_zero"
    assert res.value == 2
    assert res.dims == [8, 3, 0]


def test_derived_series_n7_stabilizes():
    res = Envelope(negative_class2()).lie_derived_series()
    assert res.outcome == "stabilized"
    assert res.value > 0


def test_sz_commutative_index_one():
    L = RestrictedLieAlgebra(GF2, ["a"], {}, [(1,)])
    res = Envelope(L).sz_nilpotency()
    assert res.nilpotent and res.index == 1 and res.ideal_dim == 0


def test_sz_h3_finite():
    # u(H3) is metabelian, so the ideal generated by [[a,b],[c,d],e] is zero
    res = Envelope(heisenberg()).sz_nilpotency()
    assert res.nilpotent
    assert res.index == 1 and res.ideal_dim == 0


def test_sz_nontrivial_index():
    from liesolv.families import family_iv
    res = Envelope(family_iv(h_dim=2)).sz_nilpotency()
    assert res.nilpotent
    assert res.index == 2 and res.ideal_dim == 24


def test_sz_n7_not_nilpotent():
    env = Envelope(negative_class2())
    res = env.sz_nilpotency()
    assert not res.nilpotent
    ok, _ = env.is_nilpotent(res.witness)
    assert not ok
    # the witness involves the toral central generator z14 (index 6)
    assert any(m & (1 << 6) for m in res.witness)


def test_free_class2_pairing_identity():
    # [[x4x3x1,x4],[x4x1,x1],x2] = z14^2 (z12 z34 + z13 z24 + z14 z23);
    # with square-zero centers both sides vanish, with toral centers they don't
    for center_squares, expect_nonzero in [(False, False), (True, True)]:
        L = free_class2(gens=4, center_squares=center_squares)
        env = Envelope(L)
        g = env.gen
        idx = {name: i for i, name in enumerate(L.names)}
        x1, x2, x3, x4 = (g(idx[f"x{i}"]) for i in range(1, 5))
        z = {pair: g(idx[f"z{pair}"]) for pair in ["12", "13", "14", "23", "24", "34"]}
        a = env.lie(env.mul(env.mul(x4, x3), x1), x4)
        b = env.lie(env.mul(x4, x1), x1)
        v = env.lie(env.lie(a, b), x2)
        z14sq = env.mul(z["14"], z["14"])
        comb = env.add(env.add(env.mul(z["12"], z["34"]), env.mul(z["13"], z["24"])),
                       env.mul(z["14"], z["23"]))
        assert v == env.mul(z14sq, comb)
        assert bool(v) == expect_nonzero


def test_chain_criterion_matches_envelope_oracle():
    # (L, s, the restricted subalgebra on the square-closure of s)
    L1 = heisenberg()
    # span{e1, e3} of H3 is abelian with zero squares
    sub1 = RestrictedLieAlgebra(GF2, ["e1", "e3"], {}, [(0, 0), (0, 0)])
    L2 = negative_class2()
    L3 = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 1), (0, 0)])
    cases = [(L1, span(GF2, 3, [(1, 0, 0), (0, 0, 1)]), sub1),
             (L2, L2.full_space(), L2), (L3, L3.full_space(), L3)]
    for L, sub, sub_alg in cases:
        ok_chain, _ = L.is_2nilpotent_ideal(sub)
        ok_env, _ = envelope_augmentation_nilpotent(sub_alg)
        assert ok_chain == ok_env


def test_chain_criterion_vs_oracle_randomized():
    checked = 0
    for seed in range(12):
        L, _ = random_instance(3, GF2, seed)
        ok_chain, _ = L.is_2nilpotent_ideal(L.full_space())
        ok_env, _ = envelope_augmentation_nilpotent(L)
        assert ok_chain == ok_env
        checked += 1
    assert checked == 12


def test_reducedness_toral_true():
    L = RestrictedLieAlgebra(GF2, ["a"], {}, [(1,)])
    assert reducedness_check(L)


def test_reducedness_nilpotent_false():
    L = RestrictedLieAlgebra(GF2, ["b"], {}, [(0,)])
    assert not reducedness_check(L)
    M = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(1, 0), (0, 0)])
    assert not reducedness_check(M)


def test_cond_ii_certificate_h3():
    rep = cond_ii_certificate(heisenberg())
    assert rep.ok, str(rep)


def test_cond_ii_certificate_free_class2():
    rep = cond_ii_certificate(free_class2(gens=3))
    assert rep.ok, str(rep)
    assert rep.detail["complement_dim"] == 3


def test_cond_ii_certificate_abelian_degenerate():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0), (0, 0)])
    rep = cond_ii_certificate(L)
    assert rep.ok


def test_cond_ii_certificate_precondition():
    with pytest.raises(PreconditionFailed):
        cond_ii_certificate(free_class2(gens=4))  # dim L/Z = 4


def test_m2_embedding_h3():
    L = heisenberg()
    A = span(GF2, 3, [(0, 1, 0), (0, 0, 1)])
    assert m2_embedding_check(L, A)


def test_m2_embedding_abelian():
    L = RestrictedLieAlgebra(GF2, ["a", "b"], {}, [(0, 0), (0, 0)])
    assert m2_embedding_check(L, span(GF2, 2, [(0, 1)]))


def test_m2_embedding_gf4():
    L = heisenberg(GF4)
    A = span(GF4, 3, [(0, 1, 0), (0, 0, 1)])
    assert m2_embedding_check(L, A)


def test_m2_embedding_rejects_bad_ideal():
    L = heisenberg()
    with pytest.raises(PreconditionFailed):
        m2_embedding_check(L, span(GF2, 3, [(1, 0, 0), (0, 1, 0)]))  # not an ideal... or not abelian


def test_element_str():
    env = Envelope(heisenberg())
    e = {0: 1, 0b011: 1, 0b100: 1}
    assert env.element_str(e) == "1 + e3 + e1*e2"


def _envelope_ideal_of(env, algebra_subspace):
    """Two-sided ideal of u(L) generated by a subspace of L, as a Subspace."""
    from liesolv.linalg import Eliminator
    elim = Eliminator(env.field, env.dim)
    queue = []
    for row in algebra_subspace.basis():
        e = env.to_mask(env.from_algebra_vec(row))
        if elim.add_planes(e):
            queue.append(e)
    gens = [env.to_mask(env.gen(g)) for g in range(env.n)]
    while queue:
        v = queue.pop()
        for g in gens:
            for w in (env.mul_mask(v, g), env.mul_mask(g, v)):
                if elim.add_planes(w):
                    queue.append(w)
    return elim.to_subspace()


def test_quotient_compatibility():
    # derived series of u(L/I) matches the series of u(L) taken modulo the
    # two-sided ideal generated by I
    cases = [
        (heisenberg(), [(0, 0, 1)]),
        (negative_class2(), [(0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 1, 0)]),
    ]
    for L, gens in cases:
        ideal = L.restricted_closure(gens)
        Q, _ = L.quotient(ideal)
        env_q = Envelope(Q)
        res_q = env_q.lie_derived_series(keep_terms=True)
        env = Envelope(L)
        res = env.lie_derived_series(keep_terms=True)
        u_ideal = _envelope_ideal_of(env, ideal)
        for k in range(min(len(res.terms), len(res_q.terms))):
            lifted_dim = res.terms[k].sum(u_ideal).dim - u_ideal.dim
            assert lifted_dim == res_q.terms[k].dim, (k, L.names)
        assert res_q.outcome == "reached_zero" or res.outcome == "stabilized"


def _all_pairs_span(env, elems):
    return env.subspace_from_elems(
        [env.lie(elems[i], elems[j]) for i in range(len(elems))
         for j in range(i + 1, len(elems))])


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


# the first two seeds whose random_instance has D_1 != 0, for n = 3..6
_NONABELIAN_SEEDS = {
    GF2: {3: (7, 42), 4: (0, 8), 5: (1, 4), 6: (4, 8)},
    GF4: {3: (3, 31), 4: (13, 23), 5: (3, 7), 6: (7, 8)},
}


def _random_nonabelian():
    for field, by_n in _NONABELIAN_SEEDS.items():
        for n, seeds in by_n.items():
            for s in seeds:
                yield random_instance(n, field, s)[0]


def test_d1_from_generators_matches_all_pairs():
    # the oracle's first step brackets monomials with generators only
    for L in _random_nonabelian():
        env = Envelope(L)
        mons = [env.monomial(m) for m in range(env.dim)]
        ref = _all_pairs_span(env, mons)
        assert ref.dim > 0
        assert env.lie_derived_series(keep_terms=True).terms[1] == ref, (L.field, L.n)


def test_sz_ideal_matches_all_pairs_reference():
    # The random draws above all have a zero ideal.  random_instance(6, GF4, 353)
    # has a 16-dim one, which generating from the [u, x_0] alone would miss;
    # its GF(2) twin has b6 rescaled.
    zero = (0,) * 6
    twin_brackets = {(1, 3): _unit(6, 3), (2, 4): _unit(6, 5)}
    twin_pmap = [zero, _unit(6, 1), zero, zero, _unit(6, 0), zero]
    curated = [random_instance(6, GF4, 353)[0],
               RestrictedLieAlgebra(GF2, [f"b{i+1}" for i in range(6)],
                                    twin_brackets, twin_pmap),
               negative_class2(), negative_class2(GF4), family_iv(GF2, 2),
               family_v(GF4, 2)]
    for i, L in enumerate(curated + list(_random_nonabelian())):
        env = Envelope(L)
        mons = [env.monomial(m) for m in range(env.dim)]
        d1 = _all_pairs_span(env, mons)
        d2 = _all_pairs_span(env, [env.elem_from_row(r) for r in d1.rows])
        ideal = env.subspace_from_elems(
            [env.lie(env.elem_from_row(r), m) for r in d2.rows for m in mons])
        while True:  # close under multiplication by monomials on both sides
            basis = [env.elem_from_row(r) for r in ideal.rows]
            grown = env.subspace_from_elems(
                basis + [p for u in basis for m in mons
                         for p in (env.mul(u, m), env.mul(m, u))])
            if grown == ideal:
                break
            ideal = grown
        assert ideal.dim > 0 or i >= len(curated)
        assert env.subspace_from_elems(env.sz_ideal()) == ideal, (L.field, L.n)
