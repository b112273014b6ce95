import random

import pytest
from hypothesis import given, settings, strategies as st

from liesolv.fields import (
    GF2, GF2k, RatFunc2, RATFUNC2, TABLE_MAX_K, gf,
    DivisionByZero, FieldError, NoSquareRoot, ReducibleModulus,
    bp_gcd, bp_mul, bp_parse, bp_str, BP_ONE,
    field_from_json, field_to_json, find_irreducible, is_irreducible,
    poly_mod, poly_mul,
)

GF4 = gf(4)
T = 2  # the residue generator t in GF(4)


def test_gf4_modulus_is_t2_t_1():
    assert GF4.modulus == 0b111


def test_gf4_mul_t_t():
    # reduce t^2 by t^2+t+1: t*t = t+1
    assert GF4.mul(T, T) == T ^ 1


def test_char2_self_cancellation():
    for f, elems in [(GF4, GF4.elements()), (gf(8), gf(8).elements())]:
        for a in elems:
            assert f.add(a, a) == 0


def test_gf2k_field_axioms_randomized():
    rng = random.Random(7)
    for f in [GF2, GF4, gf(16), GF2k(5)]:
        for _ in range(60):
            a, b, c = (f.random(rng) for _ in range(3))
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.mul(a, b) == f.mul(b, a)
            if a:
                assert f.mul(a, f.inv(a)) == 1


def _poly_fields():
    # default moduli for k = 1..8, and two irreducible moduli that are not
    # primitive: t has order 5 in GF2k(4, 0b11111) and 51 in GF2k(8, 0x11B)
    return [GF2k(k) for k in range(1, 9)] + [GF2, GF2k(4, 0b11111), GF2k(8, 0x11B)]


def test_gf2k_tables_match_polynomial_arithmetic_exhaustive():
    for f in _poly_fields():
        for a in f.elements():
            assert f.square(a) == poly_mod(poly_mul(a, a), f.modulus)
            if a:
                assert poly_mod(poly_mul(a, f.inv(a)), f.modulus) == 1
            for b in f.elements():
                assert f.mul(a, b) == poly_mod(poly_mul(a, b), f.modulus)
    with pytest.raises(DivisionByZero):
        GF2k(8, 0x11B).inv(0)


def test_non_primitive_moduli():
    # the table base is found by search because t need not generate
    for f, order in [(GF2k(4, 0b11111), 5), (GF2k(8, 0x11B), 51)]:
        powers = {1}
        x = 2
        while x != 1:
            powers.add(x)
            x = poly_mod(poly_mul(x, 2), f.modulus)
        assert len(powers) == order < f.order - 1
        log, exp = f._tables
        assert sorted(exp[:f.order - 1]) == list(range(1, f.order))


_TABLED = {k: GF2k(k) for k in range(1, 17)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 16), st.data())
def test_gf2k_tables_match_polynomial_arithmetic(k, data):
    f = _TABLED[k]
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f.mul(a, b) == poly_mod(poly_mul(a, b), f.modulus)
    assert f.square(a) == poly_mod(poly_mul(a, a), f.modulus)
    if a:
        assert poly_mod(poly_mul(a, f.inv(a)), f.modulus) == 1
    assert f._tables


_ABOVE_CAP = GF2k(TABLE_MAX_K + 4)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.integers(0, _ABOVE_CAP.order - 1), st.integers(0, _ABOVE_CAP.order - 1))
def test_gf2k_above_table_cap_stays_polynomial(a, b):
    f = _ABOVE_CAP
    assert f.mul(a, b) == poly_mod(poly_mul(a, b), f.modulus)
    assert f.square(a) == poly_mod(poly_mul(a, a), f.modulus)
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f._tables == ()


def test_gf2k_sqrt_exhaustive_small():
    # oracle: square every field element, invert the table
    for f in [GF2, GF4, gf(8), gf(16)]:
        squares = {f.square(a): a for a in f.elements()}
        assert len(squares) == f.order  # Frobenius is a bijection
        for a in f.elements():
            s = f.sqrt(a)
            assert f.square(s) == a
            assert s == squares[a]


def test_gf4_sqrt_of_t():
    # frozen from the squaring oracle: (t+1)^2 = t
    assert GF4.sqrt(T) == T ^ 1


def test_sqrt_of_one():
    for f in [GF2, GF4, RATFUNC2]:
        assert f.sqrt(f.one) == f.one


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF4.inv(0)
    with pytest.raises(DivisionByZero):
        RATFUNC2.inv(RATFUNC2.zero)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        GF2k(2, 0b101)  # t^2+1 = (t+1)^2
    with pytest.raises(ReducibleModulus):
        GF2k(3, 0b111)  # degree mismatch


def test_find_irreducible_matches_trial_division():
    for k in range(1, 9):
        p = find_irreducible(k)
        assert is_irreducible(p)
        for q in range(1 << k, p):
            assert not is_irreducible(q)


# ----------------------------------------------------------------------
# F2(X, Y)
# ----------------------------------------------------------------------

F = RATFUNC2
X, Y = F.X, F.Y


def test_ratfunc_div_normalized():
    # (X^2+Y)/X is already in lowest terms
    num = F.add(F.mul(X, X), Y)
    q = F.div(num, X)
    assert F.to_str(q) == "(X^2+Y)/(X)"
    assert F.mul(q, X) == num


def test_ratfunc_cancellation():
    # (X^2*Y + X) / X = X*Y + 1, exactly
    num = F.add(F.mul(F.mul(X, X), Y), X)
    q = F.div(num, X)
    assert q == F.add(F.mul(X, Y), F.one)


def test_ratfunc_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (F.random(rng) for _ in range(3))
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, a) == F.zero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one


def test_ratfunc_sqrt():
    sq = F.mul(F.add(X, Y), F.add(X, Y))
    assert F.sqrt(sq) == F.add(X, Y)
    with pytest.raises(NoSquareRoot):
        F.sqrt(X)


def test_ratfunc_independence_of_1_X_Y():
    # lambda1^2 + lambda2^2*X + lambda3^2*Y is nonzero for nonzero
    # polynomial triples: 1, X, Y are independent over the subfield of squares
    rng = random.Random(3)
    for _ in range(100):
        lams = [F.random(rng) for _ in range(3)]
        # random() can yield fractions: clear to polynomials via numerators
        lams = [(n, BP_ONE) for (n, _) in lams]
        if all(F.is_zero(l) for l in lams):
            continue
        val = F.add(F.square(lams[0]),
                    F.add(F.mul(F.square(lams[1]), X), F.mul(F.square(lams[2]), Y)))
        assert not F.is_zero(val)


def test_bp_gcd_agrees_with_products():
    rng = random.Random(5)
    for _ in range(40):
        def rand_poly():
            return frozenset((i, j) for i in range(3) for j in range(3)
                             if rng.random() < 0.35) or BP_ONE
        g, a, b = rand_poly(), rand_poly(), rand_poly()
        ga, gb = bp_mul(g, a), bp_mul(g, b)
        d = bp_gcd(ga, gb)
        # gcd must divide both and be divisible by g
        from liesolv.fields import bp_div_exact
        bp_div_exact(ga, d)
        bp_div_exact(gb, d)
        bp_div_exact(d, bp_gcd(d, g))
        assert bp_gcd(d, g) == g


def test_bp_str_parse_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        p = frozenset((i, j) for i in range(4) for j in range(4) if rng.random() < 0.3)
        assert bp_parse(bp_str(p)) == p
    assert bp_str(bp_parse("X^2*Y+1")) == "X^2*Y+1"


def test_ratfunc_scalar_string_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        a = F.random(rng)
        assert F.from_str(F.to_str(a)) == a


# ----------------------------------------------------------------------
# extensions
# ----------------------------------------------------------------------

def test_prime_field_embedding():
    big, emb = GF2.extend(2, 0b111)
    assert big == GF4
    assert emb(1) == 1 and emb(0) == 0


def test_gf4_to_gf16_embedding_is_homomorphism():
    big, emb = GF4.extend(2)
    assert big.k == 4
    rng = random.Random(17)
    for _ in range(20):
        a, b = GF4.random(rng), GF4.random(rng)
        assert emb(GF4.mul(a, b)) == big.mul(emb(a), emb(b))
        assert emb(GF4.add(a, b)) == big.add(emb(a), emb(b))
    assert emb(1) == 1
    # injective on all four elements
    assert len({emb(a) for a in GF4.elements()}) == 4


def test_extend_stops_at_the_log_tables():
    # GF(2^20) would multiply without log tables; GF(2^16) is the last field with them
    assert TABLE_MAX_K == 16
    with pytest.raises(FieldError):
        gf(32).extend(4)
    with pytest.raises(FieldError):
        GF2.extend(TABLE_MAX_K + 1)
    big, emb = gf(16).extend(4)
    assert big.k == 16 and emb(1) == 1
    a, b = 7, 11
    assert emb(gf(16).mul(a, b)) == big.mul(emb(a), emb(b))


def test_ratfunc_sqrt_adjunction():
    big, emb = F.extend()
    img = emb(X)
    s = big.sqrt(img)
    assert big.mul(s, s) == img
    assert s == big.X
    rng = random.Random(19)
    for _ in range(20):
        a, b = F.random(rng), F.random(rng)
        assert emb(F.mul(a, b)) == big.mul(emb(a), emb(b))
        assert emb(F.add(a, b)) == big.add(emb(a), emb(b))


def test_field_json_roundtrip():
    for f in [GF2, GF4, GF2k(5), RatFunc2()]:
        assert field_from_json(field_to_json(f)) == f
