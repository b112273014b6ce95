"""Constructors for the curated algebra families and random instances.

Positive families realize the five solvability conditions of the
classifier; the negative control is a 7-dimensional class-2 algebra
whose central alternating form has nonzero Pfaffian combination against
a toral central element.  Every constructor returns an algebra that
passes the axiom checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebra import RestrictedLieAlgebra
from .fields import GF2, RatFunc2
from .linalg import Quotient, unit_vector


class BadParameters(Exception):
    pass


class GenerationBudgetExceeded(Exception):
    pass


def _zero(field, n):
    return (field.zero,) * n


def heisenberg(field=GF2) -> RestrictedLieAlgebra:
    """H3: [e1,e2] = e3, square map zero."""
    return RestrictedLieAlgebra(
        field, ["e1", "e2", "e3"],
        {(0, 1): unit_vector(field, 3, 2)},
        [_zero(field, 3)] * 3,
    )


def family_i(field=GF2, toral: int = 1, nilchain: int = 1, moved: int = 1,
             toral_action: bool = True) -> RestrictedLieAlgebra:
    """Abelian restricted ideal of codimension 1 plus an acting generator y.

    The ideal A splits into a toral part, a square-nilpotent chain, and
    a block moved by ad(y); y is toral when toral_action is set.
    """
    if toral < 0 or nilchain < 0 or moved < 0 or toral + nilchain + moved == 0:
        raise BadParameters("family i needs a nonempty ideal")
    m = toral + nilchain + moved
    n = m + 1
    names = ([f"t{i+1}" for i in range(toral)]
             + [f"w{i+1}" for i in range(nilchain)]
             + [f"m{i+1}" for i in range(moved)] + ["y"])
    y = m
    brackets: Dict[Tuple[int, int], tuple] = {}
    for i in range(moved):
        idx = toral + nilchain + i
        # ad(y) acts as the identity on the moved block: [m_i, y] = m_i
        brackets[(idx, y)] = unit_vector(field, n, idx)
    pmap: List[tuple] = []
    for i in range(toral):
        pmap.append(unit_vector(field, n, i))
    for i in range(nilchain):
        idx = toral + i
        if i + 1 < nilchain:
            pmap.append(unit_vector(field, n, idx + 1))
        else:
            pmap.append(_zero(field, n))
    for _ in range(moved):
        pmap.append(_zero(field, n))
    pmap.append(unit_vector(field, n, y) if toral_action else _zero(field, n))
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def free_class2(field=GF2, gens: int = 3,
                center_squares: bool = False) -> RestrictedLieAlgebra:
    """Free nilpotent-of-class-2 algebra on the given generators.

    Basis: generators x_i followed by one central z_ij per pair; squares
    vanish, except optionally toral central squares z_ij^[2] = z_ij.
    """
    if gens < 2:
        raise BadParameters("need at least two generators")
    pairs = [(i, j) for i in range(gens) for j in range(i + 1, gens)]
    n = gens + len(pairs)
    names = [f"x{i+1}" for i in range(gens)]
    names += [f"z{i+1}{j+1}" for (i, j) in pairs]
    brackets = {}
    for idx, (i, j) in enumerate(pairs):
        brackets[(i, j)] = unit_vector(field, n, gens + idx)
    pmap = [_zero(field, n)] * gens
    for idx in range(len(pairs)):
        if center_squares:
            pmap.append(unit_vector(field, n, gens + idx))
        else:
            pmap.append(_zero(field, n))
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def family_iii(field=GF2, central_dim: int = 0,
               central_bracket: bool = False) -> RestrictedLieAlgebra:
    """[x1,y] = x1, [x2,y] = x2, [x1,x2] central; y toral."""
    if central_bracket and central_dim == 0:
        raise BadParameters("a central bracket value needs a center")
    n = 3 + central_dim
    names = ["x1", "x2", "y"] + [f"z{i+1}" for i in range(central_dim)]
    brackets = {
        (0, 2): unit_vector(field, n, 0),
        (1, 2): unit_vector(field, n, 1),
    }
    if central_bracket:
        brackets[(0, 1)] = unit_vector(field, n, 3)
    pmap = [_zero(field, n), _zero(field, n), unit_vector(field, n, 2)]
    pmap += [_zero(field, n)] * central_dim
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def family_iv(field=GF2, h_dim: int = 1) -> RestrictedLieAlgebra:
    """[x,y] = x, [y,h_i] = h_i, [x,h_i] = z_i central, H strongly abelian."""
    if h_dim < 1:
        raise BadParameters("H must be nonempty")
    n = 2 + 2 * h_dim
    names = ["x", "y"] + [f"h{i+1}" for i in range(h_dim)] + [f"z{i+1}" for i in range(h_dim)]
    brackets = {(0, 1): unit_vector(field, n, 0)}
    for i in range(h_dim):
        h = 2 + i
        z = 2 + h_dim + i
        brackets[(1, h)] = unit_vector(field, n, h)
        brackets[(0, h)] = unit_vector(field, n, z)
    pmap = [_zero(field, n), unit_vector(field, n, 1)] + [_zero(field, n)] * (2 * h_dim)
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def family_v(field=GF2, h_dim: int = 1) -> RestrictedLieAlgebra:
    """Like family_iv but with matched squares: [x,h_i]^[2] = h_i^[2] = z_i."""
    if h_dim < 1:
        raise BadParameters("H must be nonempty")
    n = 2 + 2 * h_dim
    names = ["x", "y"] + [f"h{i+1}" for i in range(h_dim)] + [f"z{i+1}" for i in range(h_dim)]
    brackets = {(0, 1): unit_vector(field, n, 0)}
    for i in range(h_dim):
        h = 2 + i
        z = 2 + h_dim + i
        brackets[(1, h)] = unit_vector(field, n, h)
        brackets[(0, h)] = unit_vector(field, n, z)
    pmap = [_zero(field, n), unit_vector(field, n, 1)]
    for i in range(h_dim):
        pmap.append(unit_vector(field, n, 2 + h_dim + i))   # h_i^[2] = z_i
    for i in range(h_dim):
        pmap.append(unit_vector(field, n, 2 + h_dim + i))   # z_i^[2] = z_i
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def negative_class2(field=GF2) -> RestrictedLieAlgebra:
    """7-dimensional non-solvable control: z14 is toral and the pairing
    combination z12*z34 + z13*z24 + z14*z23 reduces to a power of it."""
    n = 7
    names = ["x1", "x2", "x3", "x4", "z12", "z13", "z14"]
    brackets = {
        (0, 1): unit_vector(field, n, 4),
        (0, 2): unit_vector(field, n, 5),
        (0, 3): unit_vector(field, n, 6),
        (1, 2): unit_vector(field, n, 6),
    }
    pmap = [_zero(field, n)] * 6 + [unit_vector(field, n, 6)]
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def witness_chain(k: int, field=GF2) -> RestrictedLieAlgebra:
    """Chain algebra with k pivot generators feeding independent central
    products, a finite stand-in for the unbounded commutator products of
    the infinite-dimensional construction.

    Basis: x, y, a_1..a_k, p_1..p_k, q_1..q_k with [a_i, x] = p_i and
    [a_i, y] = q_i, all squares zero.  The products
    [a_i,x][a_j,x][a_i,y][a_j,y] are nonzero in u(L), and the measured
    derived length of u(L) grows with k.
    """
    if k < 1:
        raise BadParameters("need at least one pivot generator")
    n = 2 + 3 * k
    names = ["x", "y"] + [f"a{i+1}" for i in range(k)]
    names += [f"p{i+1}" for i in range(k)] + [f"q{i+1}" for i in range(k)]
    brackets = {}
    for i in range(k):
        a = 2 + i
        brackets[(0, a)] = unit_vector(field, n, 2 + k + i)
        brackets[(1, a)] = unit_vector(field, n, 2 + 2 * k + i)
    pmap = [_zero(field, n)] * n
    return RestrictedLieAlgebra(field, names, brackets, pmap)


def example_7_1(field: Optional[RatFunc2] = None) -> RestrictedLieAlgebra:
    """The 7-dimensional algebra over F2(X,Y) with alpha = X, beta = Y.

    Brackets: [x,x1] = [x,x3] = z1, [x,x2] = z2, [x1,x2] = z3,
    [x1,x3] = (Y/X) z3, [x2,x3] = 0; z1^[2] = z1, z2^[2] = X z1,
    z3^[2] = Y z1; all other squares zero.
    """
    F = field or RatFunc2()
    X, Y = F.X, F.Y
    n = 7
    names = ["x", "x1", "x2", "x3", "z1", "z2", "z3"]
    zero = _zero(F, n)

    def unit(i, c=None):
        v = list(zero)
        v[i] = c if c is not None else F.one
        return tuple(v)

    brackets = {
        (0, 1): unit(4),
        (0, 3): unit(4),
        (0, 2): unit(5),
        (1, 2): unit(6),
        (1, 3): unit(6, F.div(Y, X)),
    }
    pmap = [zero, zero, zero, zero, unit(4), unit(4, X), unit(4, Y)]
    return RestrictedLieAlgebra(F, names, brackets, pmap)


def example_7_1_extended() -> Tuple[RestrictedLieAlgebra, RatFunc2, "object"]:
    """Base change of example_7_1 through the square-root adjunction."""
    L = example_7_1()
    big, embed = L.field.extend()
    return L.base_change(big, embed), big, embed


@dataclass
class Example71Report:
    """Three-part reproduction of the function-field example.

    Part 3 carries the honest outcome for the quotient: for this bracket
    table the pairing obstruction is nonzero, which rules any abelian
    codimension-1 ideal out (see "Notes on the acceptance suite" in the
    README).  ``part3_abelian_codim1_found`` is decided over the whole
    quotient by ``classify.abelian_ideal``, not by testing one
    candidate, and is False.
    """
    part1_element: str
    part1_nonzero: bool
    part2_v_square_zero: bool
    part2_w_square_zero: bool
    part2_ideal_2nilpotent: bool
    part3_abelian_codim1_found: bool
    part3_generator_brackets: List[str]
    part3_obstruction: str
    notes: List[str]

    def lines(self) -> List[str]:
        out = [
            f"part 1: [[x, x*x1], [x1, x1*x2*x3], x2] = {self.part1_element}",
            f"part 1 nonzero (no codim-1 abelian ideal over the base field): "
            f"{self.part1_nonzero}",
            f"part 2: v^[2] = 0: {self.part2_v_square_zero}; w^[2] = 0: "
            f"{self.part2_w_square_zero}; J = <v,w> is a 2-nilpotent restricted "
            f"ideal: {self.part2_ideal_2nilpotent}",
            f"part 3: abelian codimension-1 ideal in the quotient found: "
            f"{self.part3_abelian_codim1_found}",
        ]
        out += [f"part 3 bracket: {s}" for s in self.part3_generator_brackets]
        out.append(f"part 3 obstruction: {self.part3_obstruction}")
        out += [f"note: {s}" for s in self.notes]
        return out


def example_7_1_report() -> Example71Report:
    from .classify import _pairing_elements, abelian_ideal
    from .envelope import Envelope

    L = example_7_1()
    F = L.field
    env = Envelope(L)
    idx = {n: i for i, n in enumerate(L.names)}
    g = env.gen
    x, x1, x2, x3 = g(idx["x"]), g(idx["x1"]), g(idx["x2"]), g(idx["x3"])
    part1 = env.lie(env.lie(env.lie(x, env.mul(x, x1)),
                            env.lie(x1, env.mul(env.mul(x1, x2), x3))), x2)

    Lx, big, embed = example_7_1_extended()
    a1 = big.sqrt(embed(F.X))
    b1 = big.sqrt(embed(F.Y))

    def central(coeff, zi, zj):
        v = [big.zero] * 7
        v[zi] = coeff
        v[zj] = big.one
        return tuple(v)

    v_elem = central(a1, idx["z1"], idx["z2"])
    w_elem = central(b1, idx["z1"], idx["z3"])
    v_sq = all(big.is_zero(c) for c in Lx.pmap_eval(v_elem))
    w_sq = all(big.is_zero(c) for c in Lx.pmap_eval(w_elem))
    j_ideal = Lx.restricted_closure([v_elem, w_elem])
    j_2nil, _ = Lx.is_2nilpotent_ideal(j_ideal)
    j_ok = j_2nil and j_ideal.dim == 2

    Q, quot = Lx.quotient(j_ideal)
    gens = []
    for coeff, gen_idx in ((None, idx["x"]), (a1, idx["x1"]), (b1, idx["x1"])):
        v = [big.zero] * 7
        if coeff is None:
            v[gen_idx] = big.one
        else:
            v[gen_idx] = coeff
        gens.append(v)
    gens[1][idx["x2"]] = big.one
    gens[2][idx["x3"]] = big.one
    images = [quot.project(tuple(v)) for v in gens]
    bracket_lines = []
    labels = ["x-bar", "sqrt(X)*x1 + x2", "sqrt(Y)*x1 + x3"]
    for i in range(3):
        for j in range(i + 1, 3):
            br = Q.bracket(images[i], images[j])
            ok = all(big.is_zero(c) for c in br)
            bracket_lines.append(
                f"[{labels[i]}, {labels[j]}] = {Q.element_str(br)}"
                f" ({'zero' if ok else 'NONZERO'})")
    # decided, not searched: Q has L' = Z of dimension 1 and its one
    # bracket form has rank 4 on Q/Z, so abelian_ideal proves that no
    # abelian hyperplane exists (the Pfaffian argument of the README)
    found = abelian_ideal(Q) is not None
    # the rigorous obstruction: the pairing pattern evaluated in u(Q) is an
    # element of the ideal generated by [[a,b],[c,d],e]; a codimension-1
    # abelian ideal would make u(Q) embed into 2x2 matrices over a
    # commutative ring and force it to vanish (the first element of
    # necessary test (b) on u(Q))
    envq = Envelope(Q)
    lifts = Quotient(Q.center()).lifted
    w_pat = next(_pairing_elements(envq, lifts), None)
    if w_pat is None:
        obstruction = ""
    elif w_pat:
        obstruction = (f"pairing element in u(quotient) is nonzero: "
                       f"{envq.element_str(envq._to_dict(w_pat))}")
    else:
        obstruction = "pairing element in u(quotient) vanishes"
    notes = [
        "parts 1 and 2 reproduce the quoted computations exactly",
        "part 3 fails for this bracket table: the part-1 element factors as "
        "[x,x1]*[x1,x2]*(pairing combination), so a nonzero part-1 value forces "
        "the pairing obstruction that excludes abelian codimension-1 ideals "
        "after any central 2-nilpotent quotient",
    ]
    return Example71Report(
        part1_element=env.element_str(part1),
        part1_nonzero=bool(part1),
        part2_v_square_zero=v_sq,
        part2_w_square_zero=w_sq,
        part2_ideal_2nilpotent=j_ok,
        part3_abelian_codim1_found=found,
        part3_generator_brackets=bracket_lines,
        part3_obstruction=obstruction,
        notes=notes,
    )


def random_brackets(rng: random.Random, n: int, field) -> Dict[Tuple[int, int], tuple]:
    """Up to n - 1 random brackets [b_i, b_j], i < j, each with one or two
    random coordinates; a later draw of the same pair replaces an earlier."""
    brackets = {}
    for _ in range(rng.randrange(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        i, j = min(i, j), max(i, j)
        vec = [field.zero] * n
        for _ in range(rng.randrange(1, 3)):
            vec[rng.randrange(n)] = field.random(rng)
        brackets[(i, j)] = tuple(vec)
    return brackets


def random_instance(n: int, field, seed: int,
                    max_attempts: int = 4000) -> Tuple[RestrictedLieAlgebra, int]:
    """Rejection-sample a valid restricted Lie algebra; returns (L, attempts)."""
    if not 1 <= n <= 8:
        raise BadParameters("random instances need a dimension from 1 to 8")
    rng = random.Random(f"{seed}:{n}:{getattr(field, 'k', 0)}")
    for attempt in range(1, max_attempts + 1):
        brackets = random_brackets(rng, n, field)
        pmap = []
        for i in range(n):
            vec = [field.zero] * n
            if rng.random() < 0.5:
                vec[rng.randrange(n)] = field.random(rng)
            pmap.append(tuple(vec))
        try:
            L = RestrictedLieAlgebra(field, [f"b{i+1}" for i in range(n)], brackets, pmap)
        except Exception:
            continue
        if L.check_axioms().ok:
            return L, attempt
    raise GenerationBudgetExceeded(f"no valid instance within {max_attempts} attempts")


FAMILY_BUILDERS = {
    "heisenberg": heisenberg,
    "fam-i": family_i,
    "fam-ii": free_class2,
    "fam-iii": family_iii,
    "fam-iv": family_iv,
    "fam-v": family_v,
    "n7": negative_class2,
    "witness-chain": witness_chain,
    "example-7-1": example_7_1,
    "example-7-1-extended": lambda: example_7_1_extended()[0],
}
