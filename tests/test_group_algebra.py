import random

import numpy as np
import pytest

from rgcodes.arith import GroupSpec, crt_multi
from rgcodes.chain_ring import F2, parse_ring
from rgcodes.group_algebra import AlgebraElem, GroupAlgebra, Subgroup

C3 = GroupSpec((3,), (1,))
C15 = GroupSpec((3, 5), (1, 1))
Z4 = parse_ring("z4")


def exponent_view(x: AlgebraElem) -> np.ndarray:
    """Coefficients of x indexed by powers of the order-n generator a."""
    alg = x.algebra
    out = np.zeros(alg.n, dtype=alg.ring.dtype)
    for k in range(alg.n):
        out[k] = x.coeffs[alg._flat(crt_multi(k, alg.group))]
    return out


def from_exponent_view(alg: GroupAlgebra, vec) -> AlgebraElem:
    """Inverse of exponent_view: build an element from a-power coefficients."""
    arr = np.zeros(alg.n, dtype=alg.ring.dtype)
    for k, c in enumerate(vec):
        arr[alg._flat(crt_multi(k, alg.group))] = c
    return AlgebraElem(alg, arr)


def test_subgroup_lattice():
    sub = Subgroup(C15, (0, 0))
    assert sub.size == 15 and sub.gen_exponents == (1, 1)
    assert Subgroup(C15, (1, 0)).size == 5
    assert Subgroup(C15, (1, 1)).size == 1
    nine = GroupSpec((3,), (2,))
    assert Subgroup(nine, (1,)).size == 3
    with pytest.raises(ValueError):
        Subgroup(C15, (2, 0))
    with pytest.raises(ValueError):
        Subgroup(C15, (0,))


def test_monomials_and_identity():
    alg = GroupAlgebra(Z4, C15)
    g = alg.generator_power(0)
    assert g.weight() == 1 and g.coeff((1, 0)).payload == 1
    assert alg.one() == alg.monomial((0, 0))
    assert (g * alg.one()) == g
    assert alg.zero().is_zero()
    # generator orders: a_1^3 = 1, a_2^5 = 1
    assert alg.generator_power(0, 3) == alg.one()
    assert alg.generator_power(1, 5) == alg.one()


def test_square_of_one_plus_g():
    alg = GroupAlgebra(Z4, C3)
    x = alg.one() + alg.generator_power(0)
    sq = x * x
    assert sq == alg.from_pairs([((0,), 1), ((1,), 2), ((2,), 1)])


def test_hat_whole_group_anchor():
    # 3^{-1} = 3 in Z4, so hat(C3) = 3 + 3a + 3a^2
    alg = GroupAlgebra(Z4, C3)
    h = alg.hat((0,))
    assert h == alg.from_pairs([((0,), 3), ((1,), 3), ((2,), 3)])
    assert h.is_idempotent()


def test_hat_idempotent_everywhere():
    for rname in ("z2", "z4", "z8", "f2u2", "f2u3"):
        alg = GroupAlgebra(parse_ring(rname), C15)
        for levels in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            h = alg.hat(levels)
            assert h.is_idempotent()
            assert h.weight() == Subgroup(C15, levels).size


def test_factor_hat():
    alg = GroupAlgebra(Z4, C15)
    # <a_1> embedded with the identity of the second factor
    h = alg.factor_hat(0, 0)
    assert h.support() == [(0, 0), (1, 0), (2, 0)]
    assert h.is_idempotent()
    assert alg.factor_hat(0, 1) == alg.monomial((0, 0), 1)


def test_from_exponent():
    alg = GroupAlgebra(F2, C15)
    assert alg.from_exponent(0) == alg.one()
    x = alg.one()
    for _ in range(15):
        x = x * alg.from_exponent(1)
    assert x == alg.one()  # a has order 15
    prod = alg.from_exponent(7) * alg.from_exponent(11)
    assert prod == alg.from_exponent(18 % 15)


def test_convolution_against_schoolbook():
    """Dense multi-axis convolution vs a 1-D schoolbook product on a-powers."""
    rng = random.Random(20260823)
    for rname, spec in [("z4", C15), ("f2u3", C15), ("z8", C3),
                        ("z4", GroupSpec((3,), (2,)))]:
        ring = parse_ring(rname)
        alg = GroupAlgebra(ring, spec)
        n = alg.n
        for _ in range(12):
            x = alg.element([rng.randrange(ring.size) for _ in range(n)])
            y = alg.element([rng.randrange(ring.size) for _ in range(n)])
            xa, ya = exponent_view(x), exponent_view(y)
            out = np.zeros(n, dtype=np.uint32)
            for i in range(n):  # schoolbook: one scalar product per pair
                for j in range(n):
                    k = (i + j) % n
                    out[k] = ring.add(int(out[k]), ring.mul(int(xa[i]), int(ya[j])))
            want = from_exponent_view(alg, out)
            assert x * y == want


def test_pow_matches_repeated_mul(monkeypatch):
    """Square-and-multiply: bit_length - 1 squarings, popcount - 1 multiplies."""
    rng = random.Random(5)
    alg = GroupAlgebra(Z4, C15)
    x = alg.element([rng.randrange(4) for _ in range(15)])
    products = []
    convolve = AlgebraElem._convolve

    def counted(self, other):
        products.append(1)
        return convolve(self, other)

    monkeypatch.setattr(AlgebraElem, "_convolve", counted)
    acc = alg.one()
    for e in range(10):
        products.clear()
        power = x ** e
        want = 0 if e == 0 else e.bit_length() + bin(e).count("1") - 2
        assert len(products) == want, e
        assert power == acc
        acc = acc * x


def test_translate_and_scale():
    alg = GroupAlgebra(Z4, C15)
    g1 = alg.generator_power(0)
    x = alg.hat((1, 0))
    assert x.translate((1, 0)) == g1 * x
    # scaling exponents by a unit permutes coefficients
    y = alg.from_pairs([((1, 2), 3), ((0, 1), 1)])
    z = y.scale_exponents(2)
    assert z.coeff((2, 4)).payload == 3 and z.coeff((0, 2)).payload == 1
    assert y.scale_exponents(1) == y
    # m = 2 is an automorphism: multiplicative on products
    a, b = alg.hat((0, 1)), alg.from_pairs([((1, 0), 2), ((2, 3), 1)])
    assert (a * b).scale_exponents(2) == a.scale_exponents(2) * b.scale_exponents(2)


def test_reduce_and_lift_roundtrip():
    alg4 = GroupAlgebra(Z4, C15)
    algf2 = GroupAlgebra(F2, C15)
    e = algf2.hat((0, 1))
    lifted = e.lift_to(Z4)
    assert lifted.algebra == alg4
    assert lifted.reduce_f2() == e
    with pytest.raises(ValueError):
        alg4.hat((0, 0)).lift_to(parse_ring("z8"))  # lift starts from F2 only


def test_scalar_multiplication():
    alg = GroupAlgebra(Z4, C3)
    x = alg.from_pairs([((0,), 1), ((1,), 3)])
    assert x.scalar_mul(2) == alg.from_pairs([((0,), 2), ((1,), 2)])
    assert x * 2 == x.scalar_mul(2)
    assert x.scalar_mul(0).is_zero()


def test_support_weight_pairs():
    alg = GroupAlgebra(Z4, C15)
    x = alg.from_pairs([((2, 3), 2), ((0, 0), 1)])
    assert x.weight() == 2
    assert x.support() == [(0, 0), (2, 3)]
    assert x.pairs() == [((0, 0), 1), ((2, 3), 2)]
    assert x.coeff((1, 1)).is_zero()


def test_str_readable():
    alg = GroupAlgebra(Z4, C3)
    x = alg.from_pairs([((0,), 2), ((1,), 1)])
    assert str(x) == "2 + a1"
    assert str(alg.zero()) == "0"


def test_algebra_equality_and_errors():
    assert GroupAlgebra(Z4, C15) == GroupAlgebra(Z4, C15)
    assert GroupAlgebra(Z4, C15) != GroupAlgebra(F2, C15)
    a, b = GroupAlgebra(Z4, C15), GroupAlgebra(Z4, C3)
    with pytest.raises(ValueError):
        a.one() * b.one()
    with pytest.raises(ValueError):
        a.element([0] * 7)  # wrong length


def test_exponent_view_roundtrip():
    alg = GroupAlgebra(Z4, C15)
    rng = random.Random(11)
    x = alg.element([rng.randrange(4) for _ in range(15)])
    assert from_exponent_view(alg, exponent_view(x)) == x
    # a^k lands at position k of the view
    v = exponent_view(alg.from_exponent(7))
    assert v[7] == 1 and v.sum() == 1
