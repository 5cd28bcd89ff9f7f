import math
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgcodes.arith import GroupSpec, InvariantError, crt_index, crt_multi
from rgcodes.chain_ring import F2, parse_ring
from rgcodes.group_algebra import AlgebraElem, GroupAlgebra
from rgcodes.idempotents import lift_idempotent

C3 = GroupSpec((3,), (1,))
C15 = GroupSpec((3, 5), (1, 1))
C45 = GroupSpec((3, 5), (2, 1))
Z4 = parse_ring("z4")


def from_pairs(alg, pairs):
    """Element from (multi-index, payload) pairs: the inverse of pairs()."""
    coeffs = np.zeros(alg.n, dtype=alg.ring.dtype)
    for multi, payload in pairs:
        coeffs[crt_index(tuple(multi), alg.group)] = payload
    return alg.element(coeffs)


def support(x):
    return [multi for multi, _ in x.pairs()]


def test_subgroup_lattice():
    """hat(levels) spreads |H|^-1 over H = prod_i <a_i^{p_i^level_i}>."""
    alg = GroupAlgebra(Z4, C15)
    assert alg.hat((0, 0)).weight() == 15
    assert alg.hat((1, 0)).weight() == 5
    assert alg.hat((1, 1)) == alg.one()
    assert GroupAlgebra(Z4, GroupSpec((3,), (2,))).hat((1,)).weight() == 3
    with pytest.raises(ValueError):
        alg.hat((2, 0))
    with pytest.raises(ValueError):
        alg.hat((0,))


def test_monomials_and_identity():
    alg = GroupAlgebra(Z4, C15)
    g = alg.generator_power(0)
    assert g.pairs() == [((1, 0), 1)]
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
    assert sq == from_pairs(alg, [((0,), 1), ((1,), 2), ((2,), 1)])


def test_hat_whole_group_anchor():
    # 3^{-1} = 3 in Z4, so hat(C3) = 3 + 3a + 3a^2
    alg = GroupAlgebra(Z4, C3)
    h = alg.hat((0,))
    assert h == from_pairs(alg, [((0,), 3), ((1,), 3), ((2,), 3)])
    assert h.is_idempotent()


def test_hat_idempotent_everywhere():
    for rname in ("z2", "z4", "z8", "f2u2", "f2u3"):
        alg = GroupAlgebra(parse_ring(rname), C15)
        for levels in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            h = alg.hat(levels)
            assert h.is_idempotent()
            assert h.weight() == 15 // math.prod(p**l for p, l in zip(C15.primes, levels))


def test_factor_hat():
    alg = GroupAlgebra(Z4, C15)
    # <a_1> embedded with the identity of the second factor
    h = alg.factor_hat(0, 0)
    assert support(h) == [(0, 0), (1, 0), (2, 0)]
    assert h.is_idempotent()
    assert alg.factor_hat(0, 1) == alg.monomial((0, 0))


def test_from_exponent():
    """Powers of a = a_1 ... a_r, built as monomials at crt_multi(k), obey the group law."""
    alg = GroupAlgebra(F2, C15)

    def a_pow(k):
        return alg.monomial(crt_multi(k % alg.n, C15))

    assert a_pow(0) == alg.one()
    x = alg.one()
    for _ in range(15):
        x = x * a_pow(1)
    assert x == alg.one()  # a has order 15
    assert a_pow(7) * a_pow(11) == a_pow(18)


def test_exponent_view_roundtrip():
    """coeffs is the a-power view: it round-trips through the multi-index view."""
    alg = GroupAlgebra(Z4, C15)
    rng = random.Random(11)
    x = alg.element([rng.randrange(4) for _ in range(15)])
    assert from_pairs(alg, x.pairs()) == x
    # a^k lands at position k of the view
    v = alg.monomial(crt_multi(7, C15)).coeffs
    assert v[7] == 1 and v.sum() == 1


LAYOUT_GROUPS = (GroupSpec((3,), (2,)), C15, C45, GroupSpec((3, 5, 11), (1, 1, 1)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_layout_boundary(data):
    """Multi-indices in and out of the cyclic layout obey the group law."""
    spec = data.draw(st.sampled_from(LAYOUT_GROUPS), label="group")
    alg = GroupAlgebra(parse_ring(data.draw(st.sampled_from(("z4", "f2u2")), label="ring")), spec)
    qs = spec.factor_orders
    multi = st.tuples(*(st.integers(0, q - 1) for q in qs))
    x, y = data.draw(multi, label="x"), data.draw(multi, label="y")

    # position k holds a^k, and a = a_1 ... a_r has order n
    k = data.draw(st.integers(0, spec.n - 1), label="k")
    unit = np.zeros(spec.n, dtype=alg.ring.dtype)
    unit[k] = 1
    assert np.array_equal(alg.monomial(crt_multi(k, spec)).coeffs, unit)
    a_pow = [alg.monomial(crt_multi(e, spec)) for e in (1, spec.n - 1)]
    assert a_pow[0] * a_pow[1] == alg.one()  # a^n = 1

    assert alg.monomial(x) * alg.monomial(y) == alg.monomial(
        tuple((a + b) % q for a, b, q in zip(x, y, qs)))
    assert support(alg.monomial(x)) == [x]

    where = data.draw(st.lists(multi, min_size=1, max_size=8, unique=True), label="support")
    pairs = [(e, data.draw(st.integers(1, alg.ring.mask), label="payload")) for e in where]
    assert from_pairs(alg, pairs).pairs() == sorted(pairs)

    levels = data.draw(st.tuples(*(st.integers(0, e) for e in spec.exponents)), label="levels")
    want = [e for e in product(*map(range, qs))
            if all(ei % p**l == 0 for ei, p, l in zip(e, spec.primes, levels))]
    assert support(alg.hat(levels)) == want

    m = data.draw(st.integers(1, 2 * spec.n).filter(lambda v: math.gcd(v, spec.n) == 1), label="m")
    assert alg.monomial(x).scale_exponents(m) == alg.monomial(
        tuple(m * a % q for a, q in zip(x, qs)))


# t in {1, 2, 8, 9, 16} in both families: one FFT digit, 8-bit limbs, bit-planes
KERNEL_RINGS = ("z2", "z4", "z256", "z512", "z65536", "f2u2", "f2u8", "f2u9", "f2u16")
KERNEL_GROUPS = (GroupSpec((3,), (2,)), C15, C45)


def schoolbook(x: AlgebraElem, y: AlgebraElem) -> AlgebraElem:
    """1-D product on a-powers, one scalar ring product per pair: O(n^2)."""
    alg, ring = x.algebra, x.algebra.ring
    out = np.zeros(alg.n, dtype=np.uint32)
    for i in range(alg.n):
        for j in range(alg.n):
            k = (i + j) % alg.n
            out[k] = ring.add(int(out[k]), ring.mul(int(x.coeffs[i]), int(y.coeffs[j])))
    return AlgebraElem(alg, out)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_convolution_against_schoolbook(data):
    """Both product paths (shift-and-add up to SHIFT_ADD_MAX_TERMS terms in
    the sparser operand, FFT above) equal the scalar schoolbook product."""
    ring = parse_ring(data.draw(st.sampled_from(KERNEL_RINGS), label="ring"))
    alg = GroupAlgebra(ring, data.draw(st.sampled_from(KERNEL_GROUPS), label="group"))
    n = alg.n

    def operand(label):
        terms = data.draw(st.sampled_from(range(1, n + 1)), label=label + " terms")
        where = data.draw(st.lists(st.integers(0, n - 1), min_size=terms,
                                   max_size=terms, unique=True), label=label + " support")
        coeffs = [0] * n
        for k in where:
            coeffs[k] = data.draw(st.integers(1, ring.mask), label=label + " coefficient")
        return alg.element(coeffs)

    x, y = operand("x"), operand("y")
    assert x * y == schoolbook(x, y)


def test_fft_rounding_guard(monkeypatch):
    """An inverse transform that is off by 0.3 fails the integer check; a
    product on the shift-and-add path never transforms and is unaffected."""
    rng = random.Random(3)
    alg = GroupAlgebra(Z4, C15)
    x = alg.element([rng.randrange(1, 4) for _ in range(15)])
    monomial = alg.monomial(crt_multi(4, C15))
    want = alg.element(np.roll(x.coeffs, 4))  # times a^4: a cyclic shift by 4
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real(*a, **k) + 0.3)
    with pytest.raises(InvariantError, match="FFT product lost integer precision"):
        x * x
    assert x * monomial == want


def test_fft_rounding_guard_under_optimize():
    """The same check in a python -O interpreter, where asserts are stripped."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_fft_rounding_guard"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 passed" in proc.stdout


def test_translate_and_scale():
    alg = GroupAlgebra(Z4, C15)
    # scaling exponents by a unit permutes coefficients
    y = from_pairs(alg, [((1, 2), 3), ((0, 1), 1)])
    z = y.scale_exponents(2)
    assert z.pairs() == [((0, 2), 1), ((2, 4), 3)]
    assert y.scale_exponents(1) == y
    # m = 2 is an automorphism: multiplicative on products
    a, b = alg.hat((0, 1)), from_pairs(alg, [((1, 0), 2), ((2, 3), 1)])
    assert (a * b).scale_exponents(2) == a.scale_exponents(2) * b.scale_exponents(2)


def test_scale_exponents_against_loop():
    """The index-array permutation equals a per-term loop over multi-indices."""
    rng = random.Random(7)
    for spec in (C15, C45, GroupSpec((3, 5, 7), (1, 1, 1))):
        alg = GroupAlgebra(Z4, spec)
        x = alg.element([rng.randrange(4) for _ in range(alg.n)])
        for m in (1, 2, 4, -1, alg.n + 2):
            want = from_pairs(alg, [
                (tuple(m * e % q for e, q in zip(multi, spec.factor_orders)), c)
                for multi, c in x.pairs()])
            assert x.scale_exponents(m) == want


def test_reduce_and_lift_roundtrip():
    """lift_idempotent inverts reduce_f2 on idempotents: the lift of an F2
    hat is the hat over R, the unique idempotent over it."""
    alg4 = GroupAlgebra(Z4, C15)
    e = GroupAlgebra(F2, C15).hat((0, 1))
    lifted = lift_idempotent(e, Z4)
    assert lifted.algebra == alg4
    assert lifted.reduce_f2() == e
    assert lifted == alg4.hat((0, 1))
    with pytest.raises(ValueError):
        lift_idempotent(alg4.hat((0, 0)), parse_ring("z8"))  # lift starts from F2 only


def test_scalar_multiplication():
    alg = GroupAlgebra(Z4, C3)
    x = from_pairs(alg, [((0,), 1), ((1,), 3)])
    assert x.scalar_mul(2) == from_pairs(alg, [((0,), 2), ((1,), 2)])
    assert x.scalar_mul(0).is_zero()
    assert x.scalar_mul(Z4.from_int(-1)) == from_pairs(alg, [((0,), 3), ((1,), 1)])
    for bad in (-1, 4, 1.5, "2"):  # a scalar is a payload in [0, 2^t)
        with pytest.raises(ValueError):
            x.scalar_mul(bad)
    with pytest.raises(ValueError):
        x * 2  # an int is not an algebra element


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from([parse_ring(r) for r in ("z2", "z4", "z512", "f2u2", "f2u3", "f2u9")]),
       payload=st.one_of(st.integers(-2**70, 2**70), st.integers(-2, 600),
                         st.floats(allow_nan=False, allow_infinity=False)))
def test_element_payloads_validated(ring, payload):
    """element takes integer payloads in [0, 2^t) and raises ValueError for any other."""
    alg = GroupAlgebra(ring, C3)
    if isinstance(payload, int) and 0 <= payload < ring.size:
        assert alg.element([1, payload, 0]).coeffs.tolist() == [1, payload, 0]
        assert alg.element(np.array([1, payload, 0])).coeffs[1] == payload
    else:
        with pytest.raises(ValueError):
            alg.element([1, payload, 0])


def test_support_weight_pairs():
    alg = GroupAlgebra(Z4, C15)
    x = from_pairs(alg, [((2, 3), 2), ((0, 0), 1)])
    assert x.weight() == 2
    assert support(x) == [(0, 0), (2, 3)]
    assert x.pairs() == [((0, 0), 1), ((2, 3), 2)]


def test_repr_shows_pairs():
    """repr names the ring and group and lists pairs(), cut at 120 characters."""
    alg = GroupAlgebra(Z4, C3)
    x = from_pairs(alg, [((0,), 2), ((1,), 1)])
    assert repr(x) == "AlgebraElem[z4; 3^1]([((0,), 2), ((1,), 1)])"
    assert repr(alg.zero()) == "AlgebraElem[z4; 3^1]([])"
    assert str(x) == repr(x)  # no separate pretty-printer
    long = repr(GroupAlgebra(Z4, C45).hat((0, 0)))
    assert long.startswith("AlgebraElem[z4; 3^2,5^1]([((0, 0), 1), ((0, 1), 1), ")
    assert long.endswith("...)") and len(long) == len("AlgebraElem[z4; 3^2,5^1]()") + 120


def test_algebra_equality_and_errors():
    assert GroupAlgebra(Z4, C15) == GroupAlgebra(Z4, C15)
    assert GroupAlgebra(Z4, C15) != GroupAlgebra(F2, C15)
    # the hash is formed once, from the same fields that equality compares
    assert hash(GroupAlgebra(Z4, C15)) == hash((Z4, C15))
    assert len({GroupAlgebra(Z4, C15), GroupAlgebra(Z4, C15), GroupAlgebra(F2, C15)}) == 2
    a, b = GroupAlgebra(Z4, C15), GroupAlgebra(Z4, C3)
    with pytest.raises(ValueError):
        a.one() * b.one()
    with pytest.raises(ValueError):
        a.element([0] * 7)  # wrong length
