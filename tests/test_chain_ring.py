import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rgcodes.arith import GroupSpec, InvariantError
from rgcodes.chain_ring import F2, FAMILY_INT, FAMILY_POLY, ChainRing, parse_ring
from rgcodes.group_algebra import GroupAlgebra


def lift_bit(b):
    """The payload lifting a residue bit (0 or 1) to either ring family."""
    if b not in (0, 1):
        raise ValueError("residue payload must be 0 or 1")
    return b


def ideal_payloads(ring, k):
    """Payloads of the ideal (s^k), of size 2^(t-k)."""
    s_k = ring.s_pow_payload(k)
    seen = sorted({ring.mul(s_k, a) for a in range(ring.size)})
    if len(seen) != 1 << (ring.t - k):
        raise InvariantError(f"the ideal (s^{k}) has {len(seen)} elements")
    return seen


def test_parse_ring():
    assert parse_ring("z2") == ChainRing(FAMILY_INT, 1)
    assert parse_ring("z4") == ChainRing(FAMILY_INT, 2)
    assert parse_ring("z8") == ChainRing(FAMILY_INT, 3)
    assert parse_ring("f2u2") == ChainRing(FAMILY_POLY, 2)
    assert parse_ring("f2u3") == ChainRing(FAMILY_POLY, 3)
    for bad in ("z6", "z3", "f2u", "q4", ""):
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_designator_roundtrip():
    for name in ("z2", "z4", "z8", "f2u2", "f2u3"):
        assert parse_ring(name).designator() == name


def test_sizes_and_dtype():
    assert parse_ring("z8").size == 8
    assert parse_ring("f2u3").size == 8
    assert ChainRing(FAMILY_INT, 8).dtype == np.uint8
    assert ChainRing(FAMILY_INT, 9).dtype == np.uint16
    assert ChainRing(FAMILY_POLY, 16).dtype == np.uint16


def test_t_range():
    with pytest.raises(ValueError):
        ChainRing(FAMILY_INT, 0)
    with pytest.raises(ValueError):
        ChainRing(FAMILY_INT, 17)


def test_f2_degenerate():
    """At t = 1 both families collapse to F2 and s = 0."""
    assert F2.uniformizer_payload() == 0
    assert ChainRing(FAMILY_POLY, 1).uniformizer_payload() == 0
    assert F2.size == 2
    assert F2.mul(1, 1) == 1
    assert F2.add(1, 1) == 0


def test_uniformizer_nilpotency():
    for name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(name)
        s = ring.uniformizer_payload()
        acc = ring.one_payload
        for _ in range(ring.t):
            acc = ring.mul(acc, s)
        assert acc == 0  # s^t = 0
        assert ring.s_pow_payload(ring.t) == 0
        assert ring.s_pow_payload(0) == ring.one_payload


def test_int_arithmetic_anchors():
    z8 = parse_ring("z8")
    assert z8.mul(3, 3) == 1
    assert z8.inv(3) == 3
    assert z8.add(5, 7) == 4
    assert z8.neg(1) == 7
    assert z8.pow(3, 2) == 1


def test_poly_arithmetic_anchors():
    r = parse_ring("f2u3")  # payload bits: 1, u, u^2
    one_u = 0b011  # 1 + u
    assert r.mul(0b010, 0b010) == 0b100  # u * u = u^2
    assert r.mul(0b010, 0b100) == 0  # u * u^2 = 0
    assert r.inv(one_u) == 0b111  # (1+u)^-1 = 1 + u + u^2
    assert r.mul(one_u, 0b111) == 1
    assert r.add(one_u, one_u) == 0  # characteristic 2


def test_units_and_inverse_everywhere():
    for name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(name)
        unit_payloads = set(range(1, ring.size, 2))  # nonzero residue
        for a in unit_payloads:
            assert ring.is_unit(a)
            assert ring.mul(a, ring.inv(a)) == ring.one_payload
        for a in range(ring.size):
            if a not in unit_payloads:
                with pytest.raises(ValueError):
                    ring.inv(a)


def test_residue_and_lift():
    """The residue map R -> F2 reads off the low bit; it is a ring map."""
    for name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(name)
        for a in range(ring.size):
            for b in range(ring.size):
                assert ring.add(a, b) & 1 == (a ^ b) & 1
                assert ring.mul(a, b) & 1 == a & b & 1
        for b in (0, 1):
            assert lift_bit(b) & 1 == b


def test_ideal_chain():
    z8 = parse_ring("z8")
    ideals = [ideal_payloads(z8, k) for k in range(4)]
    assert [len(i) for i in ideals] == [8, 4, 2, 1]
    for k in range(3):
        assert set(ideals[k + 1]) <= set(ideals[k])
    assert ideals[3] == [0]
    u3 = parse_ring("f2u3")
    assert ideal_payloads(u3, 2) == [0, 0b100]  # (u^2) = {0, u^2}


def test_array_ops_match_scalar():
    rng = random.Random(7)
    for ring in (ChainRing(family, t) for family in (FAMILY_INT, FAMILY_POLY) for t in range(1, 17)):
        a = np.array([rng.randrange(ring.size) for _ in range(64)], dtype=ring.dtype)
        b = np.array([rng.randrange(ring.size) for _ in range(64)], dtype=ring.dtype)
        want_add = [ring.add(int(x), int(y)) for x, y in zip(a, b)]
        want_mul = [ring.mul(int(x), int(y)) for x, y in zip(a, b)]
        want_sub = [ring.sub(int(x), int(y)) for x, y in zip(a, b)]
        assert ring.add_arr(a, b).tolist() == want_add
        assert ring.mul_arr(a, b).tolist() == want_mul
        assert ring.sub_arr(a, b).tolist() == want_sub
        # the array ops stay in the payload dtype
        for got in (ring.add_arr(a, b), ring.mul_arr(a, b), ring.sub_arr(a, b)):
            assert got.dtype == ring.dtype
        c = rng.randrange(ring.size)
        assert ring.scalar_mul_arr(c, a).tolist() == [ring.mul(c, int(x)) for x in a]


@st.composite
def payload_pairs(draw):
    """A ring of either family with t in 1..16 and two (3, n) payload arrays."""
    ring = ChainRing(draw(st.sampled_from([FAMILY_INT, FAMILY_POLY])), draw(st.integers(1, 16)))
    n = draw(st.sampled_from([1, 7, 8, 9, 15, 63, 65, 165]))
    rows = hnp.arrays(ring.dtype, (3, n), elements=st.integers(0, ring.mask))
    A, B = draw(rows), draw(rows)
    # one row whose sum carries through every bit: (2^t - 1) + 1
    A[0], B[0] = ring.mask, 1
    return ring, A, B


@settings(max_examples=150, deadline=None)
@given(payload_pairs())
def test_bit_planes_round_trip_and_add(case):
    ring, A, B = case
    n = A.shape[1]
    P = ring.to_planes(A)
    assert P.shape == (3, ring.t, -(-n // 8)) and P.dtype == np.uint8
    assert np.array_equal(ring.from_planes(P, n), A) and ring.from_planes(P, n).dtype == ring.dtype
    got = ring.add_planes(P, ring.to_planes(B))
    assert np.array_equal(ring.from_planes(got, n), ring.add_arr(A, B))
    # one word's planes broadcast over the rows, written into a given buffer
    out = np.empty_like(P)
    ring.add_planes(P, ring.to_planes(B[1]), out=out)
    assert np.array_equal(ring.from_planes(out, n), ring.add_arr(A, B[1]))


def test_str_payload():
    assert parse_ring("z4").str_payload(2) == "2"
    u2 = parse_ring("f2u2")
    assert u2.str_payload(0b11) == "1+u"
    assert u2.str_payload(0b10) == "u"
    assert u2.str_payload(0) == "0"


def test_element_enumeration():
    """A ring scalar is its payload: scalar_mul takes each payload in [0, 2^t),
    and nothing else."""
    z4 = parse_ring("z4")
    one = GroupAlgebra(z4, GroupSpec((3,), (1,))).one()
    assert [int(one.scalar_mul(a).coeffs[0]) for a in range(z4.size)] == [0, 1, 2, 3]
    assert one.scalar_mul(z4.uniformizer_payload()).coeffs[0] == 2
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            one.scalar_mul(bad)
