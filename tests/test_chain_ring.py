import random

import numpy as np
import pytest

from rgcodes.arith import InvariantError
from rgcodes.chain_ring import F2, FAMILY_INT, FAMILY_POLY, ChainRing, RingElem, parse_ring


def lift_bit(b):
    """The payload lifting a residue bit (0 or 1) to either ring family."""
    if b not in (0, 1):
        raise ValueError("residue payload must be 0 or 1")
    return b


def element_from_int(ring, k):
    return ring.elem(ring.from_int(k))


def ideal_payloads(ring, k):
    """Payloads of the ideal (s^k), of size 2^(t-k)."""
    s_k = ring.s_pow_payload(k)
    seen = sorted({ring.mul(s_k, a) for a in range(ring.size)})
    if len(seen) != 1 << (ring.t - k):
        raise InvariantError(f"the ideal (s^{k}) has {len(seen)} elements")
    return seen


def inverse(x):
    return RingElem(x.ring, x.ring.inv(x.payload))


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
    assert ChainRing(FAMILY_INT, 9).dtype == np.uint32


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
        units = ring.units()
        assert len(units) == ring.size // 2
        unit_payloads = {x.payload for x in units}
        for a in unit_payloads:
            assert ring.is_unit(a)
            assert ring.mul(a, ring.inv(a)) == ring.one_payload
        for a in range(ring.size):
            if a not in unit_payloads:
                with pytest.raises(ValueError):
                    ring.inv(a)


def test_residue_and_lift():
    for name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(name)
        for a in range(ring.size):
            assert ring.residue(a) == (a & 1)
        for b in (0, 1):
            assert ring.residue(lift_bit(b)) == b


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
    for name in ("z4", "z8", "f2u2", "f2u3"):
        ring = parse_ring(name)
        a = np.array([rng.randrange(ring.size) for _ in range(64)], dtype=ring.dtype)
        b = np.array([rng.randrange(ring.size) for _ in range(64)], dtype=ring.dtype)
        want_add = [ring.add(int(x), int(y)) for x, y in zip(a, b)]
        want_mul = [ring.mul(int(x), int(y)) for x, y in zip(a, b)]
        want_sub = [ring.sub(int(x), int(y)) for x, y in zip(a, b)]
        assert ring.add_arr(a, b).tolist() == want_add
        assert ring.mul_arr(a, b).tolist() == want_mul
        assert ring.sub_arr(a, b).tolist() == want_sub
        assert ring.neg_arr(a).tolist() == [ring.neg(int(x)) for x in a]
        c = rng.randrange(ring.size)
        assert ring.scalar_mul_arr(c, a).tolist() == [ring.mul(c, int(x)) for x in a]


def test_ring_elem_operators():
    z4 = parse_ring("z4")
    x, y = element_from_int(z4, 3), element_from_int(z4, 2)
    assert (x + y).payload == 1
    assert (x * y).payload == 2
    assert (-x).payload == 1
    assert (x - y).payload == 1
    assert inverse(x).payload == 3
    assert (x ** 2).payload == 1
    assert str(z4.s) == "2"
    u2 = parse_ring("f2u2")
    assert u2.str_payload(0b11) == "1+u"
    assert u2.str_payload(0b10) == "u"
    assert u2.str_payload(0) == "0"


def test_element_enumeration():
    z4 = parse_ring("z4")
    assert [e.payload for e in z4.elements()] == [0, 1, 2, 3]
    assert z4.zero.payload == 0
    assert z4.one.payload == 1
    assert z4.s.payload == 2
