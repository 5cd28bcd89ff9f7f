import math
import time

import pytest

from rgcodes.arith import (
    GroupSpec,
    block_labels,
    crt_index,
    crt_multi,
    cyclotomic_cosets,
    euler_phi,
    factorize,
    is_odd_prime,
    mult_ord,
    parse_group,
    require_valid,
    validate_group,
)


def test_is_odd_prime():
    assert [p for p in range(2, 30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_odd_prime(2)
    assert not is_odd_prime(1)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(165) == {3: 1, 5: 1, 11: 1}
    assert factorize(45) == {3: 2, 5: 1}
    assert factorize(2**5 * 7) == {2: 5, 7: 1}


def test_euler_phi():
    assert euler_phi(1) == 1
    assert [euler_phi(m) for m in (9, 15, 25, 45, 165)] == [6, 8, 20, 24, 80]


def test_mult_ord():
    assert mult_ord(2, 7) == 3
    assert mult_ord(2, 9) == 6
    assert mult_ord(2, 15) == 4
    with pytest.raises(ValueError):
        mult_ord(6, 15)  # not a unit


def mult_ord_by_steps(b, m):
    """Reference: step through the powers of b until one is 1 (mod m)."""
    x, h = b % m, 1
    while x != 1:
        x, h = x * b % m, h + 1
    return h


def test_mult_ord_matches_stepping():
    for m in range(2, 3000):
        for b in (2, 3, 5, 7, 10):
            if math.gcd(b, m) == 1:
                assert mult_ord(b, m) == mult_ord_by_steps(b, m), (b, m)


def test_validate_large_prime_is_fast():
    """ord mod p^2 comes from the primes of phi(p^2), not from p^2 steps."""
    start = time.perf_counter()
    assert not validate_group(parse_group("999983^1")).ok
    assert validate_group(parse_group("100003^1")).ok
    assert time.perf_counter() - start < 5


def test_primitivity_matches_order():
    """validate_group's test of 2 against the primes of phi(p^e) agrees with
    ord_m(2) = phi(m) for every odd prime p < 3000, e <= 3, p^e <= 10^8."""
    cases = 0
    for p in filter(is_odd_prime, range(3, 3000)):
        for e in (1, 2, 3):
            if p**e > 10**8:
                continue
            cases += 1
            for name, ok, _ in validate_group(GroupSpec((p,), (e,))).checks:
                if name.startswith("two-primitive-mod-"):
                    m = int(name.rsplit("-", 1)[1])
                    assert ok == (mult_ord(2, m) == euler_phi(m)), (p, e, m)
    assert cases == 947


def test_mult_ord_matches_phi_over_two_power():
    # for every supported modulus, ord_m(2) = phi(m) / 2^(r-1)
    for m in (15, 33, 55, 165, 45, 99):
        r = len(factorize(m))
        assert mult_ord(2, m) == euler_phi(m) >> (r - 1)


def test_group_spec_properties():
    spec = GroupSpec((3, 5, 11), (1, 1, 1))
    assert spec.r == 3
    assert spec.n == 165
    assert spec.factor_orders == (3, 5, 11)
    assert spec.designator() == "3^1,5^1,11^1"
    assert GroupSpec((3, 5), (2, 1)).factor_orders == (9, 5)
    assert GroupSpec((3, 5), (2, 1)).n == 45
    # the cached orders leave equality, hashing and repr to the fields
    fresh = GroupSpec((3, 5, 11), (1, 1, 1))
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)


def test_group_spec_shape_errors():
    with pytest.raises(ValueError):
        GroupSpec((3, 5), (1,))
    with pytest.raises(ValueError):
        GroupSpec((), ())
    with pytest.raises(ValueError):
        GroupSpec((3,), (0,))


def test_validate_group_accepts():
    for spec in (GroupSpec((3, 5), (1, 1)), GroupSpec((3, 5), (2, 1)),
                 GroupSpec((3, 5, 11), (1, 1, 1)), GroupSpec((3,), (2,))):
        report = validate_group(spec)
        assert report.ok, report.failures


def test_validate_group_rejects():
    # 2 has order 3 mod 7, not phi(7) = 6
    rep = validate_group(GroupSpec((7,), (1,)))
    assert not rep.ok
    assert any("two-primitive-mod-7" in f for f in rep.failures)
    # repeated primes
    rep = validate_group(GroupSpec((3, 3), (1, 1)))
    assert not rep.ok
    assert any("distinct-primes" in f for f in rep.failures)
    # gcd(13-1, 5-1) = 4
    rep = validate_group(GroupSpec((5, 13), (1, 1)))
    assert not rep.ok
    assert any("gcd" in f for f in rep.failures)


def test_require_valid():
    require_valid(GroupSpec((3, 5), (1, 1)))
    with pytest.raises(ValueError):
        require_valid(GroupSpec((7,), (1,)))


def test_cyclotomic_cosets_mod_15():
    assert cyclotomic_cosets(15) == (
        (0,),
        (1, 2, 4, 8),
        (3, 6, 12, 9),
        (5, 10),
        (7, 14, 13, 11),
    )


def test_cyclotomic_cosets_partition():
    for n in (9, 15, 45):
        cosets = cyclotomic_cosets(n)
        flat = sorted(k for c in cosets for k in c)
        assert flat == list(range(n))
        for c in cosets:
            for k in c:
                assert (2 * k) % n in c  # closed under doubling


def test_crt_roundtrip():
    spec = GroupSpec((3, 5, 11), (1, 1, 1))
    for k in range(spec.n):
        assert crt_index(crt_multi(k, spec), spec) == k
    assert crt_multi(0, spec) == (0, 0, 0)
    # additivity: the map k -> multi-index is a group homomorphism
    e1, e7 = crt_multi(1, spec), crt_multi(7, spec)
    assert crt_multi(8, spec) == tuple(
        (x + y) % q for x, y, q in zip(e1, e7, spec.factor_orders)
    )


def test_crt_layout_puts_a_at_one():
    """Position k holds a^k for a = a_1 ... a_r, so a itself sits at 1."""
    for spec in (GroupSpec((3, 5), (1, 1)), GroupSpec((3, 5, 11), (2, 1, 1))):
        assert crt_index((1,) * spec.r, spec) == 1
        assert crt_multi(1, spec) == (1,) * spec.r


def test_block_labels():
    spec = GroupSpec((3, 5), (1, 1))
    assert block_labels(spec) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(block_labels(GroupSpec((3,), (2,)))) == 3


def test_parse_group():
    assert parse_group("3^1,5^1") == GroupSpec((3, 5), (1, 1))
    assert parse_group("3^2,5^1") == GroupSpec((3, 5), (2, 1))
    assert parse_group("11") == GroupSpec((11,), (1,))
    for bad in ("5^1,3^1", "3^1,3^2", "4^1", "3^0", "3^", "", "15"):
        with pytest.raises(ValueError):
            parse_group(bad)
    # ASCII digits only, and no digit string longer than the limit reaches int()
    for bad, message in (
        ("3^\u00b2", "bad group token"),  # superscript two
        ("\u0663^1", "bad group token"),  # Arabic-Indic three
        ("3" * 5000 + "^1", "group order exceeds the limit"),
        ("3^" + "1" * 5000, "group order exceeds the limit"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_group(bad)
