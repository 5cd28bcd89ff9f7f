"""Number-theoretic plumbing for the group side.

The groups of interest are direct products of cyclic groups of odd prime
power order q_i = p_i^{n_i}, written multiplicatively with fixed
generators a_1, ..., a_r.  The constructions downstream only work when
the order n = q_1 ... q_r satisfies three hypotheses: the p_i are odd,
distinct primes, 2 is a primitive root modulo p_i^2 (and hence modulo
every power of p_i), and gcd(p_i - 1, p_j - 1) = 2 for i != j.
``validate_group`` checks all of them and reports each violation by
name.

A group element a_1^{e_1} ... a_r^{e_r} is identified with its exponent
vector (e_1, ..., e_r); the single generator a = a_1 ... a_r has order n,
and the exponent k of a^k corresponds to the vector via
``crt_index``/``crt_multi``.  Everything here is exact integer
arithmetic at desk scale (trial division, modular powers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

MAX_ORDER = 10**6  # designator parser refuses larger group orders


class InvariantError(Exception):
    """A mathematical invariant the code relies on failed to hold.

    Raised in place of ``assert`` so that the checks survive ``python -O``.
    """


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def factorize(m: int) -> dict:
    """Prime factorization by trial division; {prime: exponent}."""
    if m < 1:
        raise ValueError("need a positive integer")
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("need a positive integer")
    out = m
    for p in factorize(m):
        out = out // p * (p - 1)
    return out


def mult_ord(b: int, m: int) -> int:
    """Multiplicative order of b modulo m; requires gcd(b, m) = 1.

    The order divides phi(m): starting there, divide by each prime q of
    phi(m) while b^(order/q) = 1 (mod m).
    """
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(b, m) != 1:
        raise ValueError(f"{b} is not a unit mod {m}")
    order = euler_phi(m)
    for q in factorize(order):
        while order % q == 0 and pow(b, order // q, m) == 1:
            order //= q
    return order


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups of orders p_i^{n_i}.

    The constructor only enforces shape; run ``validate_group`` for the
    arithmetic hypotheses (so that invalid data can still be reported).
    """

    primes: tuple
    exponents: tuple

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if len(self.primes) != len(self.exponents) or not self.primes:
            raise ValueError("need matching, nonempty prime and exponent tuples")
        if any(p < 2 for p in self.primes) or any(e < 1 for e in self.exponents):
            raise ValueError("primes must be >= 2 and exponents >= 1")

    @property
    def r(self) -> int:
        return len(self.primes)

    @cached_property
    def factor_orders(self) -> tuple:
        return tuple(p**n for p, n in zip(self.primes, self.exponents))

    @cached_property
    def n(self) -> int:
        return math.prod(self.factor_orders)

    def check_levels(self, levels) -> tuple:
        """levels as ints, one per factor, with 0 <= level_i <= n_i.

        A block label and a subgroup prod_i <a_i^{p_i^level_i}> are both
        named by such a tuple.
        """
        levels = tuple(int(l) for l in levels)
        if len(levels) != self.r:
            raise ValueError("one level per group factor")
        for l, n in zip(levels, self.exponents):
            if not 0 <= l <= n:
                raise ValueError(f"level {l} out of range 0..{n}")
        return levels

    def designator(self) -> str:
        return ",".join(f"{p}^{n}" for p, n in zip(self.primes, self.exponents))

    def __str__(self):
        return self.designator()


@dataclass(frozen=True)
class GroupValidation:
    """Outcome of validate_group: overall flag plus per-condition detail."""

    ok: bool
    checks: tuple  # of (name, passed, detail)

    @property
    def failures(self):
        return tuple(f"{name}: {detail}" for name, passed, detail in self.checks if not passed)


def validate_group(spec: GroupSpec) -> GroupValidation:
    checks = []
    primes_ok = True
    for p in spec.primes:
        if not is_odd_prime(p):
            checks.append(("odd-prime", False, f"{p} is not an odd prime"))
            primes_ok = False
    if primes_ok:
        checks.append(("odd-prime", True, "all p_i are odd primes"))

    if len(set(spec.primes)) != spec.r:
        checks.append(("distinct-primes", False, "primes must be pairwise distinct"))
    else:
        checks.append(("distinct-primes", True, "primes are pairwise distinct"))

    # 2 must generate the units modulo p^2; since the unit groups mod p^m
    # are cyclic, that makes 2 a primitive root mod every power of p.  The
    # power actually used is checked as well, belt and braces.
    for p, n in zip(spec.primes, spec.exponents):
        if not is_odd_prime(p):
            continue
        for m in sorted({p * p, p**n}):
            try:
                ok = mult_ord(2, m) == euler_phi(m)
            except ValueError:
                ok = False
            detail = f"ord_{m}(2) {'=' if ok else '!='} phi({m})"
            checks.append((f"two-primitive-mod-{m}", ok, detail))

    for i in range(spec.r):
        for j in range(i + 1, spec.r):
            p, q = spec.primes[i], spec.primes[j]
            if p == q:
                continue
            g = math.gcd(p - 1, q - 1)
            checks.append(
                (f"gcd-condition-{p}-{q}", g == 2, f"gcd({p}-1, {q}-1) = {g}")
            )

    ok = all(passed for _, passed, _ in checks)
    return GroupValidation(ok, tuple(checks))


def require_valid(spec: GroupSpec):
    report = validate_group(spec)
    if not report.ok:
        raise ValueError(f"group {spec} fails: " + "; ".join(report.failures))


def cyclotomic_cosets(n: int):
    """Orbits of k -> 2k mod n, each in cycle order from its least member,
    sorted by least member.  n must be odd."""
    if n < 1 or n % 2 == 0:
        raise ValueError("modulus must be a positive odd integer")
    seen = bytearray(n)
    out = []
    for a in range(n):
        if seen[a]:
            continue
        orbit = []
        x = a
        while not seen[x]:
            seen[x] = 1
            orbit.append(x)
            x = 2 * x % n
        out.append(tuple(orbit))
    return tuple(out)


def crt_index(multi, spec: GroupSpec) -> int:
    """Exponent k with a^k = a_1^{e_1} ... a_r^{e_r}, for a = a_1 ... a_r."""
    n = spec.n
    k = 0
    for e, q in zip(multi, spec.factor_orders):
        if not 0 <= e < q:
            raise ValueError(f"exponent {e} out of range for factor order {q}")
        k += e * (n // q)
    return k % n


def crt_multi(k: int | np.ndarray, spec: GroupSpec) -> tuple:
    """Inverse of crt_index: the exponent vector of a^k, elementwise for an array k."""
    n = spec.n
    return tuple(k * pow(n // q, -1, q) % q for q in spec.factor_orders)


def block_labels(spec: GroupSpec):
    """All vectors (j_1, ..., j_r) with 0 <= j_i <= n_i, lexicographic."""
    return list(product(*(range(n + 1) for n in spec.exponents)))


def parse_group(text: str) -> GroupSpec:
    """Parse a group designator: comma-separated p^n tokens with odd prime
    bases in strictly increasing order, e.g. "3^1,5^1,11^1"."""
    tokens = [tok.strip() for tok in text.strip().split(",")]
    if not tokens or any(not tok for tok in tokens):
        raise ValueError(f"bad group designator {text!r}")
    primes, exps = [], []
    for tok in tokens:
        base, _, exp = tok.partition("^")
        if not base.isdigit() or (_ and not exp.isdigit()):
            raise ValueError(f"bad group token {tok!r}")
        p = int(base)
        e = int(exp) if exp else 1
        if not is_odd_prime(p):
            raise ValueError(f"group token {tok!r}: base must be an odd prime")
        if e < 1:
            raise ValueError(f"group token {tok!r}: exponent must be >= 1")
        if primes and p <= primes[-1]:
            raise ValueError("primes must be strictly increasing")
        primes.append(p)
        exps.append(e)
    spec = GroupSpec(tuple(primes), tuple(exps))
    if spec.n > MAX_ORDER:
        raise ValueError(f"group order {spec.n} exceeds the limit {MAX_ORDER}")
    return spec
