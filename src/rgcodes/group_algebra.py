"""The group algebra RG for a chain ring R and an abelian group G.

Elements are dense coefficient vectors of length n = |G|, stored as
payload arrays in the multi-index layout: position (e_1, ..., e_r) of
the C-ordered array of shape (q_1, ..., q_r) holds the coefficient of
a_1^{e_1} ... a_r^{e_r}.  The 1-D cyclic view (coefficients of powers of
the single generator a = a_1 ... a_r) is obtained through
``arith.crt_index`` and is only used at the serialization boundary and
in cross-checking tests.

Multiplication is circular convolution over the exponent grid, exact in
the ring.  A product whose sparser operand has at most
SHIFT_ADD_MAX_TERMS nonzero terms (monomials, subgroup sums, 1 - g
factors) accumulates coefficient * cyclic shift over that support.  Any
other product goes through real FFTs over the factor grid, O(n log n):
payloads are split into 8-bit limbs (Z/2^t) or bit-planes (F2[u]/(u^t)),
the digit convolutions are rounded to integers, and a rounding error of
1/4 or more raises InvariantError.
Elements are immutable; every operation allocates a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import GroupSpec, InvariantError, crt_multi
from .chain_ring import F2, FAMILY_POLY, ChainRing, RingElem

# A product whose sparser operand has at most this many nonzero terms is
# formed by shift-and-add, any other by FFT.  Crossover measured at
# n = 15..495: 3 to 4 terms over z2, z4 and z8, 4 to 6 over f2u2 and f2u3.
SHIFT_ADD_MAX_TERMS = 4


@dataclass(frozen=True)
class Subgroup:
    """Subgroup prod_i <a_i^{d_i}> with d_i = p_i^{level_i}.

    level_i = 0 keeps the whole i-th factor, level_i = n_i cuts it down
    to the identity (the generator exponent d_i = q_i is a full turn).
    """

    group: GroupSpec
    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(l) for l in self.levels))
        if len(self.levels) != self.group.r:
            raise ValueError("one level per group factor")
        for l, n in zip(self.levels, self.group.exponents):
            if not 0 <= l <= n:
                raise ValueError(f"level {l} out of range 0..{n}")

    @property
    def gen_exponents(self):
        return tuple(p**l for p, l in zip(self.group.primes, self.levels))

    @property
    def size(self):
        out = 1
        for p, n, l in zip(self.group.primes, self.group.exponents, self.levels):
            out *= p ** (n - l)
        return out


class GroupAlgebra:
    """Context object tying a ChainRing to a GroupSpec."""

    def __init__(self, ring: ChainRing, group: GroupSpec):
        self.ring = ring
        self.group = group
        self.shape = group.factor_orders
        self.n = group.n

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebra)
            and self.ring == other.ring
            and self.group == other.group
        )

    def __hash__(self):
        return hash((self.ring, self.group))

    def __repr__(self):
        return f"GroupAlgebra({self.ring.designator()}, {self.group})"

    def element(self, coeffs) -> AlgebraElem:
        arr = np.array(coeffs, dtype=self.ring.dtype).reshape(self.n)
        if arr.size and int(arr.max()) >= self.ring.size:
            raise ValueError("coefficient payload out of range")
        return AlgebraElem(self, arr)

    def zero(self) -> AlgebraElem:
        return AlgebraElem(self, np.zeros(self.n, dtype=self.ring.dtype))

    def one(self) -> AlgebraElem:
        return self.monomial((0,) * self.group.r)

    def monomial(self, multi, coeff=1) -> AlgebraElem:
        arr = np.zeros(self.n, dtype=self.ring.dtype)
        if isinstance(coeff, RingElem):
            if coeff.ring != self.ring:
                raise ValueError("coefficient from the wrong ring")
            payload = coeff.payload
        else:
            payload = self.ring.from_int(int(coeff))
        arr[self._flat(multi)] = payload
        return AlgebraElem(self, arr)

    def generator_power(self, i: int, e: int = 1) -> AlgebraElem:
        """The group element a_i^e as an algebra element."""
        multi = [0] * self.group.r
        multi[i] = e % self.shape[i]
        return self.monomial(tuple(multi))

    def from_exponent(self, k: int) -> AlgebraElem:
        """a^k for the order-n generator a = a_1 ... a_r."""
        return self.monomial(crt_multi(k % self.n, self.group))

    def hat(self, subgroup) -> AlgebraElem:
        """|H|^{-1} sum of the elements of H; requires |H| odd (it is)."""
        if not isinstance(subgroup, Subgroup):
            subgroup = Subgroup(self.group, tuple(subgroup))
        if subgroup.group != self.group:
            raise ValueError("subgroup of a different group")
        inv = self.ring.inv(self.ring.from_int(subgroup.size))
        grid = np.zeros(self.shape, dtype=self.ring.dtype)
        grid[tuple(slice(None, None, d) for d in subgroup.gen_exponents)] = inv
        return AlgebraElem(self, grid.reshape(self.n))

    def factor_hat(self, i: int, level: int) -> AlgebraElem:
        """hat of the cyclic subgroup <a_i^{p_i^level}> of the i-th factor."""
        levels = list(self.group.exponents)  # identity in every other factor
        levels[i] = level
        return self.hat(tuple(levels))

    def from_pairs(self, pairs) -> AlgebraElem:
        arr = np.zeros(self.n, dtype=self.ring.dtype)
        for multi, payload in pairs:
            arr[self._flat(multi)] = payload & self.ring.mask
        return AlgebraElem(self, arr)

    def _flat(self, multi) -> int:
        if len(multi) != self.group.r:
            raise ValueError("wrong multi-index length")
        return int(np.ravel_multi_index(tuple(int(e) for e in multi), self.shape))


def _shift_add_product(ring: ChainRing, grid_a, grid_b):
    """Sum of coefficient * cyclic shift of grid_b over the support of grid_a."""
    axes = tuple(range(grid_a.ndim))
    out = np.zeros(grid_a.shape, dtype=np.uint32)
    for idx in np.argwhere(grid_a):
        c = int(grid_a[tuple(idx)])
        shifted = np.roll(grid_b, tuple(int(v) for v in idx), axis=axes)
        out = ring.add_arr(out, ring.scalar_mul_arr(c, shifted))
    return out.astype(ring.dtype)


def _fft_product(ring: ChainRing, grid_a, grid_b):
    """Cyclic convolution over the factor grid by real FFTs, exact in the ring.

    Each payload is split into digits of `width` bits: 8-bit limbs for
    Z/2^t, single bit-planes for F2[u]/(u^t).  Digit k of the product is
    the integer convolution sum_{i+j=k} A_i * B_j; digits at or above t
    bits vanish in the ring and are never formed.  An int digit keeps its
    carries, a poly digit is reduced mod 2.
    """
    width = 1 if ring.family == FAMILY_POLY else 8
    digits = -(-ring.t // width)
    shifts = (width * np.arange(digits)).reshape((digits,) + (1,) * grid_a.ndim)
    axes = tuple(range(1, grid_a.ndim + 1))

    def spectra(grid):
        parts = (grid.astype(np.int64) >> shifts) & ((1 << width) - 1)
        return np.fft.rfftn(parts, axes=axes)

    fa, fb = spectra(grid_a), spectra(grid_b)
    prod = np.stack([sum(fa[i] * fb[k - i] for i in range(k + 1)) for k in range(digits)])
    real = np.fft.irfftn(prod, s=grid_a.shape, axes=axes)
    exact = np.rint(real)
    err = float(np.abs(real - exact).max())
    if err >= 0.25:
        raise InvariantError(f"FFT product lost integer precision (rounding error {err:.3g})")
    out = exact.astype(np.int64)
    if width == 1:
        out &= 1
    return ((out << shifts).sum(axis=0) & ring.mask).astype(ring.dtype)


class AlgebraElem:
    """Immutable element of a GroupAlgebra; coeffs is a read-only payload array."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        coeffs = np.ascontiguousarray(coeffs, dtype=algebra.ring.dtype)
        if coeffs.shape != (algebra.n,):
            raise InvariantError(f"coefficient array of shape {coeffs.shape}, want ({algebra.n},)")
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    # -- structure -----------------------------------------------------

    def support(self):
        """Sorted multi-indices of the nonzero coefficients."""
        grid = self.coeffs.reshape(self.algebra.shape)
        return [tuple(int(v) for v in idx) for idx in np.argwhere(grid)]

    def weight(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def pairs(self):
        """(multi-index, payload) for each nonzero coefficient, sorted."""
        grid = self.coeffs.reshape(self.algebra.shape)
        return [
            (tuple(int(v) for v in idx), int(grid[tuple(idx)]))
            for idx in np.argwhere(grid)
        ]

    def coeff(self, multi) -> RingElem:
        return self.algebra.ring.elem(int(self.coeffs[self.algebra._flat(multi)]))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> None:
        if not isinstance(other, AlgebraElem) or other.algebra != self.algebra:
            raise ValueError("operands from different algebras")

    def __add__(self, other):
        if isinstance(other, (int, RingElem)):
            other = self.algebra.monomial((0,) * self.algebra.group.r, other)
        self._check(other)
        ring = self.algebra.ring
        return AlgebraElem(self.algebra, ring.add_arr(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        ring = self.algebra.ring
        return AlgebraElem(self.algebra, ring.neg_arr(self.coeffs).astype(ring.dtype))

    def __sub__(self, other):
        if isinstance(other, (int, RingElem)):
            other = self.algebra.monomial((0,) * self.algebra.group.r, other)
        self._check(other)
        ring = self.algebra.ring
        return AlgebraElem(self.algebra, ring.sub_arr(self.coeffs, other.coeffs).astype(ring.dtype))

    def __rsub__(self, other):
        return (-self) + other

    def scalar_mul(self, c) -> AlgebraElem:
        ring = self.algebra.ring
        if isinstance(c, RingElem):
            if c.ring != ring:
                raise ValueError("scalar from the wrong ring")
            payload = c.payload
        else:
            payload = ring.from_int(int(c))
        return AlgebraElem(self.algebra, ring.scalar_mul_arr(payload, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, RingElem)):
            return self.scalar_mul(other)
        self._check(other)
        return self._convolve(other)

    def __rmul__(self, other):
        if isinstance(other, (int, RingElem)):
            return self.scalar_mul(other)
        return NotImplemented

    def _convolve(self, other) -> AlgebraElem:
        alg = self.algebra
        A, B = self.coeffs, other.coeffs
        terms_a, terms_b = np.count_nonzero(A), np.count_nonzero(B)
        if terms_a > terms_b:
            A, B, terms_a = B, A, terms_b
        grid_a, grid_b = A.reshape(alg.shape), B.reshape(alg.shape)
        if terms_a <= SHIFT_ADD_MAX_TERMS:
            out = _shift_add_product(alg.ring, grid_a, grid_b)
        else:
            out = _fft_product(alg.ring, grid_a, grid_b)
        return AlgebraElem(alg, out.reshape(alg.n))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self.algebra.one()
        out, base = None, self
        while True:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if not e:
                return out
            base = base * base

    def translate(self, multi) -> AlgebraElem:
        """Multiply by the group element with the given exponent vector."""
        alg = self.algebra
        grid = self.coeffs.reshape(alg.shape)
        shift = tuple(int(e) % q for e, q in zip(multi, alg.shape))
        rolled = np.roll(grid, shift, axis=tuple(range(alg.group.r)))
        return AlgebraElem(alg, rolled.reshape(alg.n))

    def scale_exponents(self, m: int) -> AlgebraElem:
        """The algebra map a_i -> a_i^m on group elements (m coprime to n)."""
        alg = self.algebra
        if math.gcd(m, alg.n) != 1:
            raise ValueError("scaling factor must be coprime to the group order")
        grid = self.coeffs.reshape(alg.shape)
        out = np.empty_like(grid)
        out[np.ix_(*[np.arange(q) * (m % q) % q for q in alg.shape])] = grid
        return AlgebraElem(alg, out.reshape(alg.n))

    def is_idempotent(self) -> bool:
        return self * self == self

    # -- residue field and lifting -------------------------------------

    def reduce_f2(self) -> AlgebraElem:
        """Coefficientwise residue map RG -> F2 G."""
        target = GroupAlgebra(F2, self.algebra.group)
        return AlgebraElem(target, (self.coeffs & 1).astype(np.uint8))

    def lift_to(self, ring: ChainRing) -> AlgebraElem:
        """Coefficientwise 0/1 lift of an F2 G element (not idempotency-preserving)."""
        if self.algebra.ring != F2:
            raise ValueError("can only lift from the residue algebra")
        target = GroupAlgebra(ring, self.algebra.group)
        return AlgebraElem(target, self.coeffs.astype(ring.dtype))

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElem)
            and other.algebra == self.algebra
            and bool(np.array_equal(other.coeffs, self.coeffs))
        )

    __hash__ = None

    def __str__(self):
        if self.is_zero():
            return "0"
        ring = self.algebra.ring
        terms = []
        for multi, payload in self.pairs():
            factors = []
            cs = ring.str_payload(payload)
            for i, e in enumerate(multi):
                if e:
                    factors.append(f"a{i + 1}" if e == 1 else f"a{i + 1}^{e}")
            if not factors:
                terms.append(cs)
            elif payload == 1:
                terms.append("*".join(factors))
            else:
                terms.append("*".join([f"({cs})" if "+" in cs else cs] + factors))
        return " + ".join(terms)

    def __repr__(self):
        body = str(self)
        if len(body) > 120:
            body = body[:117] + "..."
        return f"AlgebraElem[{self.algebra.ring.designator()}; {self.algebra.group}]({body})"

