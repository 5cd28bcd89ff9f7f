"""Finite chain rings of order 2^t with residue field F2.

Two concrete families are supported: the modular integers Z/2^t (maximal
ideal generated by 2) and the binary polynomial quotients F2[u]/(u^t)
(maximal ideal generated by u).  Both are local rings whose ideals form
the single chain (s^0) > (s^1) > ... > (s^t) = 0, where s is the
uniformizer.  For t = 1 both collapse to the field F2 and s = 0.

Elements are stored as integer payloads in [0, 2^t): the residue itself
for the modular family, the coefficient bit-vector (bit i = coefficient
of u^i) for the polynomial family.  All ring arithmetic is on payloads:
the ChainRing handle has scalar ops, which tests use as the reference,
and vectorised variants on numpy arrays, so group-algebra code stays in
numpy throughout.  Payload arrays also have a bit-plane form (to_planes,
from_planes): the plane axis first, then the words, then 64-bit lanes,
so that each plane of a block of words is one contiguous run of machine
words.  There addition is XOR for F2[u]/(u^t) and a ripple-carry adder
over the planes for Z/2^t (add_planes); codeword enumeration stores
words that way.
A ring scalar is its payload wherever the package takes one
(AlgebraElem.scalar_mul); from_int gives an integer's image and
s_pow_payload the power s^k (the payload 1 << k, 0 at k = t).  In
either family the residue map to F2 reads off the low bit, and a payload
is a unit iff that bit is set; so a payload with v trailing zero bits is
s^v times the unit payload >> v, and s^v divides a payload iff its low v
bits are 0.  mul_arr takes a scalar payload for either operand and, like
every array op, works in the payload dtype (uint8 for t <= 8, else
uint16): 2^t divides that dtype's modulus, so products that wrap there
are exact once masked.  inv is one formula for both families: the units
form a group of order 2^(t-1), so 1/a = a^(2^(t-1) - 1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FAMILY_INT = "int"    # Z / 2^t
FAMILY_POLY = "poly"  # F2[u] / (u^t)

_MAX_T = 16  # payloads fit uint16, whose modulus 2^16 every 2^t divides


@dataclass(frozen=True)
class ChainRing:
    """Handle for one chain ring, identified by (family, nilpotency index t)."""

    family: str
    t: int

    def __post_init__(self):
        if self.family not in (FAMILY_INT, FAMILY_POLY):
            raise ValueError(f"unknown ring family {self.family!r}")
        if not 1 <= self.t <= _MAX_T:
            raise ValueError(f"nilpotency index must be in 1..{_MAX_T}, got {self.t}")

    @property
    def size(self):
        return 1 << self.t

    @property
    def mask(self):
        return (1 << self.t) - 1

    @property
    def dtype(self):
        return np.uint8 if self.t <= 8 else np.uint16

    def designator(self) -> str:
        if self.family == FAMILY_INT:
            return f"z{self.size}"
        return f"f2u{self.t}"

    # -- scalar payload arithmetic -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.family == FAMILY_INT:
            return (a + b) & self.mask
        return a ^ b

    def neg(self, a: int) -> int:
        if self.family == FAMILY_INT:
            return (-a) & self.mask
        return a

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.family == FAMILY_INT:
            return (a * b) & self.mask
        acc = 0
        i = 0
        while a >> i:
            if (a >> i) & 1:
                acc ^= b << i
            i += 1
        return acc & self.mask

    def is_unit(self, a: int) -> bool:
        # units are exactly the payloads with nonzero residue
        return bool(a & 1)

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ValueError(f"{self.str_payload(a)} is not a unit in {self.designator()}")
        # the units form a group of order 2^(t-1) in both families, so
        # 1/a = a^(2^(t-1) - 1) = a a^2 ... a^(2^(t-2))
        out = 1
        for _ in range(self.t - 1):
            out, a = self.mul(out, a), self.mul(a, a)
        return out

    # -- integers and the uniformizer ----------------------------------

    def from_int(self, k: int) -> int:
        """Payload of the image of the integer k under the unique map Z -> R."""
        if self.family == FAMILY_INT:
            return k & self.mask
        return k & 1

    def s_pow_payload(self, k: int) -> int:
        """Payload of s^k: 2^k in Z/2^t and u^k in F2[u]/(u^t), both the
        bit 1 << k; 0 at k = t, and s = 0 over F2."""
        if not 0 <= k <= self.t:
            raise ValueError(f"need 0 <= k <= {self.t}, got {k}")
        return (1 << k) & self.mask

    # -- vectorised payload arithmetic ---------------------------------

    def add_arr(self, A, B):
        if self.family == FAMILY_INT:
            return (A + B) & np.asarray(self.mask, dtype=self.dtype)
        return A ^ B

    def sub_arr(self, A, B):
        if self.family == FAMILY_INT:
            # exact: 2^t divides the modulus of the payload dtype
            return (A - B) & np.asarray(self.mask, dtype=self.dtype)
        return A ^ B

    # -- bit-planes ----------------------------------------------------
    # A payload array of shape (..., n) as planes of shape (t, ..., L) uint64,
    # L = ceil(n/64): plane i packs bit i of every coefficient, coefficient j
    # at bit j % 64 of lane j // 64, and the bits past n are 0.

    @cached_property
    def _plane_bits(self):
        """The payload of bit i, at index i, in the payload dtype."""
        bits = 1 << np.arange(self.t, dtype=self.dtype)
        bits.setflags(write=False)
        return bits

    def to_planes(self, A):
        n = A.shape[-1]
        bits = (A[..., None, :] & self._plane_bits[:, None]) != 0
        bits = np.concatenate([bits, np.zeros(bits.shape[:-1] + (-n % 64,), dtype=bool)], axis=-1)
        lanes = np.packbits(bits, axis=-1, bitorder="little").view("<u8").astype(np.uint64, copy=False)
        d = lanes.ndim  # the plane axis, second to last, to the front
        return np.ascontiguousarray(lanes.transpose(d - 2, *range(d - 2), d - 1))

    def from_planes(self, P, n: int):
        d = P.ndim  # the plane axis back to second to last
        lanes = np.ascontiguousarray(P.transpose(*range(1, d - 1), 0, d - 1), dtype="<u8")
        bits = np.unpackbits(lanes.view(np.uint8), axis=-1, count=n, bitorder="little")
        return np.einsum("...ij,i->...j", bits, self._plane_bits)

    def add_planes(self, A, B, out=None):
        """add_arr on bit-planes, the plane axis leading; out must not
        overlap A or B."""
        out = np.bitwise_xor(A, B, out=out)
        if self.family == FAMILY_INT:
            # ripple carry: the carry out of plane i is the majority of its
            # two bits and the carry into it, and the last one is dropped
            carry = None
            for i in range(self.t - 1):
                a, b = A[i], B[i]
                carry = a & b if carry is None else a & b | carry & (a | b)
                out[i + 1] ^= carry
        return out

    def mul_arr(self, A, B):
        # in the payload dtype: products wrap mod 2^8 or 2^16, which 2^t divides
        A = np.asarray(A, dtype=self.dtype)
        B = np.asarray(B, dtype=self.dtype)
        if self.family == FAMILY_INT:
            out = A * B
        else:
            out = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=self.dtype)
            bits = int(np.bitwise_or.reduce(A, axis=None))  # the powers of u some entry of A has
            for i in range(self.t):
                if bits >> i & 1:
                    out ^= ((A >> i) & 1) * (B << i)
        out &= self.mask
        return out

    # -- printing ------------------------------------------------------

    def str_payload(self, a: int) -> str:
        if self.family == FAMILY_INT:
            return str(a)
        if a == 0:
            return "0"
        terms = []
        for i in range(self.t):
            if (a >> i) & 1:
                terms.append("1" if i == 0 else ("u" if i == 1 else f"u^{i}"))
        return "+".join(terms)


F2 = ChainRing(FAMILY_INT, 1)


def parse_ring(text: str) -> ChainRing:
    """Parse a ring designator: z2, z4, z8, ... or f2u2, f2u3, ..."""
    text = text.strip().lower()
    m = re.fullmatch(r"(z|f2u)0*([0-9]+)", text)  # ASCII digits
    if m is None:
        raise ValueError(f"bad ring designator {text!r}")
    prefix, digits = m.groups()
    # no longer than the largest size 2^_MAX_T or index _MAX_T, before int()
    if len(digits) > len(str(1 << _MAX_T if prefix == "z" else _MAX_T)):
        raise ValueError(f"nilpotency index must be in 1..{_MAX_T}, got {text!r}")
    value = int(digits)
    if prefix == "f2u":
        return ChainRing(FAMILY_POLY, value)
    t = value.bit_length() - 1
    if value < 2 or (1 << t) != value:
        raise ValueError(f"ring size must be a power of two, got {text!r}")
    return ChainRing(FAMILY_INT, t)
