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
from_planes), in which addition is XOR for F2[u]/(u^t) and a ripple-carry
adder for Z/2^t (add_planes); codeword enumeration stores words that way.
A ring scalar is its payload wherever the package takes one
(AlgebraElem.scalar_mul); from_int gives an integer's image and
s_pow_payload the power s^k.  In either family the residue map to F2
reads off the low bit, and a payload is a unit iff that bit is set; so a
payload with v trailing zero bits is s^v times the unit payload >> v,
and s^v divides a payload iff its low v bits are 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FAMILY_INT = "int"    # Z / 2^t
FAMILY_POLY = "poly"  # F2[u] / (u^t)

_MAX_T = 16  # keeps products inside uint32 in the vectorised paths


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

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        out = self.one_payload
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_unit(self, a: int) -> bool:
        # units are exactly the payloads with nonzero residue
        return bool(a & 1)

    def inv(self, a: int) -> int:
        if not self.is_unit(a):
            raise ValueError(f"{self.str_payload(a)} is not a unit in {self.designator()}")
        if self.family == FAMILY_INT:
            return pow(a, -1, self.size)
        # a = 1 + m with m nilpotent, so 1/a = 1 + m + m^2 + ... + m^(t-1)
        m = a ^ 1
        out, term = 1, 1
        for _ in range(self.t - 1):
            term = self.mul(term, m)
            out ^= term
        return out

    # -- integers and the uniformizer ----------------------------------

    def from_int(self, k: int) -> int:
        """Payload of the image of the integer k under the unique map Z -> R."""
        if self.family == FAMILY_INT:
            return k & self.mask
        return k & 1

    @property
    def one_payload(self):
        return 1

    def uniformizer_payload(self) -> int:
        return 2 & self.mask  # 0 when t = 1, as (s) = (0) in F2

    def s_pow_payload(self, k: int) -> int:
        if not 0 <= k <= self.t:
            raise ValueError(f"need 0 <= k <= {self.t}, got {k}")
        return self.pow(self.uniformizer_payload(), k)

    # -- vectorised payload arithmetic ---------------------------------

    def add_arr(self, A, B, out=None):
        if self.family == FAMILY_INT:
            mask = np.asarray(self.mask, dtype=self.dtype)
            return np.bitwise_and(np.add(A, B, out=out), mask, out=out)
        return np.bitwise_xor(A, B, out=out)

    def sub_arr(self, A, B):
        if self.family == FAMILY_INT:
            # exact: 2^t divides the modulus of the payload dtype
            return (A - B) & np.asarray(self.mask, dtype=self.dtype)
        return A ^ B

    # -- bit-planes ----------------------------------------------------
    # A payload array of shape (..., n) as planes of shape (..., t, ceil(n/8))
    # uint8: plane i packs bit i of every coefficient, eight to a byte.

    @cached_property
    def _plane_bits(self):
        """The payload of bit i, at index i, in the payload dtype."""
        bits = 1 << np.arange(self.t, dtype=self.dtype)
        bits.setflags(write=False)
        return bits

    def to_planes(self, A):
        # packbits packs every nonzero entry as a set bit
        return np.packbits(A[..., None, :] & self._plane_bits[:, None], axis=-1)

    def from_planes(self, P, n: int):
        bits = np.unpackbits(P, axis=-1, count=n)
        return np.einsum("...ij,i->...j", bits, self._plane_bits)

    def add_planes(self, A, B, out=None):
        """add_arr on bit-planes; out must not overlap A or B."""
        out = np.bitwise_xor(A, B, out=out)
        if self.family == FAMILY_INT:
            # ripple carry: the carry out of plane i is the majority of its
            # two bits and the carry into it, and the last one is dropped
            carry = None
            for i in range(self.t - 1):
                a, b = A[..., i, :], B[..., i, :]
                carry = a & b if carry is None else a & b | carry & (a | b)
                out[..., i + 1, :] ^= carry
        return out

    def mul_arr(self, A, B):
        A32 = np.asarray(A, dtype=np.uint32)
        B32 = np.asarray(B, dtype=np.uint32)
        if self.family == FAMILY_INT:
            out = (A32 * B32) & self.mask
        else:
            out = np.zeros(np.broadcast_shapes(A32.shape, B32.shape), dtype=np.uint32)
            for i in range(self.t):
                out ^= ((A32 >> i) & 1) * (B32 << i)
            out &= self.mask
        return out.astype(self.dtype)

    def scalar_mul_arr(self, c: int, A):
        return self.mul_arr(np.asarray(c, dtype=np.uint32), A)

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
    if text.startswith("f2u"):
        tail = text[3:]
        if not tail.isdigit():
            raise ValueError(f"bad ring designator {text!r}")
        return ChainRing(FAMILY_POLY, int(tail))
    if text.startswith("z"):
        tail = text[1:]
        if not tail.isdigit():
            raise ValueError(f"bad ring designator {text!r}")
        m = int(tail)
        t = m.bit_length() - 1
        if m < 2 or (1 << t) != m:
            raise ValueError(f"ring size must be a power of two, got {text!r}")
        return ChainRing(FAMILY_INT, t)
    raise ValueError(f"bad ring designator {text!r}")
