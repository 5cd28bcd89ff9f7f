"""Finite chain rings of order 2^t with residue field F2.

Two concrete families are supported: the modular integers Z/2^t (maximal
ideal generated by 2) and the binary polynomial quotients F2[u]/(u^t)
(maximal ideal generated by u).  Both are local rings whose ideals form
the single chain (s^0) > (s^1) > ... > (s^t) = 0, where s is the
uniformizer.  For t = 1 both collapse to the field F2 and s = 0.

Elements are stored as integer payloads in [0, 2^t): the residue itself
for the modular family, the coefficient bit-vector (bit i = coefficient
of u^i) for the polynomial family.  The ring handle exposes scalar ops on
payloads plus vectorised variants on numpy arrays so that group-algebra
code can stay in numpy throughout.  In either family the residue map to
F2 reads off the low bit, and a payload is a unit iff that bit is set.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return np.uint8 if self.t <= 8 else np.uint32

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

    # -- residue field and lifting -------------------------------------

    def residue(self, a: int) -> int:
        return a & 1

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

    def add_arr(self, A, B):
        if self.family == FAMILY_INT:
            return (A + B) & np.asarray(self.mask, dtype=self.dtype)
        return A ^ B

    def neg_arr(self, A):
        if self.family == FAMILY_INT:
            return (-A.astype(np.int64)) % self.size
        return A

    def sub_arr(self, A, B):
        if self.family == FAMILY_INT:
            return (A.astype(np.int64) - B) % self.size
        return A ^ B

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

    # -- elements and enumeration --------------------------------------

    def elem(self, payload: int) -> RingElem:
        return RingElem(self, payload & self.mask)

    @property
    def zero(self):
        return self.elem(0)

    @property
    def one(self):
        return self.elem(1)

    @property
    def s(self):
        return self.elem(self.uniformizer_payload())

    def elements(self):
        """All 2^t elements, in payload order."""
        return [self.elem(a) for a in range(self.size)]

    def units(self):
        return [self.elem(a) for a in range(1, self.size, 2)]

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


@dataclass(frozen=True)
class RingElem:
    """One element of a chain ring; immutable payload wrapper."""

    ring: ChainRing
    payload: int

    def __post_init__(self):
        if not 0 <= self.payload < self.ring.size:
            raise ValueError(f"payload {self.payload} out of range for {self.ring.designator()}")

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise ValueError("mixed rings")
            return other.payload
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.sub(self.payload, p))

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return RingElem(self.ring, self.ring.mul(self.payload, p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return RingElem(self.ring, self.ring.pow(self.payload, e))

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.payload)

    def is_zero(self) -> bool:
        return self.payload == 0

    def __str__(self):
        return self.ring.str_payload(self.payload)

    def __repr__(self):
        return f"RingElem({self.ring.designator()}, {self})"


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
