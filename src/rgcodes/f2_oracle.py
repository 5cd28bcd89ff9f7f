"""The coset frame of G, the product in it, and the F2 refinement oracle.

n is odd, so sigma_2: g -> g^2 is an automorphism of G and of RG.  Its
fixed subalgebra A holds every subgroup hat, coset sum and idempotent (a
lift from F2 is unique, and sigma_2 fixes its residue).  An element of A
is constant on each cyclotomic coset of 2 mod n, so its m values at the
coset leaders (least members) determine it.  coset_frame gives the coset
of each exponent, the leaders and the structure tensor N[c, l, j] =
#{k in C_c : leader_l - k in C_j}: the product in A is (xy)_l = sum over
c, j of N[c, l, j] X_c Y_j, formed in R by coset_product.

Over F2, x^2 = sigma_2(x), so the idempotents of F2 G are the elements of
A.  primitive_idempotents_f2 refines {1}: for each coset sum c, every e
becomes the nonzero ones of e*c and e*c + e = e*(1 + c); as the coset sums
span A, one pass splits the identity completely.  On rows of coset values
e*c is e times N[c] mod 2, so each step is one parity matrix product and
no RG product is formed.  The construction in idempotents multiplies by
the same N, so independence rests on the tests: they compare the oracle
with the refinement by RG products, and coset_product with the RG
product.  A closed formula in the exponents n_i predicts the component
count.  primitive_idempotents_f2 validates the group before any work;
idempotents.primitive_family relies on that check and makes none of its
own.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .arith import GroupSpec, InvariantError, cyclotomic_cosets, require_valid
from .chain_ring import F2, FAMILY_INT, ChainRing
from .group_algebra import AlgebraElem, GroupAlgebra


def coset_sums(spec: GroupSpec):
    """(coset, sum over the coset of a^k) pairs, cosets by least member."""
    alg = GroupAlgebra(F2, spec)
    return [(coset, AlgebraElem(alg, np.bincount(coset, minlength=alg.n)))
            for coset in cyclotomic_cosets(spec.n)]


class CosetFrame(NamedTuple):
    """index[k]: the coset of a^k; leaders: each coset's least member, in
    increasing order; tensor: N[c, l, j] as int64, shape (m, m, m)."""

    index: np.ndarray
    leaders: np.ndarray
    tensor: np.ndarray

    def values(self, e: AlgebraElem):
        """e's m coset values, or None if e is not in A; values[index]
        expands coset values to the n payloads."""
        values = e.coeffs[self.leaders]
        return values if np.array_equal(values[self.index], e.coeffs) else None


@lru_cache(maxsize=None)
def coset_frame(spec: GroupSpec) -> CosetFrame:
    """The coset frame of G, one gather per coset: N[c] counts, for each
    leader l, the coset indices of leader_l - k over k in C_c."""
    n = spec.n
    cosets = [np.array(coset, dtype=np.intp) for coset, _ in coset_sums(spec)]
    m = len(cosets)
    index = np.empty(n, dtype=np.intp)
    for j, coset in enumerate(cosets):
        index[coset] = j
    leaders = np.array([coset[0] for coset in cosets], dtype=np.intp)
    offsets = np.arange(m, dtype=np.intp)[:, None] * m
    tensor = np.empty((m, m, m), dtype=np.int64)
    for c, coset in enumerate(cosets):
        which = index[(leaders[:, None] - coset) % n]
        tensor[c] = np.bincount((offsets + which).ravel(), minlength=m * m).reshape(m, m)
    for arr in (index, leaders, tensor):
        arr.setflags(write=False)
    return CosetFrame(index, leaders, tensor)


def coset_product(ring: ChainRing, tensor: np.ndarray, X, Y) -> np.ndarray:
    """(xy)_l = sum over c, j of N[c, l, j] X_c Y_j in R, for rows X (..., m)
    of coset values and one row Y (m,): first M[c, l] = sum_j N[c, l, j] Y_j,
    then sum_c X_c M[c, l]."""
    if ring.family == FAMILY_INT:
        # exact in int64: counts below n <= 10^6 times payloads below 2^16
        M = (tensor @ Y.astype(np.int64)) & ring.mask
        return ((X.astype(np.int64) @ M) & ring.mask).astype(ring.dtype)
    # in characteristic 2 a count acts by its parity, and addition is XOR
    M = np.bitwise_xor.reduce(np.where(tensor & 1, Y, 0), axis=-1)
    return np.bitwise_xor.reduce(ring.mul_arr(X[..., :, None], M), axis=-2)


@lru_cache(maxsize=None)
def primitive_idempotents_f2(spec: GroupSpec):
    """All primitive idempotents of F2 G, sorted by least support exponent;
    entry j of a working row is e's value on coset j."""
    require_valid(spec)
    frame = coset_frame(spec)
    rows = np.zeros((1, len(frame.leaders)), dtype=np.uint8)
    rows[0, 0] = 1  # the identity: 1 on the coset {0}
    for counts in frame.tensor:
        # uint8 sums wrap mod 256, which keeps their parity
        ec = (rows @ (counts.T & 1).astype(np.uint8)) & 1
        pieces = np.stack((ec, ec ^ rows), axis=1).reshape(-1, rows.shape[1])  # ec + e = e * (c + 1)
        rows = pieces[pieces.any(axis=1)]
    # one pass splits completely; order by least support exponent for callers:
    # leaders increase with j, so a row's first nonzero coset names it
    rows = rows[np.argsort(rows.argmax(axis=1), kind="stable")]
    if len(rows) != component_count_formula(spec):
        raise InvariantError("oracle family size disagrees with the count formula")
    alg = GroupAlgebra(F2, spec)
    return tuple(AlgebraElem(alg, row[frame.index]) for row in rows)


def component_count_formula(spec: GroupSpec) -> int:
    """1 + sum over nonempty subsets S of 2^(|S|-1) * prod_{i in S} n_i."""
    total = 1
    for k in range(1, spec.r + 1):
        for subset in combinations(spec.exponents, k):
            total += (1 << (k - 1)) * math.prod(subset)
    return total
