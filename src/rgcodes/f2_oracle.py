"""Independent construction of the primitive idempotents of F2 G.

Over F2 the idempotents of F2 G are exactly the elements whose
coefficients are constant on the cyclotomic cosets of 2 modulo n (the
span of the coset sums is the fixed algebra of the squaring map, and in
characteristic 2 every element of that span is idempotent).  The
complete set of primitive idempotents is found by refinement: start from
the working set {1}; for each coset sum c replace every e in the set by
the nonzero elements among e*c and e*(1+c) = e*c + e.  The coset sums
span the fixed algebra, which separates its components, so one pass over
all coset sums fully splits the identity.

The refinement runs in coset coordinates.  The map sigma_2: g -> g^2 is
an automorphism of G, hence of F2 G, and each coset sum is fixed by it,
so every product and sum of coset sums is fixed too: an element of the
working set is constant on each coset, and its m values there, one per
coset, determine it.  Each working element is a uint8 row of those m
values, read at the coset leaders (least members).  For a coset C,
(e*c)(a^l) = sum over k in C of e(a^(l-k)) mod 2, so e*c at the leaders
is e's row times an m x m parity matrix, formed by one gather of the
coset indices of l - k; the whole working set is refined by one matrix
product.  Only at the end is each row expanded to n payloads.

This construction forms no RG product, no FFT and no rounding, and
never touches the closed-form products used elsewhere, so it serves as
the ground truth they are compared against.  The number of components
is also predicted by a closed formula in the factor exponents n_i.
primitive_idempotents_f2 validates the group before any work;
idempotents.primitive_family relies on that check and makes none of its
own.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .arith import GroupSpec, InvariantError, cyclotomic_cosets, require_valid
from .chain_ring import F2
from .group_algebra import AlgebraElem, GroupAlgebra


def coset_sums(spec: GroupSpec):
    """(coset, sum over the coset of a^k) pairs, cosets by least member."""
    alg = GroupAlgebra(F2, spec)
    out = []
    for coset in cyclotomic_cosets(spec.n):
        arr = np.zeros(alg.n, dtype=np.uint8)
        arr[list(coset)] = 1
        out.append((coset, AlgebraElem(alg, arr)))
    return out


@lru_cache(maxsize=None)
def primitive_idempotents_f2(spec: GroupSpec):
    """All primitive idempotents of F2 G, sorted by least support exponent.

    Entry j of a working row holds e's value on coset j.  index[k] is the
    coset of a^(k mod n) for 0 <= k < 2n, so leader_l - k + n needs no
    reduction mod n, and row[index[:n]] expands a row to n payloads.
    """
    require_valid(spec)
    n = spec.n
    cosets = [coset for coset, _ in coset_sums(spec)]
    m = len(cosets)
    index = np.empty(2 * n, dtype=np.intp)
    for j, coset in enumerate(cosets):
        index[list(coset)] = j
    index[n:] = index[:n]
    leaders = np.array([coset[0] for coset in cosets], dtype=np.intp) + n
    offsets = np.arange(m, dtype=np.intp)[:, None] * m
    rows = np.zeros((1, m), dtype=np.uint8)
    rows[0, 0] = 1  # the identity: 1 on the coset {0}
    for coset in cosets:
        # parity[l, j]: how many k in C put a^(leader_l - k) in coset j, mod 2
        which = index[leaders[:, None] - np.array(coset, dtype=np.intp)]
        parity = (np.bincount((offsets + which).ravel(), minlength=m * m) & 1).astype(np.uint8)
        # uint8 sums wrap mod 256, which keeps their parity
        ec = (rows @ parity.reshape(m, m).T) & 1
        pieces = np.stack((ec, ec ^ rows), axis=1).reshape(-1, m)  # ec + e = e * (c + 1)
        rows = pieces[pieces.any(axis=1)]
    # one pass splits completely; order by least support exponent for callers:
    # leaders increase with j, so a row's first nonzero coset names it
    rows = rows[np.argsort(rows.argmax(axis=1), kind="stable")]
    if len(rows) != component_count_formula(spec):
        raise InvariantError("oracle family size disagrees with the count formula")
    alg = GroupAlgebra(F2, spec)
    return tuple(AlgebraElem(alg, row[index[:n]]) for row in rows)


def component_count_formula(spec: GroupSpec) -> int:
    """1 + sum over nonempty subsets S of 2^(|S|-1) * prod_{i in S} n_i."""
    total = 1
    for k in range(1, spec.r + 1):
        for subset in combinations(spec.exponents, k):
            total += (1 << (k - 1)) * math.prod(subset)
    return total
