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

This construction never touches the closed-form products used
elsewhere, so it serves as the ground truth they are compared against.
The number of components is also predicted by a closed formula in the
factor exponents n_i.  primitive_idempotents_f2 validates the group
before its first product; idempotents.primitive_family relies on that
check and makes none of its own.
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
    """All primitive idempotents of F2 G, sorted by least support exponent."""
    require_valid(spec)
    alg = GroupAlgebra(F2, spec)
    working = [alg.one()]
    for _, c in coset_sums(spec):
        refined = []
        for e in working:
            ec = e * c
            for piece in (ec, ec + e):  # ec + e = e * (c + 1) over F2
                if not piece.is_zero():
                    refined.append(piece)
        working = refined
    # one pass splits completely; order by least support exponent for callers
    working.sort(key=lambda e: int(np.flatnonzero(e.coeffs)[0]))
    if len(working) != component_count_formula(spec):
        raise InvariantError("oracle family size disagrees with the count formula")
    return tuple(working)


def component_count_formula(spec: GroupSpec) -> int:
    """1 + sum over nonempty subsets S of 2^(|S|-1) * prod_{i in S} n_i."""
    total = 1
    for k in range(1, spec.r + 1):
        for subset in combinations(spec.exponents, k):
            total += (1 << (k - 1)) * math.prod(subset)
    return total

