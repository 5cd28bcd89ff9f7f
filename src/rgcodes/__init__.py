"""Workbench for cyclic codes over finite chain rings of order 2^t.

For a chain ring R with residue field F2 and an abelian group G of
constrained odd order, the package constructs the primitive idempotents
of RG, builds the cyclic codes generated by s^k e for the uniformizer s,
and verifies the predicted codeword counts and minimum weights against
brute-force enumeration.
"""

from .arith import GroupSpec, InvariantError, parse_group, validate_group
from .chain_ring import F2, ChainRing, parse_ring
from .group_algebra import AlgebraElem, GroupAlgebra

__all__ = [
    "GroupSpec",
    "InvariantError",
    "parse_group",
    "validate_group",
    "F2",
    "ChainRing",
    "parse_ring",
    "AlgebraElem",
    "GroupAlgebra",
]
