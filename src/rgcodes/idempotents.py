"""Primitive idempotents of RG from closed forms, with lifting.

Components of RG are indexed by block labels (j_1, ..., j_r) with
0 <= j_i <= n_i.  The block idempotent is the product over the factors
of hat(<a_i>) when j_i = 0 and hat(<a_i^{p_i^{j_i}}>) - hat(<a_i^{p_i^{j_i-1}}>)
otherwise, which block_idempotent expands into a signed sum of 2^l
subgroup hats (l nonzero indices), with no product in RG; it is primitive
iff l <= 1.  A block with l >= 2 splits into 2^(l-1) primitive pieces,
built from the auxiliary elements u_i which satisfy u_i^3 = u_i + u_i^2 =
(the i-th block factor) and generate a copy of F4 in each component.

split_block, the one entry that splits, builds every block the same way:
from the block idempotent, it halves each member by a lifted pair
idempotent x + x^2 with x = u_{i_1} u_i, once per nonzero index i after
the first one i_1.  Every lift from F2 goes through lift_idempotent, the
one place that squares.  The F2 refinement oracle builds nothing; it only
checks the members (see primitive_family).  primitive_family certifies
each family once, and verify_family raises on any false flag, so no
certificate is stored.  Its labelled records are the one source of family
facts.  They come as a Family, a tuple of the records that also carries
their index by (block, split) label, formed with the family and cached
with it, so no second cache is kept: family_member finds a member by its
label in one lookup, and codes.check_components compares each component
with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .arith import GroupSpec, InvariantError, block_labels
from .chain_ring import F2, ChainRing
from .f2_oracle import component_count_formula, primitive_idempotents_f2
from .group_algebra import AlgebraElem, GroupAlgebra


@dataclass(frozen=True)
class IdempotentRecord:
    """One primitive idempotent with its provenance."""

    element: AlgebraElem
    block: tuple
    split: str | None
    method: str  # "paper-formula": every member comes from split_block


def block_idempotent(alg: GroupAlgebra, block) -> AlgebraElem:
    """The component sum for the block, as a signed sum of 2^l subgroup hats.

    The product over the factors of hat(<a_i^{p_i^{j_i}}>) - hat(<a_i^{p_i^{j_i-1}}>)
    (hat(<a_i>) where j_i = 0) expands over the subsets S of the l nonzero
    indices: hats of independent factors multiply to the hat of their
    product subgroup, so the term of S is (-1)^|S| hat(block - 1_S).
    """
    block = alg.group.check_levels(block)
    out = alg.zero()
    for drop in product(*[(0, 1) if j else (0,) for j in block]):  # j_i = 0 stays at 0
        term = alg.hat(tuple(j - d for j, d in zip(block, drop)))
        out = out - term if sum(drop) % 2 else out + term
    return out


def u_element(alg: GroupAlgebra, i: int, j: int) -> AlgebraElem:
    """Auxiliary element for factor i at level j >= 1.

    hat(<a_i^{p^j}>) times the sum of a_i^{2^{2m} p^{j-1}} for
    0 <= m < (p-1)/2, plus the constant 1 when p = 3 (mod 4).
    Satisfies u^3 = u + u^2 = the level-j block factor.
    """
    spec = alg.group
    if not 0 <= i < spec.r:
        raise ValueError("factor index out of range")
    p = spec.primes[i]
    if not 1 <= j <= spec.exponents[i]:
        raise ValueError(f"level {j} out of range 1..{spec.exponents[i]}")
    acc = alg.one() if p % 4 == 3 else alg.zero()
    step = p ** (j - 1)
    for m in range((p - 1) // 2):
        acc = acc + alg.generator_power(i, (1 << (2 * m)) * step)
    return alg.factor_hat(i, j) * acc


def _split_indices(alg: GroupAlgebra, block) -> list:
    return [i for i, j in enumerate(block) if j > 0]


def split_block(alg: GroupAlgebra, block) -> list:
    """The 2^(l-1) primitive summands of a block with l nonzero indices.

    Start from the block idempotent and, for each nonzero index i after
    the first one i_1 (last index first), split every member e into e*p
    and e - e*p, where p lifts x + x^2 for x = u_{i_1} u_i over F2.  In
    each component u_i acts as omega or omega^2 in F4, so x + x^2 is the
    trace of x: the indicator that sigma_{i_1}/sigma_i is fixed.  Every
    family is built through this one entry (primitive_family).
    """
    block = alg.group.check_levels(block)
    idx = _split_indices(alg, block)
    members = [block_idempotent(alg, block)]
    if len(idx) >= 2:
        f2alg = GroupAlgebra(F2, alg.group)
        u1 = u_element(f2alg, idx[0], block[idx[0]])
        for i in reversed(idx[1:]):
            x = u1 * u_element(f2alg, i, block[i])
            p = lift_idempotent(x + x * x, alg.ring)
            members = [m for e in members for ep in (e * p,) for m in (ep, e - ep)]
    return members


# bench/tracer.py wraps split_block_2, split_block_3 and u_product_pair by
# name, so these names stay until its list of traced functions changes.
split_block_2 = split_block_3 = split_block


def u_product_pair(alg: GroupAlgebra, block) -> AlgebraElem:
    """The lift from F2 of hat(<a_i> : j_i = 0) (u_1 ... u_l + u_1^2 ... u_l^2).

    An idempotent in the block component for any l >= 2 nonzero indices;
    primitive exactly when l = 2 (for l = 3 it is a sum of three of the
    split_block summands).
    """
    block = alg.group.check_levels(block)
    idx = _split_indices(alg, block)
    if len(idx) < 2:
        raise ValueError("block must have at least two nonzero indices")
    f2alg = GroupAlgebra(F2, alg.group)
    hats = f2alg.hat(tuple(e if j else 0 for j, e in zip(block, alg.group.exponents)))
    prod_u, prod_q = f2alg.one(), f2alg.one()
    for i in idx:
        u = u_element(f2alg, i, block[i])
        prod_u, prod_q = prod_u * u, prod_q * (u * u)
    return lift_idempotent(hats * (prod_u + prod_q), alg.ring)


def lift_idempotent(f: AlgebraElem, ring: ChainRing) -> AlgebraElem:
    """The unique idempotent of RG reducing to f: its 0/1 coefficient lift,
    squared t - 1 times (each squaring raises the valuation of w^2 - w)."""
    if f.algebra.ring != F2:
        raise ValueError("expects an idempotent over F2")
    if not f.is_idempotent():
        raise ValueError("element is not idempotent")
    w = GroupAlgebra(ring, f.algebra.group).element(f.coeffs)
    for _ in range(ring.t - 1):
        w = w * w
    if not w.is_idempotent() or w.reduce_f2() != f:
        raise InvariantError("the lift is not an idempotent reducing to f")
    return w


class Family(tuple):
    """The records of one primitive family, in order, with the index of
    each by its (block, split) label, formed with the family."""

    def __new__(cls, records):
        family = super().__new__(cls, records)
        family.index = {(r.block, r.split): r for r in family}
        return family


@lru_cache(maxsize=None)
def primitive_family(spec: GroupSpec, ring: ChainRing):
    """All primitive idempotents of RG as labelled records, sorted by block,
    in a Family: its label index is formed here, once per family.

    Every block takes its members from split_block, evaluated over R.  The
    F2 oracle only checks them: each member's residue must be a distinct
    oracle primitive, a block's members must sum to a fresh block
    idempotent (2^l hats, no product), and the family must use every
    oracle primitive.  The certificate (verify_family) then runs once: the
    members must be idempotent, which makes each the unique lift of its
    residue, pairwise orthogonal, sum to one and match the count formula.
    Each check raises InvariantError.  The oracle validates the group: one
    failing the hypotheses raises arith.InvalidGroup before any product.
    """
    alg = GroupAlgebra(ring, spec)
    unused = {f.coeffs.tobytes(): f for f in primitive_idempotents_f2(spec)}
    records = []
    for block in block_labels(spec):
        members = split_block(alg, block)
        for i, e in enumerate(members):
            tag = None if len(members) == 1 else f"({i + 1})"
            if unused.pop(e.reduce_f2().coeffs.tobytes(), None) is None:
                raise InvariantError(f"block {block} member {tag}: not an unused primitive's lift")
            records.append(IdempotentRecord(e, block, tag, "paper-formula"))
        if sum(members, alg.zero()) != block_idempotent(alg, block):
            raise InvariantError(f"block {block}: members do not sum to the block idempotent")
    if unused:
        raise InvariantError("the family does not use each oracle primitive once")
    verify_family([r.element for r in records], alg)
    return Family(records)


def family_member(spec: GroupSpec, ring: ChainRing, block, split):
    """The record of primitive_family(spec, ring) labelled (block, split), or
    None: one lookup in the family's label index."""
    return primitive_family(spec, ring).index.get((tuple(block), split))


# the flags of verify_family, in the order it reports them
FAMILY_CHECKS = ("idempotent", "orthogonal", "sum_to_one", "count_matches_formula")


def verify_family(elems, alg: GroupAlgebra) -> None:
    """Certify a family in 2m - 1 products; InvariantError names each false flag.

    Orthogonality is tested against the running sum, e_i (e_1 + ... +
    e_{i-1}) = 0.  For idempotents this is pairwise orthogonality: if
    e_1..e_{i-1} are pairwise orthogonal, their sum S is idempotent with
    e_j S = e_j, so e_i S = 0 gives e_i e_j = e_i (S e_j) = (e_i S) e_j = 0;
    conversely e_i S = sum_j e_i e_j.  Each test stops at its first failure.
    """
    idempotent = orthogonal = True
    total = alg.zero()
    for i, e in enumerate(elems):
        idempotent = idempotent and e.is_idempotent()
        orthogonal = orthogonal and (i == 0 or (e * total).is_zero())
        total = total + e
    count_ok = len(elems) == component_count_formula(alg.group)
    flags = zip(FAMILY_CHECKS, (idempotent, orthogonal, total == alg.one(), count_ok))
    failed = ", ".join(name for name, ok in flags if not ok)
    if failed:
        raise InvariantError(f"{alg}: the family fails its certificate: {failed}")
