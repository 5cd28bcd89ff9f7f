"""Primitive idempotents of RG from closed-form products, with lifting.

Components of RG are indexed by block labels (j_1, ..., j_r) with
0 <= j_i <= n_i.  The block idempotent is the product over the factors
of hat(<a_i>) when j_i = 0 and hat(<a_i^{p_i^{j_i}}>) - hat(<a_i^{p_i^{j_i-1}}>)
otherwise; it is primitive iff at most one j_i is nonzero.  A block with
l >= 2 nonzero indices splits into 2^(l-1) primitive pieces, built from
the auxiliary elements u_i which satisfy u_i^3 = u_i + u_i^2 = (the
i-th block factor) and generate a copy of F4 in each component.

split_block builds the summands of every block the same way: starting
from the block idempotent, it halves each member by a lifted pair
idempotent x + x^2 with x = u_{i_1} u_i, once per nonzero index i after
the first one i_1.  The F2 refinement oracle builds nothing; it only
checks the members (see primitive_family).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import GroupSpec, InvariantError, block_labels
from .chain_ring import F2, ChainRing
from .f2_oracle import component_count_formula, primitive_idempotents_f2
from .group_algebra import AlgebraElem, GroupAlgebra, _family_certificate


@dataclass(frozen=True)
class IdempotentRecord:
    """One primitive idempotent with its provenance."""

    element: AlgebraElem
    block: tuple
    split: str | None
    method: str  # "paper-formula": every member comes from split_block


def block_idempotent(alg: GroupAlgebra, block) -> AlgebraElem:
    """Product of per-factor hat differences; the component sum for the block."""
    block = alg.group.check_levels(block)
    out = None
    for i, j in enumerate(block):
        if j == 0:
            factor = alg.factor_hat(i, 0)
        else:
            factor = alg.factor_hat(i, j) - alg.factor_hat(i, j - 1)
        out = factor if out is None else out * factor
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
    trace of x: the indicator that sigma_{i_1}/sigma_i is fixed.
    """
    return _split_from(alg, block, block_idempotent(alg, block))


def _split_from(alg: GroupAlgebra, block, whole: AlgebraElem) -> list:
    """split_block, given the block idempotent `whole`."""
    block = alg.group.check_levels(block)
    idx = _split_indices(alg, block)
    members = [whole]
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
def split_block_2(alg: GroupAlgebra, block):
    """The two primitive summands of a block with exactly two nonzero indices."""
    if len(_split_indices(alg, alg.group.check_levels(block))) != 2:
        raise ValueError("block must have exactly two nonzero indices")
    return tuple(split_block(alg, block))


def split_block_3(alg: GroupAlgebra, block):
    """The four primitive summands of a block with exactly three nonzero indices."""
    if len(_split_indices(alg, alg.group.check_levels(block))) != 3:
        raise ValueError("block must have exactly three nonzero indices")
    return tuple(split_block(alg, block))


def u_product_pair(alg: GroupAlgebra, block) -> AlgebraElem:
    """Hats of the zero-index factors times (u_1 ... u_l + u_1^2 ... u_l^2)^(2^(t-1)).

    An idempotent in the block component for any l >= 2 nonzero indices;
    primitive exactly when l = 2 (for l = 3 it is a sum of three of the
    split_block summands).
    """
    block = alg.group.check_levels(block)
    idx = _split_indices(alg, block)
    if len(idx) < 2:
        raise ValueError("block must have at least two nonzero indices")
    hats, prod_u, prod_q = alg.one(), alg.one(), alg.one()
    for i, j in enumerate(block):
        if j == 0:
            hats = hats * alg.factor_hat(i, 0)
            continue
        u = u_element(alg, i, j)
        prod_u = prod_u * u
        prod_q = prod_q * (u * u)
    exp = 1 << (alg.ring.t - 1)
    return hats * (prod_u + prod_q) ** exp


def lift_idempotent(f: AlgebraElem, ring: ChainRing) -> AlgebraElem:
    """The unique idempotent of RG reducing to f: (coefficient lift)^(2^(t-1))."""
    if f.algebra.ring != F2:
        raise ValueError("expects an idempotent over F2")
    if not f.is_idempotent():
        raise ValueError("element is not idempotent")
    w = f.lift_to(ring) ** (1 << (ring.t - 1))
    if not w.is_idempotent() or w.reduce_f2() != f:
        raise InvariantError("the lift is not an idempotent reducing to f")
    return w


@lru_cache(maxsize=None)
def primitive_family(spec: GroupSpec, ring: ChainRing):
    """All primitive idempotents of RG as labelled records, sorted by block.

    Every block takes its members from split_block, evaluated over R.  The
    F2 oracle only checks them: each member's residue must be a distinct
    oracle primitive and the member idempotent over R, which makes it the
    unique lift; a block's members must sum to its block idempotent, and
    the family must use every oracle primitive.  A failed check raises
    InvariantError.  The oracle validates the group, so a group that fails
    the hypotheses raises arith.InvalidGroup before any product is formed.
    """
    alg = GroupAlgebra(ring, spec)
    unused = {f.coeffs.tobytes(): f for f in primitive_idempotents_f2(spec)}
    records = []
    for block in block_labels(spec):
        whole = block_idempotent(alg, block)
        members = _split_from(alg, block, whole)
        for i, e in enumerate(members):
            tag = None if len(members) == 1 else f"({i + 1})"
            # an idempotent whose residue is an oracle primitive is its unique lift
            if unused.pop(e.reduce_f2().coeffs.tobytes(), None) is None or not e.is_idempotent():
                raise InvariantError(f"block {block} member {tag}: not an unused primitive's lift")
            records.append(IdempotentRecord(e, block, tag, "paper-formula"))
        if sum(members, alg.zero()) != whole:
            raise InvariantError(f"block {block}: members do not sum to the block idempotent")
    if unused:
        raise InvariantError("the family does not use each oracle primitive once")
    return tuple(records)


def verify_family(elems, alg: GroupAlgebra) -> dict:
    """Completeness checks for a family of elements of the given algebra
    (idempotency and orthogonality: group_algebra._family_certificate)."""
    idempotent, orthogonal, total = _family_certificate(elems, alg)
    return {
        "idempotent": idempotent,
        "orthogonal": orthogonal,
        "sum_to_one": total == alg.one(),
        "count_matches_formula": len(elems) == component_count_formula(alg.group),
    }
