"""Primitive idempotents of RG from closed-form products, with lifting.

Components of RG are indexed by block labels (j_1, ..., j_r) with
0 <= j_i <= n_i.  The block idempotent is the product over the factors
of hat(<a_i>) when j_i = 0 and hat(<a_i^{p_i^{j_i}}>) - hat(<a_i^{p_i^{j_i-1}}>)
otherwise; it is primitive iff at most one j_i is nonzero.  A block with
l >= 2 nonzero indices splits into 2^(l-1) primitive pieces, built from
the auxiliary elements u_i which satisfy u_i^3 = u_i + u_i^2 = (the
i-th block factor) and generate a copy of F4 in each component.

For l = 2 the two primitive summands are the bare product pairs
u_1 u_2 + u_1^2 u_2^2 and u_1^2 u_2 + u_1 u_2^2 (times the complement
hats).  For l = 3 the bare pair is idempotent but splits further: the
four primitive summands are the block idempotent plus one balanced
product pair each.

Each block's members come from one evaluation of its closed form over
R, and the F2 refinement oracle only checks them (see primitive_family);
blocks with four or more nonzero indices lift oracle primitives instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import GroupSpec, InvariantError, block_labels, require_valid
from .chain_ring import F2, ChainRing
from .f2_oracle import component_count_formula, primitive_idempotents_f2
from .group_algebra import AlgebraElem, GroupAlgebra


@dataclass(frozen=True)
class IdempotentRecord:
    """One primitive idempotent with its provenance."""

    element: AlgebraElem
    block: tuple
    split: str | None
    method: str  # "paper-formula" or "oracle-lift"

    def to_json_dict(self):
        ring = self.element.algebra.ring
        return {
            "block": list(self.block),
            "split": self.split,
            "method": self.method,
            "element": [
                [list(multi), ring.str_payload(payload)]
                for multi, payload in self.element.pairs()
            ],
        }


def _check_block(alg: GroupAlgebra, block) -> tuple:
    block = tuple(int(j) for j in block)
    if len(block) != alg.group.r:
        raise ValueError("one block index per group factor")
    for j, n in zip(block, alg.group.exponents):
        if not 0 <= j <= n:
            raise ValueError(f"block index {j} out of range 0..{n}")
    return block


def block_idempotent(alg: GroupAlgebra, block) -> AlgebraElem:
    """Product of per-factor hat differences; the component sum for the block."""
    block = _check_block(alg, block)
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


def _complement_hats(alg: GroupAlgebra, indices) -> AlgebraElem:
    out = alg.one()
    for i in range(alg.group.r):
        if i not in indices:
            out = out * alg.factor_hat(i, 0)
    return out


def split_block_2(alg: GroupAlgebra, block):
    """The two primitive summands of a block with exactly two nonzero indices."""
    block = _check_block(alg, block)
    idx = _split_indices(alg, block)
    if len(idx) != 2:
        raise ValueError("block must have exactly two nonzero indices")
    i1, i2 = idx
    u1 = u_element(alg, i1, block[i1])
    u2 = u_element(alg, i2, block[i2])
    q1, q2 = u1 * u1, u2 * u2
    exp = 1 << (alg.ring.t - 1)
    hats = _complement_hats(alg, idx)
    e1 = hats * (u1 * u2 + q1 * q2) ** exp
    e2 = hats * (q1 * u2 + u1 * q2) ** exp
    return e1, e2


def split_block_3(alg: GroupAlgebra, block):
    """The four primitive summands of a block with exactly three nonzero indices.

    Each is the block idempotent plus a balanced u-product pair (the bare
    pair alone is idempotent but decomposes further; see u_product_pair).
    Built over F2 and lifted when the target ring is larger.
    """
    block = _check_block(alg, block)
    idx = _split_indices(alg, block)
    if len(idx) != 3:
        raise ValueError("block must have exactly three nonzero indices")
    f2alg = GroupAlgebra(F2, alg.group)
    us = [u_element(f2alg, i, block[i]) for i in idx]
    qs = [u * u for u in us]
    patterns = [
        ((0, 0, 0), (1, 1, 1)),
        ((0, 1, 0), (1, 0, 1)),
        ((0, 0, 1), (1, 1, 0)),
        ((1, 0, 0), (0, 1, 1)),
    ]
    blk = block_idempotent(f2alg, block)
    hats = _complement_hats(f2alg, idx)

    def term(bits):
        out = f2alg.one()
        for b, u, q in zip(bits, us, qs):
            out = out * (q if b else u)
        return out

    return tuple(lift_idempotent(blk + hats * (term(x) + term(y)), alg.ring) for x, y in patterns)


def u_product_pair(alg: GroupAlgebra, block) -> AlgebraElem:
    """Complement hats times (u_1 ... u_l + u_1^2 ... u_l^2)^(2^(t-1)).

    An idempotent in the block component for any l >= 2 nonzero indices;
    primitive exactly when l = 2 (for l = 3 it is a sum of three of the
    split_block_3 summands).
    """
    block = _check_block(alg, block)
    idx = _split_indices(alg, block)
    if len(idx) < 2:
        raise ValueError("block must have at least two nonzero indices")
    prod_u, prod_q = alg.one(), alg.one()
    for i in idx:
        u = u_element(alg, i, block[i])
        prod_u = prod_u * u
        prod_q = prod_q * (u * u)
    exp = 1 << (alg.ring.t - 1)
    return _complement_hats(alg, idx) * (prod_u + prod_q) ** exp


def lift_idempotent(f: AlgebraElem, ring: ChainRing) -> AlgebraElem:
    """The unique idempotent of RG reducing to f: (coefficient lift)^(2^(t-1))."""
    if f.algebra.ring != F2:
        raise ValueError("expects an idempotent over F2")
    if not f.is_idempotent():
        raise ValueError("element is not idempotent")
    if ring == F2:
        return f
    w = f.lift_to(ring) ** (1 << (ring.t - 1))
    if not w.is_idempotent() or w.reduce_f2() != f:
        raise InvariantError("the lift is not an idempotent reducing to f")
    return w


@lru_cache(maxsize=None)
def primitive_family(spec: GroupSpec, ring: ChainRing):
    """All primitive idempotents of RG as labelled records, sorted by block.

    A block with at most three nonzero indices takes its members from one
    evaluation of its closed form over R; a block with more lifts the
    oracle primitives under it and tags them "complement".  Each member's
    residue must be a distinct oracle primitive and the member idempotent
    over R, which makes it the unique lift; a block's members must sum to
    its block idempotent.  A failed check raises InvariantError.
    """
    require_valid(spec)
    alg = GroupAlgebra(ring, spec)
    unused = {f.coeffs.tobytes(): f for f in primitive_idempotents_f2(spec)}
    records = []
    for block in block_labels(spec):
        nonzero = len(_split_indices(alg, block))
        blk = block_idempotent(alg, block)
        if nonzero <= 1:
            members = (blk,)
        elif nonzero <= 3:
            members = (split_block_2 if nonzero == 2 else split_block_3)(alg, block)
        else:
            home = blk.reduce_f2()
            members = [lift_idempotent(f, ring) for f in unused.values() if f * home == f]
        method = "paper-formula" if nonzero <= 3 else "oracle-lift"
        for i, e in enumerate(members):
            tag = None if nonzero <= 1 else f"({i + 1})" if nonzero <= 3 else "complement"
            # an idempotent whose residue is an oracle primitive is its unique lift
            if unused.pop(e.reduce_f2().coeffs.tobytes(), None) is None or not e.is_idempotent():
                raise InvariantError(f"block {block} member {tag}: not an unused primitive's lift")
            records.append(IdempotentRecord(e, block, tag, method))
        if sum(members, alg.zero()) != blk:
            raise InvariantError(f"block {block}: members do not sum to the block idempotent")
    if unused or len(records) != component_count_formula(spec):
        raise InvariantError("the family does not use each oracle primitive once")
    return tuple(records)


def verify_family(elems, alg: GroupAlgebra) -> dict:
    """Completeness checks for a family of elements of the given algebra."""
    idempotent = all(e.is_idempotent() for e in elems)
    orthogonal = all(
        (elems[i] * elems[j]).is_zero()
        for i in range(len(elems))
        for j in range(i + 1, len(elems))
    )
    total = alg.zero()
    for e in elems:
        total = total + e
    return {
        "idempotent": idempotent,
        "orthogonal": orthogonal,
        "sum_to_one": total == alg.one(),
        "count_matches_formula": len(elems) == component_count_formula(alg.group),
    }
