"""The group algebra RG for a chain ring R and an abelian group G.

The factor orders q_i = p_i^{n_i} are pairwise coprime, so G is cyclic,
generated by a = a_1 ... a_r of order n, and RG = R[x]/(x^n - 1), a
value: the frozen pair (ring, group).  An element is a dense payload
vector of length n whose position k holds the coefficient of a^k;
products, shifts, subgroup hats and exponent scaling all work on this
one axis.  The factor grid, where (e_1, ..., e_r) names
a_1^{e_1} ... a_r^{e_r}, is a view kept inside this module: multi-indices
enter through ``arith.crt_index`` and ``pairs`` lists them in grid order
through the per-group permutation ``grid_order``.  A subgroup is named by
its levels, one per factor (see ``hat``); hat(H) hat(K) = hat(HK), whose
levels are the factorwise minimum, so a product of hats is one hat.
Sums, differences and products take two elements of one algebra; there
is no power operator (idempotents.lift_idempotent squares in coset
coordinates).  A ring scalar enters as its payload
through ``scalar_mul``, and ``element`` takes payloads in [0, 2^t) only.
The module is the algebra alone: families and their labels live in
idempotents.

Multiplication is cyclic convolution, exact in the ring, by one path:
coefficient times cyclic shift of the denser operand, summed over the
support of the sparser one.  Every product the construction and the
codes form has a sparse operand (a monomial, a subgroup hat, a
u-element, a two-term probe step); products of idempotents run on their
m coset values in the sigma_2-fixed subalgebra (f2_oracle.coset_product).
Elements are immutable; every operation allocates a fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .arith import GroupSpec, InvariantError, crt_index, crt_multi
from .chain_ring import F2, ChainRing


@lru_cache(maxsize=None)
def grid_order(group: GroupSpec) -> np.ndarray:
    """Exponent k of a^k for each group element, in C order of the factor grid:
    ``coeffs[grid_order(group)]`` lays coefficients out on the grid."""
    k = np.arange(group.n)
    order = np.empty(group.n, dtype=np.intp)
    order[np.ravel_multi_index(crt_multi(k, group), group.factor_orders)] = k
    order.setflags(write=False)
    return order


@dataclass(frozen=True)
class GroupAlgebra:
    """The algebra RG of a ChainRing over a GroupSpec; a value, equal by both."""

    ring: ChainRing
    group: GroupSpec

    def __post_init__(self):
        # the caches keyed by an algebra hash it on every lookup: form it once
        object.__setattr__(self, "_hash", hash((self.ring, self.group)))

    def __hash__(self):
        return self._hash

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def shape(self) -> tuple:
        return self.group.factor_orders

    def __repr__(self):
        return f"GroupAlgebra({self.ring.designator()}, {self.group})"

    def element(self, coeffs) -> AlgebraElem:
        """Element from n payloads; coeffs[k] is the coefficient of a^k."""
        arr = np.asarray(coeffs)
        if arr.dtype.kind not in "iu" or not 0 <= arr.min() <= arr.max() < self.ring.size:
            raise ValueError(f"coefficient payloads must be integers in [0, {self.ring.size})")
        return AlgebraElem(self, arr.astype(self.ring.dtype).reshape(self.n))

    def zero(self) -> AlgebraElem:
        return AlgebraElem(self, np.zeros(self.n, dtype=self.ring.dtype))

    def one(self) -> AlgebraElem:
        return self.monomial((0,) * self.group.r)

    def monomial(self, multi) -> AlgebraElem:
        if len(multi) != self.group.r:
            raise ValueError("wrong multi-index length")
        arr = np.zeros(self.n, dtype=self.ring.dtype)
        arr[crt_index(tuple(int(e) for e in multi), self.group)] = 1
        return AlgebraElem(self, arr)

    def generator_power(self, i: int, e: int = 1) -> AlgebraElem:
        """The group element a_i^e as an algebra element."""
        multi = [0] * self.group.r
        multi[i] = e % self.shape[i]
        return self.monomial(tuple(multi))

    def hat(self, levels) -> AlgebraElem:
        """|H|^{-1} times the sum of H = prod_i <a_i^{p_i^level_i}>.

        level_i = 0 keeps the whole i-th factor, level_i = n_i cuts it down
        to the identity.  H is cyclic, generated by a^D with
        D = prod_i p_i^level_i, so a^k lies in H iff D | k, and |H| = n/D
        is odd, hence a unit in R.
        """
        levels = self.group.check_levels(levels)
        d = math.prod(p**l for p, l in zip(self.group.primes, levels))
        arr = np.zeros(self.n, dtype=self.ring.dtype)
        arr[::d] = self.ring.inv(self.ring.from_int(self.n // d))
        return AlgebraElem(self, arr)

    def factor_hat(self, i: int, level: int) -> AlgebraElem:
        """hat of the cyclic subgroup <a_i^{p_i^level}> of the i-th factor."""
        levels = list(self.group.exponents)  # identity in every other factor
        levels[i] = level
        return self.hat(tuple(levels))


class AlgebraElem:
    """Immutable element of a GroupAlgebra; coeffs is a read-only payload array."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: GroupAlgebra, coeffs: np.ndarray):
        self.algebra = algebra
        coeffs = np.ascontiguousarray(coeffs, dtype=algebra.ring.dtype)
        if coeffs.shape != (algebra.n,):
            raise InvariantError(f"coefficient array of shape {coeffs.shape}, want ({algebra.n},)")
        coeffs.setflags(write=False)
        self.coeffs = coeffs

    # -- structure -----------------------------------------------------

    def _grid(self) -> np.ndarray:
        """Coefficients on the factor grid; entry e belongs to a_1^{e_1} ... a_r^{e_r}."""
        alg = self.algebra
        return self.coeffs[grid_order(alg.group)].reshape(alg.shape)

    def weight(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def pairs(self):
        """(multi-index, payload) for each nonzero coefficient, sorted."""
        grid = self._grid()
        idx = np.argwhere(grid)
        return list(zip(map(tuple, idx.tolist()), grid[tuple(idx.T)].tolist()))

    def json_terms(self):
        """[multi-index, payload string] for each nonzero coefficient, sorted."""
        ring = self.algebra.ring
        return [[list(multi), ring.str_payload(payload)] for multi, payload in self.pairs()]

    def json_text(self, pad: str = "\n") -> str:
        """json.dumps(self.json_terms(), indent=2), nested at pad (a newline
        and the indent of the closing bracket), formatted in one pass."""
        grid = self._grid()
        idx = np.argwhere(grid)
        if not len(idx):
            return "[]"
        # each distinct payload is formatted once: an idempotent has a few, where a
        # table of every payload string would cost 2^16 str_payload calls for f2u16
        ring = self.algebra.ring
        distinct, which = np.unique(grid[tuple(idx.T)], return_inverse=True)
        texts = np.array([encode_basestring_ascii(ring.str_payload(a)) for a in distinct.tolist()],
                         dtype=object)
        p1, p2, p3 = pad + "  ", pad + "    ", pad + "      "
        # one term: [multi-index, payload string], with one %d per factor
        term = f"{p1}[{p2}[{','.join([p3 + '%d'] * idx.shape[1])}{p2}],{p2}%s{p1}]"
        columns = [*idx.T.tolist(), texts[which].tolist()]
        values = tuple(chain.from_iterable(zip(*columns)))
        return "[" + ",".join([term] * len(idx)) % values + pad + "]"

    # -- arithmetic ----------------------------------------------------

    def _check(self, other) -> None:
        if not isinstance(other, AlgebraElem) or other.algebra != self.algebra:
            raise ValueError("operands from different algebras")

    def __add__(self, other):
        self._check(other)
        ring = self.algebra.ring
        return AlgebraElem(self.algebra, ring.add_arr(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        ring = self.algebra.ring
        return AlgebraElem(self.algebra, ring.sub_arr(self.coeffs, other.coeffs))

    def scalar_mul(self, payload: int) -> AlgebraElem:
        """The ring scalar with this payload, in [0, 2^t), times self."""
        ring = self.algebra.ring
        if not (isinstance(payload, int) and 0 <= payload < ring.size):
            raise ValueError(f"a scalar payload is an int in [0, {ring.size}), got {payload!r}")
        return AlgebraElem(self.algebra, ring.mul_arr(payload, self.coeffs))

    def __mul__(self, other):
        """Sum of coefficient * cyclic shift of the denser operand over the
        support of the sparser one."""
        self._check(other)
        ring = self.algebra.ring
        a, b = self.coeffs, other.coeffs
        if np.count_nonzero(a) > np.count_nonzero(b):
            a, b = b, a
        n = len(b)
        out = np.zeros(n, dtype=ring.dtype)
        for k in np.flatnonzero(a).tolist():
            shifted = np.concatenate((b[n - k :], b[: n - k]))  # np.roll(b, k)
            out = ring.add_arr(out, ring.mul_arr(int(a[k]), shifted))
        return AlgebraElem(self.algebra, out)

    def scale_exponents(self, m: int) -> AlgebraElem:
        """The algebra map a_i -> a_i^m, i.e. a^k -> a^(km) (m coprime to n)."""
        n = self.algebra.n
        if math.gcd(m, n) != 1:
            raise ValueError("scaling factor must be coprime to the group order")
        out = np.empty_like(self.coeffs)
        out[np.arange(n) * (m % n) % n] = self.coeffs
        return AlgebraElem(self.algebra, out)

    def is_idempotent(self) -> bool:
        return self * self == self

    # -- residue field and lifting -------------------------------------

    def reduce_f2(self) -> AlgebraElem:
        """Coefficientwise residue map RG -> F2 G."""
        target = GroupAlgebra(F2, self.algebra.group)
        return AlgebraElem(target, (self.coeffs & 1).astype(np.uint8))

    # -- misc ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElem)
            and other.algebra == self.algebra
            and bool(np.array_equal(other.coeffs, self.coeffs))
        )

    __hash__ = None

    def __repr__(self):
        body = repr(self.pairs())
        if len(body) > 120:
            body = body[:117] + "..."
        return f"AlgebraElem[{self.algebra.ring.designator()}; {self.algebra.group}]({body})"
