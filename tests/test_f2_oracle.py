from itertools import combinations, product

import numpy as np
import pytest

from rgcodes import f2_oracle
from rgcodes.arith import GroupSpec, InvariantError, cyclotomic_cosets, require_valid, validate_group
from rgcodes.chain_ring import F2
from rgcodes.f2_oracle import (
    component_count_formula,
    coset_sums,
    primitive_idempotents_f2,
)
from rgcodes.group_algebra import AlgebraElem, GroupAlgebra

C15 = GroupSpec((3, 5), (1, 1))


def reference_refinement(spec: GroupSpec):
    """The refinement by RG products: every e*c is an AlgebraElem product of
    n payloads.  primitive_idempotents_f2 must give the same elements in the
    same order."""
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


def grid_groups(max_n: int):
    """(spec, checks) over the groups of r <= 3 factors from a fixed prime
    list, exponents 1..3 and n <= max_n."""
    for r in (1, 2, 3):
        for primes in combinations((3, 5, 11, 13, 19, 29, 37, 53, 59, 61), r):
            for exps in product((1, 2, 3), repeat=r):
                spec = GroupSpec(primes, exps)
                if spec.n <= max_n:
                    yield spec, validate_group(spec).checks


def component_degrees(spec: GroupSpec):
    """Sorted multiset of the F2-dimensions, i.e. the coset sizes."""
    return tuple(sorted(len(c) for c in cyclotomic_cosets(spec.n)))


def module_dimension_f2(e) -> int:
    """dim_F2 of F2 G * e, as the rank of the matrix of all translates a^k e."""
    rows = []
    for k in range(e.algebra.n):
        row = np.roll(e.coeffs, k)
        rows.append(int.from_bytes(np.packbits(row).tobytes(), "big"))
    # Gaussian elimination on bit-packed rows
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    return len(basis)


def test_coset_sums_mod_15():
    pairs = coset_sums(C15)
    assert [c for c, _ in pairs] == [
        (0,), (1, 2, 4, 8), (3, 6, 12, 9), (5, 10), (7, 14, 13, 11)]
    for coset, elem in pairs:
        assert elem.weight() == len(coset)
        # a coset sum is fixed by squaring exponents
        assert elem.scale_exponents(2) == elem


def test_count_formula_anchors():
    assert component_count_formula(GroupSpec((3,), (1,))) == 2
    assert component_count_formula(C15) == 5
    assert component_count_formula(GroupSpec((3, 5), (2, 1))) == 8
    assert component_count_formula(GroupSpec((3, 5, 11), (1, 1, 1))) == 14


def test_primitive_count_matches_formula():
    for spec in (GroupSpec((3,), (1,)), GroupSpec((3,), (2,)), C15,
                 GroupSpec((3, 5), (2, 1)), GroupSpec((3, 5, 11), (1, 1, 1))):
        prims = primitive_idempotents_f2(spec)
        assert len(prims) == component_count_formula(spec)


def test_count_formula_exact_on_valid_groups():
    """Over groups with n <= 20,000 that pass every other hypothesis, the coset
    count matches the formula exactly when gcd(phi(p^a), phi(q^b)) = 2 for every
    pair: the pairwise check accepts 5^2,11^1 no longer (16 cosets, formula 8)."""
    accepted = refused = 0
    for spec, checks in grid_groups(20_000):
        if not all(ok for name, ok, _ in checks if not name.startswith("gcd-condition")):
            continue
        valid = all(ok for _, ok, _ in checks)
        matches = len(cyclotomic_cosets(spec.n)) == component_count_formula(spec)
        assert valid == matches, spec
        accepted, refused = accepted + valid, refused + (not valid)
    assert accepted > 100 and refused > 100


def test_oracle_is_the_product_refinement():
    """Coset coordinates give the product refinement's elements in its order,
    on every valid grid group with n <= 1000 and at n = 3135."""
    specs = [spec for spec, checks in grid_groups(1000) if all(ok for _, ok, _ in checks)]
    specs.append(GroupSpec((3, 5, 11, 19), (1, 1, 1, 1)))
    assert len(specs) > 20
    for spec in specs:
        assert primitive_idempotents_f2(spec) == reference_refinement(spec), spec


def test_oracle_forms_no_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("the oracle formed an RG product")

    primitive_idempotents_f2.cache_clear()
    monkeypatch.setattr(AlgebraElem, "__mul__", refuse)
    prims = primitive_idempotents_f2(GroupSpec((3, 5, 11), (2, 1, 1)))
    assert len(prims) == 23


def test_family_is_complete_orthogonal():
    prims = primitive_idempotents_f2(C15)
    alg = GroupAlgebra(F2, C15)
    total = alg.zero()
    for e in prims:
        assert e.is_idempotent() and not e.is_zero()
        total = total + e
    assert total == alg.one()
    for i in range(len(prims)):
        for j in range(i + 1, len(prims)):
            assert (prims[i] * prims[j]).is_zero()


def test_primitivity_no_proper_splitting():
    """e is primitive iff no coset sum c splits it: e*c in {0, e} for all c."""
    prims = primitive_idempotents_f2(C15)
    for e in prims:
        for _, c in coset_sums(C15):
            prod = e * c
            assert prod.is_zero() or prod == e


def test_component_degrees():
    assert component_degrees(C15) == (1, 2, 4, 4, 4)
    assert sum(component_degrees(C15)) == 15
    assert sum(component_degrees(GroupSpec((3, 5, 11), (1, 1, 1)))) == 165


def test_module_dimensions_match_degrees():
    # dim of the ideal generated by each primitive equals one coset size
    prims = primitive_idempotents_f2(C15)
    dims = sorted(module_dimension_f2(e) for e in prims)
    assert dims == [1, 2, 4, 4, 4]
    assert module_dimension_f2(GroupAlgebra(F2, C15).one()) == 15


def test_sorted_deterministic():
    a = primitive_idempotents_f2(C15)
    b = primitive_idempotents_f2(GroupSpec((3, 5), (1, 1)))
    assert list(a) == list(b)  # same spec, same tuple, cached
    # first member is the whole-group hat (support exponent 0)
    assert a[0] == GroupAlgebra(F2, C15).hat((0, 0))


def test_count_disagreement_raises(monkeypatch):
    """A refinement whose size differs from the count formula raises."""
    real = f2_oracle.component_count_formula
    monkeypatch.setattr(f2_oracle, "component_count_formula", lambda spec: real(spec) + 1)
    primitive_idempotents_f2.cache_clear()
    with pytest.raises(InvariantError, match="disagrees with the count formula"):
        primitive_idempotents_f2(C15)
