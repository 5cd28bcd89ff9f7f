import numpy as np

from rgcodes.arith import GroupSpec, cyclotomic_cosets
from rgcodes.f2_oracle import (
    component_count_formula,
    coset_sums,
    f2_algebra,
    primitive_idempotents_f2,
)

C15 = GroupSpec((3, 5), (1, 1))


def component_degrees(spec: GroupSpec):
    """Sorted multiset of the F2-dimensions, i.e. the coset sizes."""
    return tuple(sorted(len(c) for c in cyclotomic_cosets(spec.n)))


def module_dimension_f2(e) -> int:
    """dim_F2 of F2 G * e, as the rank of the matrix of all translates g*e."""
    alg = e.algebra
    rows = []
    grid = e.coeffs.reshape(alg.shape)
    axes = tuple(range(alg.group.r))
    for idx in np.ndindex(alg.shape):
        row = np.roll(grid, idx, axis=axes).reshape(alg.n)
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


def test_family_is_complete_orthogonal():
    prims = primitive_idempotents_f2(C15)
    alg = f2_algebra(C15)
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
    assert module_dimension_f2(f2_algebra(C15).one()) == 15


def test_sorted_deterministic():
    a = primitive_idempotents_f2(C15)
    b = primitive_idempotents_f2(GroupSpec((3, 5), (1, 1)))
    assert list(a) == list(b)  # same spec, same tuple, cached
    # first member is the whole-group hat (support exponent 0)
    assert a[0] == f2_algebra(C15).hat((0, 0))
