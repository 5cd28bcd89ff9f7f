"""One test per acceptance criterion.

Each test delegates to the corresponding selftest criterion, prints its
single pass/fail line, and asserts the result, so `pytest -v` and
`rgcodes selftest` report the same nine verdicts.
"""

from rgcodes import selftest


def _check(result):
    print(result.line())
    assert result.ok, result.line()


def test_criterion_1_component_counts():
    """Oracle family sizes match the closed-form count for all nine specs."""
    _check(selftest.criterion_component_counts())


def test_criterion_2_idempotent_lifting():
    """Every F2 primitive lifts to an exact idempotent over all four rings."""
    _check(selftest.criterion_lifting())


def test_criterion_3_formulas_vs_oracle():
    """Closed-form idempotents are members of the lifted oracle family."""
    _check(selftest.criterion_formula_vs_oracle())


def test_criterion_4_word_counts():
    """Enumerated code sizes equal 2^((t-k)d) for all components at n = 15."""
    _check(selftest.criterion_word_counts())


def test_criterion_5_minimum_weights():
    """Exact weights 15/10/6 at n = 15, independent of k."""
    _check(selftest.criterion_min_weights())


def test_criterion_6_bound_sandwich():
    """Split-code weight sits between the lower bound 4 and the probe bound."""
    _check(selftest.criterion_bound_sandwich())


def test_criterion_7_order_identity():
    """ord_m(2) = phi(m)/2^(r-1) for the six supported moduli."""
    _check(selftest.criterion_order_identity())


def test_criterion_8_example_table():
    """Table rows reproduce the frozen counts; blank cells get filled."""
    _check(selftest.criterion_example_table())


def test_criterion_9_property_suite():
    """Hat idempotency, ring axioms, Frobenius fixing, JSON determinism."""
    _check(selftest.criterion_properties())
