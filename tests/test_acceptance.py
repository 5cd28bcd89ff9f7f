"""One case per acceptance criterion in selftest.CRITERIA.

Each case runs the criterion, prints its single pass/fail line, and
asserts the result, so `pytest -v` and `rgcodes selftest` report the
same nine verdicts.
"""

import functools

import pytest

from rgcodes import idempotents, selftest
from rgcodes.arith import GroupSpec
from rgcodes.chain_ring import parse_ring


@pytest.mark.parametrize("criterion", selftest.CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.line()


def test_property_suite_clears_wrapped_caches(monkeypatch):
    """The determinism check clears the family caches even behind wrappers
    that keep __wrapped__ but have no cache_clear (bench/tracer.py's spans
    are such wrappers): the criterion passes, and afterwards the family
    cache holds only the one family it built."""
    for name in ("primitive_family", "primitive_idempotents_f2"):
        real = getattr(selftest, name)
        wrapper = functools.wraps(real)(lambda *args, _real=real: _real(*args))
        assert not hasattr(wrapper, "cache_clear")
        monkeypatch.setattr(selftest, name, wrapper)
    idempotents.primitive_family(GroupSpec((3,), (1,)), parse_ring("z4"))
    result = selftest.criterion_properties()
    assert result.ok, result.line()
    assert idempotents.primitive_family.cache_info().currsize == 1
