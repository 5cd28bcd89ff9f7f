"""One case per acceptance criterion in selftest.CRITERIA.

Each case runs the criterion, prints its single pass/fail line, and
asserts the result, so `pytest -v` and `rgcodes selftest` report the
same nine verdicts.
"""

import pytest

from rgcodes import selftest


@pytest.mark.parametrize("criterion", selftest.CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.ok, result.line()
