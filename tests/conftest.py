import pytest

from rgcodes import codes


@pytest.fixture(autouse=True)
def cold_member_caches():
    """Each test starts with no member record formed: a test that patches a
    size or weight formula, or the block bound, must see its patch reach the
    record and its walk, not an earlier test's entry."""
    codes._member.cache_clear()
