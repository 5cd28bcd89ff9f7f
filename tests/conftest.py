import pytest

from rgcodes import codes


@pytest.fixture(autouse=True)
def cold_member_caches():
    """Each test starts with no member walk formed, residue weights among
    them: a test that patches a size formula or the block bound must see its
    patch reach the walk, not an earlier test's entry."""
    codes._member_walk.cache_clear()
