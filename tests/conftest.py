import pytest

from rgcodes import codes


@pytest.fixture(autouse=True)
def cold_member_caches():
    """Each test starts with no member walk or residue weight formed: a test
    that patches a size formula, a dimension or the block bound must see
    its patch reach the walk and the residue code, not an earlier test's
    entry."""
    codes._member_walk.cache_clear()
    codes._residue_weight.cache_clear()
