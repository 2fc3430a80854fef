import pytest

from monhom import gamma_chain, hodge

# the Z[S_n] tables kept for the process: a test that breaks a routine
# behind one of them must build it cold, and must not leave a broken
# table behind for the tests after it
PROCESS_CACHES = (
    gamma_chain._sym_index,
    gamma_chain._block_shuffle,
    gamma_chain._pattern_words,
    gamma_chain._pattern_action,
    gamma_chain._pattern_kernel,
    hodge.total_shuffle_operator,
    hodge._eulerian,
)


def _clear():
    for cached in PROCESS_CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def process_caches():
    """Every test starts and ends with cold caches; a test that takes the
    fixture by name gets the caches, to clear them again itself."""
    _clear()
    yield PROCESS_CACHES
    _clear()
