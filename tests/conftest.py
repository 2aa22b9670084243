import pytest

from fqzeta import analysis


@pytest.fixture
def no_held_roots():
    """Clear the root counts analysis keeps, before and after the test, so a
    test that patches analysis.count_roots_over_primes sees every count it
    asks for, and no count made under the patch reaches a later test."""
    analysis._held_roots = ((), {})
    yield
    analysis._held_roots = ((), {})
