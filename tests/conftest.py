import threading

import pytest
from hypothesis import settings

# every property test draws the same examples on every run and keeps no
# example database; a test's own settings add its example count, deadline
# and health checks
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that ends with more live threads than it started with."""
    before = threading.enumerate()
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads still alive after the test: {', '.join(left)}")
