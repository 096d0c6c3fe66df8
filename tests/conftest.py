import sys

import pytest


@pytest.fixture
def no_digit_limit():
    """Lift CPython's 4300-digit str(int) limit for the test's own
    conversions of big values (cli.main gives the limit back when it
    returns), and restore it afterwards."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    yield
    if limit:
        sys.set_int_max_str_digits(limit)
