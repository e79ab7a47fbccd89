import pytest


def _is_conjugate_into(g, k, hall):
    """Does some conjugate of k land inside hall?  Exhaustive over g."""
    if len(hall) % len(k) != 0:
        return False
    mul = g.mul
    for c in g.elements:
        cinv = g.inverse(c)
        if all(mul(mul(cinv, x), c) in hall for x in k):
            return True
    return False


@pytest.fixture
def is_conjugate_into():
    """The exhaustive conjugacy test, independent of the census's classes."""
    return _is_conjugate_into
