import os

import pytest

from pihte.model import empirical_prob

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def factors_close(a, b, rel=1e-9, abs_tol=0.0):
    """Whether two factors have the same names and, at every key either
    holds (absent is 0), |x - y| <= max(rel * max(|x|, |y|), abs_tol)."""
    if a.names != b.names:
        return False
    x, y = dict(a.items()), dict(b.items())
    return all(abs(x.get(k, 0.0) - y.get(k, 0.0))
               <= max(rel * max(abs(x.get(k, 0.0)), abs(y.get(k, 0.0))), abs_tol)
               for k in x.keys() | y.keys())


def bind(data, left, right=()):
    """The empirical table P_D(left | right), its names bound to the data's
    own `Variable`s, as `engine.brute_force_eval` binds a term."""
    return empirical_prob(data, data.variable, left, right)


@pytest.fixture
def fixture_path():
    def get(name):
        return os.path.join(FIXTURES, name)

    return get
