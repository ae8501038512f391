"""Property tests of the QtScalar canonical form against sympy.cancel.

Each property runs twice: with the heuristic gcd, and with the heuristic
gcd forced to fail, so that every gcd takes the primitive-PRS fallback,
which the rest of the suite never reaches.  Inputs include negative
exponents (Laurent polynomials) and common factors built in on purpose.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qtnabla import scalar  # noqa: E402
from qtnabla.scalar import QtScalar, _pd_mul  # noqa: E402

q, t = sympy.symbols("q t")

MODES = pytest.mark.parametrize("heuristic", [True, False], ids=["heugcd", "prs"])
SETTINGS = settings(max_examples=40, deadline=None, database=None)

laurent = st.dictionaries(
    st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=3)
polynomial = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@contextmanager
def _gcd(heuristic):
    if heuristic:
        yield
        return
    with mock.patch.object(scalar, "_heugcd", lambda f, g: None):
        yield


def _expr(p):
    return sum(c * q ** i * t ** j for (i, j), c in p.items())


def _assert_canonical(s, expected):
    """s is the reduced fraction of expected: the same value, num and den
    polynomials that are coprime over ZZ, and den with a positive leading
    coefficient, which leaves one fraction per value."""
    assert all(i >= 0 and j >= 0 for p in (s.num, s.den) for (i, j) in p)
    assert s.den[max(s.den)] > 0
    num, den = _expr(s.num), _expr(s.den)
    p, r = sympy.fraction(sympy.cancel(expected))
    assert sympy.expand(num * r - den * p) == 0
    assert sympy.gcd(num, den) in (1, -1)


@MODES
@SETTINGS
@given(num=laurent, den=laurent, common=polynomial)
def test_construction_is_the_reduced_fraction(heuristic, num, den, common):
    num, den = _pd_mul(num, common), _pd_mul(den, common)
    if not den:
        return
    with _gcd(heuristic):
        s = QtScalar(num, den)
    _assert_canonical(s, _expr(num) / _expr(den))


@MODES
@SETTINGS
@given(terms=st.lists(laurent, min_size=4, max_size=4))
def test_arithmetic_is_the_reduced_fraction(heuristic, terms):
    a, b, c, d = (_expr(p) for p in terms)
    with _gcd(heuristic):
        x, y = QtScalar(*terms[:2]), QtScalar(*terms[2:])
        results = [(x + y, (a * d + b * c) / (b * d)), (x * y, a * c / (b * d)),
                   (x / y, a * d / (b * c))]
    for s, expected in results:
        _assert_canonical(s, expected)
