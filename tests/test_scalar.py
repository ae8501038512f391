import random
from unittest import mock

import pytest

from oracles import RationalSum
from qtnabla import scalar
from qtnabla.scalar import (
    ONE, Q, T, ZERO, MonomialSeries, QtScalar,
    aut_q, q_bracket, q_factorial, q_multinomial,
)


def poly(terms):
    return QtScalar({k: v for k, v in terms.items() if v})


ONE_MINUS_Q = ONE - Q
ONE_MINUS_T = ONE - T


def test_normalize_cancels_common_factor():
    # (q^2 - 1) / (q - 1) -> q + 1
    s = poly({(2, 0): 1, (0, 0): -1}) / poly({(1, 0): 1, (0, 0): -1})
    assert s == Q + 1
    assert s.is_polynomial()


def test_normalize_zero():
    s = ZERO / (ONE - T)
    assert s == ZERO
    assert s.num == {}
    assert s.den == {(0, 0): 1}


def test_normalize_shared_factor_survives():
    # (1-q) / ((1-q)(1-t)) -> 1/(1-t), stored with positive-leading denominator
    s = ONE_MINUS_Q / (ONE_MINUS_Q * ONE_MINUS_T)
    assert s == ONE / ONE_MINUS_T
    assert s.num == {(0, 0): -1}
    assert s.den == {(0, 1): 1, (0, 0): -1}


def test_denominator_sign_is_normalized():
    a = ONE / (Q - 1)
    b = -ONE / (ONE - Q)
    assert a == b
    assert a.den == b.den


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QtScalar({(0, 0): 1}, {})
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _random_scalar(rng):
    def rand_poly():
        return {(rng.randrange(3), rng.randrange(3)): rng.randint(-3, 3)
                for _ in range(rng.randrange(1, 4))}
    num = rand_poly()
    den = {}
    while not any(den.values()):
        den = rand_poly()
    return QtScalar({k: v for k, v in num.items() if v}, den)


def test_field_axioms_exact():
    rng = random.Random(20240811)
    for _ in range(120):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        if not a.is_zero():
            assert a * (ONE / a) == ONE
            assert a ** -2 == ONE / (a * a)


def test_pow():
    s = (ONE - Q) ** 3
    assert s == (ONE - Q) * (ONE - Q) * (ONE - Q)
    assert (Q ** 0) == ONE
    assert (Q + T) ** 1 == Q + T


def test_q_bracket_and_factorial():
    assert q_bracket(3) == 1 + Q + Q * Q
    assert q_factorial(0) == ONE
    assert q_factorial(3) == (1 + Q) * (1 + Q + Q * Q)


def test_aut_q_from_paper_multiplicities():
    # label (1,1,1,4,4,2,1,4) has multiplicity partition (4,3,1)
    assert aut_q((4, 3, 1)) == q_factorial(4) * q_factorial(3) * q_factorial(1)


def test_q_multinomial_is_the_factorial_quotient():
    for counts in ((), (1,), (2, 1), (1, 2, 0), (3, 2, 1), (2, 2, 1, 1)):
        cofactor = QtScalar({(i, 0): v for i, v in q_multinomial(counts).items()})
        assert cofactor * aut_q(counts) == q_factorial(sum(counts))


def test_laurent_values_are_canonical():
    assert QtScalar.monomial(q=-1) == Q ** -1
    assert (QtScalar.monomial(q=-1) + ONE) / (ONE - Q) == (1 + Q) / (Q - Q * Q)
    s = QtScalar.monomial(c=3, q=-2, t=-1)
    assert (s.num, s.den) == ({(0, 0): 3}, {(2, 1): 1})
    assert s * Q ** 2 * T == 3
    assert not s.is_polynomial()
    assert QtScalar({(-1, 2): 1, (0, 0): 1}, {(0, 1): 1}) == (T * T + Q) / (Q * T)


@pytest.fixture(params=[True, False], ids=["heugcd", "prs"])
def gcd_route(request):
    """Run once with the heuristic gcd and once with it forced to fail, so
    that every gcd, in ZZ[q] and in ZZ[q][t], takes the primitive PRS."""
    if request.param:
        yield
        return
    with mock.patch.object(scalar, "_heugcd", lambda f, g: None):
        yield


def test_common_factor_with_zero_t_rows(gcd_route):
    # (q + t^2)(1 + q t^3) / ((q + t^2)(2 - q t^2)): the numerator and the
    # quotient both have zero t-rows between nonzero ones
    common = {(1, 0): 1, (0, 2): 1}
    num = scalar._pd_mul(common, {(0, 0): 1, (1, 3): 1})
    den = scalar._pd_mul(common, {(0, 0): 2, (1, 2): -1})
    s = QtScalar(num, den)
    assert s.num == {(0, 0): -1, (1, 3): -1}
    assert s.den == {(0, 0): -2, (1, 2): 1}


def test_t_free_fraction(gcd_route):
    # q^-1 (1 - q^2)(2 + q^3) / ((1 - q)(3 + q)) = (1 + q)(2 + q^3) / (q (3 + q)),
    # reduced in ZZ[q] without building rows in t
    num = scalar._pd_mul({(-1, 0): 1, (1, 0): -1}, {(0, 0): 2, (3, 0): 1})
    den = scalar._pd_mul({(0, 0): 1, (1, 0): -1}, {(0, 0): 3, (1, 0): 1})
    with mock.patch.object(scalar, "_qt_dense", side_effect=AssertionError):
        s = QtScalar(num, den)
    assert s.num == {(0, 0): 2, (1, 0): 2, (3, 0): 1, (4, 0): 1}
    assert s.den == {(1, 0): 3, (2, 0): 1}


def test_t_expand_geometric():
    s = ONE / ONE_MINUS_T
    ts = s.t_expand(3)
    assert ts.coeffs == (ONE, ONE, ONE, ONE)


def test_t_expand_even_series():
    # 1/((1-q)(1-t^2)) -> 1/(1-q) + 0 t + t^2/(1-q) + 0 t^3
    s = ONE / (ONE_MINUS_Q * (ONE - T * T))
    ts = s.t_expand(3)
    g = ONE / ONE_MINUS_Q
    assert ts.coeffs == (g, ZERO, g, ZERO)


def test_t_expand_factor_q_out():
    # q/(q-t) = 1 + t/q + t^2/q^2 + ...
    s = Q / (Q - T)
    ts = s.t_expand(2)
    assert ts.coeffs == (ONE, ONE / Q, ONE / (Q * Q))


def test_t_expand_requires_unit_denominator():
    with pytest.raises(ValueError):
        (ONE / T).t_expand(2)
    with pytest.raises(ValueError):
        (ONE / (T - T * T)).t_expand(1)


def test_t_expand_is_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        a, b = _random_scalar(rng), _random_scalar(rng)
        if a.den.get((0, 0), 0) == 0 or b.den.get((0, 0), 0) == 0:
            continue
        lhs = (a * b).t_expand(4)
        rhs = a.t_expand(4) * b.t_expand(4)
        assert lhs == rhs


def test_t_expand_inverse_pair_is_one():
    for n in (1, 2, 3):
        s = (ONE / ONE_MINUS_Q) ** n * (ONE_MINUS_Q) ** n
        assert s.t_expand(4) == ONE.t_expand(4)


def test_subs_t_inverse():
    s = ONE / (ONE - T)
    # 1/(1 - 1/t) = t/(t-1) = -t/(1-t)
    assert s.subs_t_inverse() == -T / (ONE - T)
    r = (ONE - Q * T) / (ONE - T)
    assert r.subs_t_inverse() == (T - Q) / (T - 1)


def test_swap_qt():
    s = (ONE - Q * Q) / (ONE - T)
    assert s.swap_qt() == (ONE - T * T) / (ONE - Q)


def test_qt_expand():
    s = ONE / (ONE_MINUS_Q * ONE_MINUS_T)
    exp = s.qt_expand(2, 2)
    assert all(exp[(i, j)] == 1 for i in range(3) for j in range(3))
    s2 = ONE / (Q - 1)
    exp2 = s2.qt_expand(2, 0)
    assert [exp2.get((i, 0), 0) for i in range(3)] == [-1, -1, -1]


def test_rendering_is_canonical():
    s = (Q * Q * T - Q + 1) / (ONE - T)
    assert str(s) == "(-q^2 t + q - 1)/(t - 1)"
    assert str(ZERO) == "0"
    assert str(Q + 1) == "q + 1"
    assert str(-Q) == "-q"
    assert str((Q + T) ** 2) == "q^2 + 2 q t + t^2"


def test_rational_sum_matches_direct_addition():
    rng = random.Random(99)
    terms = [( _random_scalar(rng), _random_scalar(rng)) for _ in range(30)]
    terms = [(n, d) for n, d in terms if not d.is_zero()]
    acc = RationalSum()
    direct = ZERO
    for n, d in terms:
        acc.add(n, d)
        direct = direct + n / d
    assert acc.total() == direct


def test_tseries_arithmetic():
    a = (ONE / ONE_MINUS_T).t_expand(3)
    b = (ONE - T).t_expand(3)
    assert a * b == ONE.t_expand(3)
    assert a[2] == ONE


def test_monomial_series_discrepancy():
    key = ((1, 0), (1, 0))
    a = MonomialSeries(2, 2, 1, {key: (ONE / ONE_MINUS_T).t_expand(1)})
    b = MonomialSeries(2, 2, 1, {key: (ONE + T).t_expand(1)})
    assert a == b
    c = MonomialSeries(2, 2, 1, {key: (ONE + Q * T).t_expand(1)})
    assert a != c
    assert a.first_discrepancy(c) == (key, 1, ONE, Q)


def test_compare_renders_the_sides_it_is_given():
    """With sides, the report carries each side's to_json() as lhs and rhs;
    without it, it has neither key.  The first discrepancy is the same
    either way, led by the monomial key for a MonomialSeries."""
    a, b = (ONE / ONE_MINUS_T).t_expand(2), (ONE + T).t_expand(2)
    key, other = ((1, 0), (0, 1)), ((0, 1), (1, 0))
    ma = MonomialSeries(2, 2, 1, {key: (ONE / (ONE - Q * T)).t_expand(1)})
    mb = MonomialSeries(2, 2, 1, {key: ONE.t_expand(1),
                                  other: Q.t_expand(1)})
    cases = [(a, a, None), (a, b, {"t_deg": 2, "lhs": "1", "rhs": "0"}),
             (ma, ma, None), (ma, mb, {"x_exp": [0, 1], "y_exp": [1, 0],
                                       "t_deg": 0, "lhs": "0", "rhs": "q"})]
    for lhs, rhs, disc in cases:
        plain = scalar.compare(lhs, rhs, n=1)
        assert plain == {"n": 1, "equal": disc is None,
                         "first_discrepancy": disc}
        assert scalar.compare(lhs, rhs, sides=True, n=1) == {
            **plain, "lhs": lhs.to_json(), "rhs": rhs.to_json()}
    assert scalar.compare(ma, ma, sides=True)["lhs"] == [
        {"x_exp": [1, 0], "y_exp": [0, 1], "t_deg": 0, "q_num": [1],
         "q_den": [1]},
        {"x_exp": [1, 0], "y_exp": [0, 1], "t_deg": 1, "q_num": [0, 1],
         "q_den": [1]}]


def test_compare_rejects_unequal_series_of_different_shapes():
    """Series that differ only in (nx, ny, degree) agree on their common
    part, which cannot tell them apart: compare raises rather than report
    them equal."""
    a = (ONE / ONE_MINUS_T).t_expand(2)
    with pytest.raises(AssertionError, match=r"\(None, None, 2\) and "
                       r"\(None, None, 1\)"):
        scalar.compare(a, a.truncate(1))
    table = {((1, 0), (0, 1)): a}
    with pytest.raises(AssertionError, match=r"\(2, 2, 2\) and \(3, 2, 2\)"):
        scalar.compare(MonomialSeries(2, 2, 2, table),
                       MonomialSeries(3, 2, 2, table))
    assert scalar.compare(a, a.truncate(2))["equal"]
