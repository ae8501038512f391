from itertools import product

import pytest

from oracles import cauchy_combinatorial, xy_swap
from qtnabla.scalar import ONE, Q, QtScalar, T
from qtnabla.omega import (
    fulltwist_dk, fulltwist_series, omega_series, omega_sub_y,
    omega_sub_y_via_plethysm, omega_via_xi, verify_fulltwist, verify_hilbert,
    verify_main, verify_sub_y, verify_xi_factoring,
)


def test_query_validation():
    # each of the four two-alphabet routes checks its own sizes
    for route in (omega_series, omega_via_xi, omega_sub_y,
                  omega_sub_y_via_plethysm):
        for size in ((0, 1, 1, 1), (1, -1, 1, 1)):
            with pytest.raises(ValueError,
                               match=r"^need n >= 1, k >= 0, N >= 1, D >= 0$"):
                route(*size)


def test_omega_n1():
    series = omega_series(1, 3, 2, 3)
    g = ONE / (ONE - Q)
    for xe in ((1, 0), (0, 1)):
        for ye in ((1, 0), (0, 1)):
            ts = series.series((xe, ye))
            assert all(ts[j] == g for j in range(4))


def test_omega_xy_symmetry():
    # swapping the two alphabets leaves the series invariant
    for n in (2, 3):
        for k in (1, 2):
            series = omega_series(n, k, 3, 3 if n == 3 else 4)
            assert xy_swap(series) == series


def test_omega_t_degree_weights_are_polynomial_times_unit():
    series = omega_series(2, 1, 2, 2)
    scaled = series.scale((ONE - Q) ** 2)
    for key in scaled.keys():
        for c in scaled.series(key).coeffs:
            num, den = c.q_coeff_lists()
            # denominators only from aut_q factors: evaluate at q=1 is nonzero
            assert sum(den) != 0


def test_via_xi_matches_direct():
    for n in (1, 2, 3):
        for k in (1, 2):
            rep = verify_xi_factoring(n, k, 3, 4)
            assert rep["equal"], rep["first_discrepancy"]


def test_via_xi_single_orbit_slice():
    # one (m, a) orbit contributes t^{|m|} q^{dinv} X_a xi(Y)/aut
    from oracles import aut_q_of
    from qtnabla.labels import attack_path, xi_pi
    n, k, N = 2, 1, 2
    m, a = (1, 0), (2, 1)
    path = attack_path(m, a, k)
    from qtnabla.labels import iter_sorted_triples, dinv_k
    base = QtScalar.monomial(q=dinv_k(m, a, (1,) * n, k))
    xi = xi_pi(path, N)
    # direct regrouping of omega_series terms with that (m, a)
    for (_, ye), c in xi.terms.items():
        acc = QtScalar.from_int(0)
        for mm, aa, bb in iter_sorted_triples(n, N, sum(m)):
            if (mm, aa) != (m, a):
                continue
            if tuple(bb.count(v) for v in range(1, N + 1)) != ye:
                continue
            acc = acc + QtScalar.monomial(q=dinv_k(mm, aa, bb, k)) / aut_q_of(mm, aa, bb)
        assert acc == base * c / aut_q_of(m, a)


def test_sub_y_matches_plethysm_route():
    for n in (1, 2, 3):
        for k in (1, 2):
            rep = verify_sub_y(n, k, 3, 4)
            assert rep["equal"], rep["first_discrepancy"]


def test_verify_xi_factoring_rejects_k_zero():
    # at k = 0 the two routes differ, here at (2, 0, 2, 3): not a
    # counterexample to the identity, which is stated for k >= 1
    with pytest.raises(ValueError, match="k must be positive"):
        verify_xi_factoring(2, 0, 2, 3)


def test_verify_sub_y_rejects_k_zero():
    with pytest.raises(ValueError, match="k must be positive"):
        verify_sub_y(3, 0, 2, 3)


def test_sub_y_attack_constraints():
    # n = 2, k = 1, m = (0,0): constant m attacks, so b entries must differ
    series = omega_sub_y(2, 1, 2, 0)
    assert series.series(((2, 0), (2, 0))).is_zero()
    assert series.series(((2, 0), (0, 2))).is_zero()
    # a = (1,1) forces the single sorted label b = (1,2)
    assert series.series(((2, 0), (1, 1)))[0] == ONE
    # a = (1,2) leaves b free: q^0 + q^1
    assert series.series(((1, 1), (1, 1)))[0] == ONE + Q


def test_main_identity_small():
    rep = verify_main(1, 5, 1, 3)
    assert rep["equal"]
    rep = verify_main(2, 1, 2, 3)
    assert rep["equal"], rep["first_discrepancy"]


def test_cauchy_combinatorial_matches_macdonald_k0():
    from qtnabla.macdonald import cauchy_macdonald_series
    for n in (1, 2, 3):
        lhs = cauchy_macdonald_series(n, 0, 2, 4)
        rhs = cauchy_combinatorial(n, 2, 4)
        assert lhs.first_discrepancy(rhs) is None, (n, lhs.first_discrepancy(rhs))


def test_omega_k0_is_h_cauchy():
    # with dinv_0 identically zero on sorted triples, the k = 0 series is the
    # h_n Cauchy sum; check against (-1)^n h_n[-XY/((1-q)(1-t))] via plethysm
    from qtnabla.symfunc import SymFunc, plethysm
    for n in (1, 2):
        series = omega_series(n, 0, 2, 3)
        poly = plethysm(SymFunc.h(n),
                        lambda r: ONE / ((ONE - Q ** r) * (ONE - T ** r)),
                        nx=2, ny=2)
        for (xe, ye), c in poly.terms.items():
            assert series.series((xe, ye)) == c.t_expand(3), (n, xe, ye)
        assert len(series.table) == len(poly.terms)


def test_fulltwist_dk_values():
    # derived from the coefficient-extraction oracle: the equal-exponent pair
    # contributes k - 1, a gap d > 0 contributes max(k-1-d, 0) or max(k-d, 0)
    # depending on orientation
    assert fulltwist_dk((0, 0), 1) == 0
    assert fulltwist_dk((0, 0), 2) == 1
    assert fulltwist_dk((1, 0), 2) == 0
    assert fulltwist_dk((0, 1), 2) == 1
    assert fulltwist_dk((0, 2), 3) == 1
    assert fulltwist_dk((2, 0), 3) == 0


def test_fulltwist_dk_is_dinv_of_sorted_pair():
    from qtnabla.labels import dinv_k
    for n in (2, 3):
        for k in (1, 2, 3):
            for m in product(range(4), repeat=n):
                rows = sorted(zip(m, range(1, n + 1)), key=lambda r: (-r[0], r[1]))
                ms = tuple(r[0] for r in rows)
                pos = tuple(r[1] for r in rows)
                assert fulltwist_dk(m, k) == dinv_k(ms, pos, (1,) * n, k), \
                    (m, k)


def test_fulltwist_n1():
    series = fulltwist_series(1, 2, 3)
    assert series == (ONE / ((ONE - Q) * (ONE - T))).t_expand(3)


def test_fulltwist_matches_extraction():
    for n in (1, 2, 3):
        for k in (1, 2):
            rep = verify_fulltwist(n, k, 4 if n < 3 else 3)
            assert rep["equal"], (n, k, rep["first_discrepancy"])


def test_hilbert_squarefree_is_aut_free():
    # contributing triples have distinct a-entries and distinct b-entries,
    # so the (1-q)^n-scaled coefficients are polynomial in q
    series = omega_series(2, 1, 2, 3).scale((ONE - Q) ** 2)
    ts = series.series(((1, 1), (1, 1)))
    for c in ts.coeffs:
        assert c.is_polynomial()


def test_hilbert_matches_affine_series():
    for n, k in ((2, 1), (2, 2), (3, 1)):
        rep = verify_hilbert(n, k, 3)
        assert rep["equal"], (n, k, rep["first_discrepancy"])


def test_report_shape():
    rep = verify_main(1, 1, 1, 2)
    assert set(rep) >= {"n", "k", "N", "D", "lhs", "rhs", "equal",
                        "first_discrepancy"}
    assert rep["first_discrepancy"] is None
