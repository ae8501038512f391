import pytest

from oracles import (aut_count_symbolic, brute_force_counts_by_dicts,
                     bundle_le, bundle_sweep_triples, exponent_gap, ext_dim,
                     hom_dim, product_identity_sides,
                     product_side_expansion_by_copies)
from qtnabla import bundles
from qtnabla.scalar import ONE, Q, T, q_factorial
from qtnabla.bundles import (
    aut_count, aut_exponent, brute_force_counts,
    bundle_side_series, nilp_count, nilp_exponent, product_side_expansion,
    verify_bundle_counts, verify_bundle_series, verify_product_identity,
)
from qtnabla.labels import iter_sorted_triples, mu_partition


def test_hom_dim_examples():
    assert hom_dim((0, 1, 1), (0, 1, 1)) == 1
    assert hom_dim((0, 1, 1), (1, 1, 1)) == 2
    assert hom_dim((1, 1, 1), (0, 1, 1)) == 0
    assert hom_dim((0, 1, 2), (0, 2, 1)) == 0  # one flag drop each way


def test_hom_nonzero_implies_le():
    rng = range(-2, 3)
    labels = range(1, 4)
    for src in ((m, a, b) for m in rng for a in labels for b in labels):
        for dst in ((m, a, b) for m in rng for a in labels for b in labels):
            if hom_dim(src, dst) > 0:
                assert bundle_le(src, dst)


def test_bundle_order():
    assert bundle_le((0, 2, 1), (0, 1, 1))
    assert not bundle_le((0, 1, 1), (0, 2, 1))
    assert bundle_le((0, 5, 5), (1, 1, 1))
    assert bundle_le((0, 1, 1), (0, 1, 1))


def test_euler_form_consistency():
    # hom - ext equals the rank-one Euler form 1 + m - m' - flag corrections
    for mp in range(-3, 4):
        for m in range(-3, 4):
            for ap in (1, 2, 3):
                for a in (1, 2, 3):
                    for bp in (1, 2, 3):
                        for b in (1, 2, 3):
                            euler = 1 + m - mp - (ap < a) - (bp < b)
                            assert hom_dim((mp, ap, bp), (m, a, b)) - \
                                ext_dim((mp, ap, bp), (m, a, b)) == euler


def test_aut_single_bundle():
    assert aut_count((0,), (1,), (1,), q=5) == 4
    assert aut_count_symbolic((3,), (2,), (1,)) == Q - ONE


def test_aut_gl_r():
    # n equal copies: |GL_r| = q^binom(r,2) (q-1)^r [r]_q!
    for r, p in ((2, 2), (2, 3), (3, 2)):
        got = aut_count((0,) * r, (1,) * r, (1,) * r, q=p)
        order = 1
        for i in range(r):
            order *= p ** r - p ** i
        assert got == order
    sym = aut_count_symbolic((0, 0), (1, 1), (1, 1))
    assert sym == (Q - 1) ** 2 * q_factorial(2) * Q


def test_nilp_formula_values():
    assert nilp_count((2,), (1,), (1,), 3, q=7) == 1
    # k = 0, two equal copies over F_2: the four nilpotent 2x2 matrices
    assert nilp_count((0, 0), (1, 1), (1, 1), 0, q=2) == 4


def test_qdegree_bookkeeping_identity():
    # k + max(1-k+c, 0) - (1+c) = max(k-1-c, 0) for c >= -1
    for c in range(-1, 7):
        for k in range(0, 5):
            assert k + max(1 - k + c, 0) - (1 + c) == max(k - 1 - c, 0)


def _counts_at(m, a, b, p, k):
    """(|Aut|, |Nilp_k|) over F_p, with the vanishing points 1..k."""
    auts, nilps = brute_force_counts(m, a, b, p, list(range(1, k + 1)))
    return auts, nilps[k]


def test_brute_force_gl2():
    auts, nilps = _counts_at((0, 0), (1, 1), (1, 1), 2, 0)
    assert auts == 6  # |GL_2(F_2)|
    assert nilps == 4


def test_brute_force_single_bundle():
    for p in (2, 3):
        for k in (0, 1):
            auts, nilps = _counts_at((1,), (1,), (1,), p, k)
            assert auts == p - 1
            assert nilps == 1


def test_brute_force_mixed_degrees():
    auts, nilps = _counts_at((1, 0), (1, 1), (1, 1), 2, 0)
    assert auts == aut_count((1, 0), (1, 1), (1, 1), q=2)
    assert nilps == nilp_count((1, 0), (1, 1), (1, 1), 0, q=2)
    auts, nilps = _counts_at((1, 0), (1, 1), (1, 1), 3, 1)
    assert auts == aut_count((1, 0), (1, 1), (1, 1), q=3)
    assert nilps == nilp_count((1, 0), (1, 1), (1, 1), 1, q=3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tabulated_oracle_matches_dict_oracle(p):
    # every triple of the (2, 2, 2) counts sweep, all of rank <= 2 and
    # within each cap, at every k < p: the one walk's nilps[k] against a
    # walk of its own over the first k points
    points = list(range(1, p))
    for m, a, b in bundle_sweep_triples(2, 2, 2):
        auts, nilps = brute_force_counts(m, a, b, p, points)
        assert len(nilps) == p
        for k in range(p):
            assert (auts, nilps[k]) == brute_force_counts_by_dicts(
                m, a, b, p, k, points[:k]), (m, a, b, k)


def test_oracle_rejects_a_point_at_zero():
    for p, points in ((2, [2]), (3, [1, 3]), (5, [0])):
        with pytest.raises(ValueError,
                           match="^vanishing points must avoid 0 and infinity$"):
            brute_force_counts((1,), (1,), (1,), p, points)


def test_oracle_asserts_a_constant_determinant(monkeypatch):
    # L_1 -> L_2 has no map (it must vanish at 0 and have degree 0); let it
    # have degree up to 1, and some determinants a d - b (e + f z) have a
    # z term
    import qtnabla.bundles as bundles
    real = bundles._hom_window
    monkeypatch.setattr(bundles, "_hom_window", lambda src, dst: range(0, 2)
                        if (src, dst) == ((0, 1, 1), (0, 2, 1))
                        else real(src, dst))
    with pytest.raises(AssertionError,
                       match=r"^endomorphism determinant is not constant$"):
        brute_force_counts((0, 0), (1, 2), (1, 1), 2, [])


def test_dimension_cap():
    with pytest.raises(ValueError):
        brute_force_counts((14, 0), (1, 1), (1, 1), 2, [])
    with pytest.raises(ValueError):
        brute_force_counts((8, 0), (1, 1), (1, 1), 3, [])


def test_counts_sweep_checks_the_cap_before_any_oracle_work(monkeypatch):
    import qtnabla.bundles as bundles
    calls = []
    real = bundles._det_mod
    monkeypatch.setattr(bundles, "_det_mod",
                        lambda *args: calls.append(args) or real(*args))
    # m = (7, 0) is the only triple over the F_3 cap, and the sweep reaches
    # it after eight rank-1 and sixteen rank-2 triples that fit
    with pytest.raises(ValueError,
                       match=r"^endomorphism dimension 10 over F_3 exceeds the cap$"):
        verify_bundle_counts(2, 7, 1, (3,), (0,))
    assert calls == []
    # a sweep inside the cap does reach the oracle
    assert verify_bundle_counts(2, 2, 1, (3,), (0,))["ok"]
    assert calls


@pytest.mark.parametrize("nmax, mmax, lmax",
                         [(2, 2, 2), (3, 1, 2), (2, 3, 3), (3, 2, 2)])
def test_counts_sweep_walks_the_triples_of_the_sorting_route(
        nmax, mmax, lmax, monkeypatch):
    import qtnabla.bundles as bundles
    walked = []

    def formula(m, a, b, p, points):
        walked.append((m, a, b))
        return aut_count(m, a, b, q=p), [nilp_count(m, a, b, k, q=p)
                                         for k in range(len(points) + 1)]

    monkeypatch.setattr(bundles, "brute_force_counts", formula)
    report = verify_bundle_counts(nmax, mmax, lmax, (2,), (0,))
    expected = bundle_sweep_triples(nmax, mmax, lmax)
    assert report["ok"] and report["cases"] == len(walked)
    assert len(set(walked)) == len(walked) == len(expected)
    assert set(walked) == set(expected)


def test_counts_sweep_walks_each_triple_once_per_prime(monkeypatch):
    import qtnabla.bundles as bundles
    calls = []
    real = bundles.brute_force_counts
    monkeypatch.setattr(bundles, "brute_force_counts",
                        lambda *args: calls.append(args) or real(*args))
    # k = 2 has no case over F_2, so F_2 walks with the point 1 only
    report = verify_bundle_counts(2, 1, 2, (2, 3), (0, 1, 2))
    triples = [args[:3] for args in calls[::2]]
    assert set(triples) == set(bundle_sweep_triples(2, 1, 2))
    assert calls == [(*t, p, points) for t in triples
                     for p, points in ((2, [1]), (3, [1, 2]))]
    assert report["ok"], report["failures"]
    assert report["cases"] == 5 * len(triples)


def test_counts_sweep_small():
    report = verify_bundle_counts(2, 1, 2, (2, 3), (0, 1))
    assert report["ok"], report["failures"]
    assert report["cases"] > 0


def test_bundle_series_single_rank():
    # n = 1: t^m x_a y_b / (q - 1), matching nabla^k h_1 scaled
    series = bundle_side_series(1, 2, 1, 2)
    ts = series.series(((1,), (1,)))
    expected = (ONE / ((Q - 1) * (ONE - T))).t_expand(2)
    assert ts == expected


def test_bundle_series_matches_omega():
    for n in (1, 2):
        for k in (1, 2):
            rep = verify_bundle_series(n, k, 2, 3)
            assert rep["equal"], rep["first_discrepancy"]


def test_verify_bundle_series_rejects_k_zero():
    with pytest.raises(ValueError, match="k must be positive"):
        verify_bundle_series(2, 0, 2, 3)


def test_exponent_gap_is_nilp_minus_aut():
    """Over every triple the bundle series of the tests and the CLI reach:
    ranks up to 3, labels up to 3, |m| up to 4, and k = 0 (the product
    identity) up to 2."""
    for n in (1, 2, 3):
        for d in range(5):
            for m, a, b in iter_sorted_triples(n, 3, d):
                mu = mu_partition(zip(m, a, b))
                for k in (0, 1, 2):
                    assert exponent_gap(m, a, b, k, mu) == \
                        nilp_exponent(m, a, b, k) - aut_exponent(m, a, b)


def test_layered_product_matches_the_copying_route():
    for max_total in range(4):
        for N in (1, 2, 3):
            for t_degree in range(5):
                for q_degree in range(5):
                    args = (max_total, N, t_degree, q_degree)
                    assert product_side_expansion(*args) == \
                        product_side_expansion_by_copies(*args), args


def test_product_identity_sides_match_the_dict_route(monkeypatch):
    """The two series that verify_product_identity compares, each equal to
    the one the integer dicts give; a passing report carries only equal, so
    a key dropped from both sides would pass unseen."""
    sides = []

    def record(lhs, rhs, /, **params):
        sides.append((lhs, rhs))
        return real(lhs, rhs, **params)

    real = bundles.compare
    monkeypatch.setattr(bundles, "compare", record)
    for args in ((1, 1, 1, 0), (2, 2, 2, 3), (3, 3, 3, 4), (3, 2, 4, 5)):
        sides.clear()
        assert verify_product_identity(*args)["equal"], args
        (lhs, rhs), = sides
        want_lhs, want_rhs = product_identity_sides(*args)
        assert lhs == want_lhs, args
        assert rhs == want_rhs, args
        assert lhs.table, args


def test_product_identity_degree2():
    rep = verify_product_identity(2, 2, 2, 3)
    assert rep["equal"], rep["first_discrepancy"]
