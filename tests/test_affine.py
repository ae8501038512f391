from math import comb

import pytest

from oracles import (b_poly_degree, canonical_transposition, double_coset,
                     edges_refined, identity, is_m_stable, iter_wplus,
                     verify_paff_per_triple)
from qtnabla.scalar import ONE, Q
from qtnabla.affine import (
    AffinePermutation, _coset_max_witness, coarea_path, dimv, edges,
    left_coset_min_max, max_area, paff, raths_series, standardize, tau,
    transposition, verify_paff, wvec,
)
from qtnabla.labels import alpha_composition, compositions, iter_sorted_triples


# ---------------------------------------------------------------------------
# oracles: the routes the package used before deciding edges by w^{-1}


def _length_by_call(w):
    """Shi's pairwise inversion count, reading w through __call__."""
    n = w.n
    total = 0
    for p in range(1, n + 1):
        for pp in range(1, n + 1):
            if pp == p:
                continue
            diff = w(p) - w(pp)
            r0 = 0 if pp > p else 1
            if diff > r0 * n:
                total += (diff + n - 1) // n - r0
    return total


def _mul_by_call(u, v):
    return AffinePermutation(tuple(u(v(i)) for i in range(1, u.n + 1)))


def _edges_by_length(w, m):
    """The (a, b) of height < m with l(t_ab w) < l(w), each decided by
    forming t_ab w and counting both lengths."""
    n = w.n
    lw = _length_by_call(w)
    out = []
    for a in range(1, n + 1):
        for h in range(1, m):
            b = a + h
            if h % n == 0:
                continue
            if _length_by_call(_mul_by_call(transposition(n, a, b), w)) < lw:
                out.append((a, b))
    return out


def test_edges_match_length_oracle_on_wplus():
    # every w of W+_n with d-grade <= 3, n <= 4, every 1 <= m <= 2n + 1;
    # the oracle's decision for (a, b) does not depend on m, so it runs
    # once at the largest m and is cut by height for the smaller ones
    for n in range(1, 5):
        top = 2 * n + 1
        for w in iter_wplus(n, 3):
            assert w.length() == _length_by_call(w), w
            oracle = _edges_by_length(w, top)
            for m in range(1, top + 1):
                got = edges(w, m)
                assert got == [(a, b) for a, b in oracle if b - a < m], (w, m)


@pytest.mark.parametrize("n, k, degree, N",
                         [(2, 1, 4, 2), (3, 1, 3, 3), (3, 2, 3, 2)])
def test_edges_match_length_oracle_on_paff_images(n, k, degree, N):
    # every paff image and left-coset extreme that verify_paff reaches
    for d in range(degree + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            w = paff(m, a, b)
            for v in (w, *left_coset_min_max(w)):
                assert v.length() == _length_by_call(v), v
                assert edges(v, k * n) == _edges_by_length(v, k * n), v


def test_product_and_inverse_match_call_route():
    import random
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        ws = []
        for _ in range(2):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            ws.append(AffinePermutation(
                tuple(perm[i] + n * rng.randint(-2, 3) for i in range(n))))
        u, v = ws
        assert u * v == _mul_by_call(u, v)
        assert _mul_by_call(u, u.inverse()).window == tuple(range(1, n + 1))
        assert _mul_by_call(u.inverse(), u).window == tuple(range(1, n + 1))
        assert u.length() == _length_by_call(u)


def test_window_validation():
    with pytest.raises(ValueError):
        AffinePermutation((1, 3))  # both odd
    w = AffinePermutation((3, 2, 12, 5))
    assert w.n == 4
    assert w(5) == 7  # periodicity
    assert w(0) == 5 - 4


def test_length_basics():
    assert identity(4).length() == 0
    assert AffinePermutation((2, 1)).length() == 1
    w = AffinePermutation((3, 2, 12, 5))
    assert w.length() == w.inverse().length()


def test_length_inverse_random():
    import random
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        w = AffinePermutation(tuple(perm[i] + n * rng.randint(0, 3) for i in range(n)))
        assert w.length() == w.inverse().length()
        assert (w * w.inverse()).window == tuple(range(1, n + 1))


def test_d_grade_additive():
    u = AffinePermutation((3, 2, 12, 5))
    v = AffinePermutation((5, 2, 3, 4))
    assert (u * v).d_grade() == u.d_grade() + v.d_grade()


def test_m_stability():
    for m in (1, 2, 3, 5):
        assert is_m_stable(identity(3), m)
    # kn-stability is automatic for every positive affine permutation
    for w in iter_wplus(2, 2):
        assert is_m_stable(w, 2) and is_m_stable(w, 4)


def test_kn_restriction_is_vacuous():
    # why raths_series checks no restriction: w^{-1} is kn-stable for every
    # w of W+_n
    for n in range(1, 5):
        for w in iter_wplus(n, 4):
            for k in (1, 2):
                assert is_m_stable(w.inverse(), k * n), (w, k)


def test_reflection_length_dichotomy():
    w = AffinePermutation((3, 2, 12, 5))
    for a in range(1, 5):
        for b in range(a + 1, a + 6):
            if (b - a) % 4 == 0:
                continue
            t = transposition(4, a, b)
            assert (t * w).length() != w.length()


def test_edges_paper_example():
    w = AffinePermutation((3, 2, 12, 5))
    got = edges(w, 4)
    assert len(got) == 4
    results = {(transposition(4, a, b) * w).window for a, b in got}
    assert results == {(2, 3, 12, 5), (3, 2, 9, 8), (4, 2, 11, 5), (3, 4, 10, 5)}
    assert dimv(w, 4) == 6 - 4 == 2


def test_edges_identity_empty():
    assert edges(identity(4), 4) == []


def test_edges_monotone_in_m():
    w = AffinePermutation((3, 2, 12, 5))
    for m in range(1, 8):
        assert set(edges(w, m)) <= set(edges(w, m + 1))


def test_edges_refined_total():
    w = AffinePermutation((3, 2, 12, 5))
    refined = edges_refined(w, 4)
    assert sum(refined.values()) == len(edges(w, 4))


def test_max_area_closed_form():
    # validated internally against the lattice count; spot values
    assert max_area(4, 4) == 6
    assert max_area(2, 2) == 1
    assert max_area(1, 5) == 0
    assert max_area(3, 6) == 6
    for n in range(1, 9):
        for m in range(1, 9):
            max_area(n, m)  # the closed form assertion runs inside


def test_max_area_at_kn_is_k_binomial():
    # why verify_paff does not compare the leading-form degree with dimv:
    # both are k*C(n, 2) - |E_kn(w)| for every w
    for n in range(1, 9):
        for k in range(1, 4):
            assert max_area(n, k * n) == k * comb(n, 2)


def test_dimv_n1():
    for w in iter_wplus(1, 4):
        assert dimv(w, 3) == 0


def test_canonical_transposition():
    assert canonical_transposition(4, 9, 12) == (1, 4)
    assert canonical_transposition(4, 5, 2) == (2, 5) or canonical_transposition(4, 5, 2) == (1, 4)


def test_standardize_paper_pair():
    a = (3, 3, 3, 1, 2, 3, 1)
    assert standardize(a, "<") == (4, 5, 6, 1, 3, 7, 2)
    assert standardize(a, ">") == (1, 2, 3, 6, 5, 4, 7)
    assert standardize((1, 2, 5), "<") == (1, 2, 3)


def test_tau_paper_value():
    assert tau((2, 1, 0, 0)).window == (12, 7, 2, 1)


def test_paff_paper_example():
    m, a, b = (2, 1, 0, 0), (2, 3, 1, 1), (1, 2, 1, 1)
    assert standardize(a, "<") == (3, 4, 1, 2)
    assert standardize(tuple(reversed(b)), ">") == (2, 3, 1, 4)
    w = paff(m, a, b)
    assert w.window == (3, 2, 12, 5)
    assert w.d_grade() == 3


def test_paff_zero_m_full_block():
    # m = 0, constant labels: the longest element of S_n
    w = paff((0, 0, 0), (1, 1, 1), (1, 1, 1))
    assert w.window == (3, 2, 1)


def test_paff_n1():
    assert paff((4,), (2,), (7,)).window == (5,)


def test_double_coset_paper_listing():
    w = AffinePermutation((3, 2, 12, 5))
    coset = double_coset(w, (1, 3), (2, 1, 1))
    assert {v.window for v in coset} == {
        (2, 3, 12, 5), (2, 4, 11, 5), (3, 2, 12, 5),
        (3, 4, 10, 5), (4, 2, 11, 5), (4, 3, 10, 5)}
    lw = w.length()
    assert all(v.length() < lw for v in coset if v != w)


def _is_coset_max_by_scan(w, alpha_left, alpha_right):
    """The route verify_paff used before reading descents: form the whole
    double coset and compare lengths."""
    lw = w.length()
    return all(v == w or v.length() < lw
               for v in double_coset(w, alpha_left, alpha_right))


def _assert_witness_matches_scan(w, alpha_left, alpha_right):
    v = _coset_max_witness(w, alpha_left, alpha_right)
    assert (v is None) == _is_coset_max_by_scan(w, alpha_left, alpha_right), \
        (w, alpha_left, alpha_right)
    if v is not None:
        # a neighbour s_i w or w s_i inside the coset, one longer than w
        assert v in double_coset(w, alpha_left, alpha_right)
        assert v.length() == w.length() + 1
    return v is None


@pytest.mark.parametrize("n, k, degree, N",
                         [(2, 1, 3, 3), (3, 1, 2, 3), (3, 2, 2, 3), (4, 1, 3, 2)])
def test_coset_max_from_descents_matches_scan_on_paff_images(n, k, degree, N):
    # every triple verify_paff reaches at these sizes, with its two blocks
    for d in range(degree + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            w = paff(m, a, b)
            beta = tuple(reversed(alpha_composition(b)))
            assert _assert_witness_matches_scan(w, beta, alpha_composition(a))


def test_coset_max_from_descents_matches_scan_on_random_windows():
    import random
    rng = random.Random(20)
    blocks = {n: [c for s in range(1, n + 1) for c in compositions(n, s)
                  if all(c)] for n in range(1, 6)}
    positive = 0
    for _ in range(4000):
        n = rng.randint(1, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        w = AffinePermutation(tuple(perm[i] + n * rng.randint(-2, 2)
                                    for i in range(n)))
        positive += _assert_witness_matches_scan(
            w, rng.choice(blocks[n]), rng.choice(blocks[n]))
    # both answers occur often enough to be tested
    assert 500 < positive < 3500


def test_trivial_coset():
    w = AffinePermutation((3, 2, 12, 5))
    assert double_coset(w, (1, 1, 1, 1), (1, 1, 1, 1)) == {w}


def test_coset_min_max_wrapper():
    from oracles import coset_min_max
    w = AffinePermutation((3, 2, 12, 5))
    assert coset_min_max(w, (1, 1, 1, 1), (1, 1, 1, 1)) == (w, w)
    wmin, wmax = coset_min_max(w, (1, 3), (2, 1, 1))
    assert wmax == w
    assert wmin.window == (3, 4, 10, 5) and wmin.length() == 4
    assert coset_min_max(w) == left_coset_min_max(w)


def test_left_coset_min_max_figure_pair():
    from qtnabla.affine import rational_area_sequence
    m = (3, 3, 3, 2, 0, 0)
    a = (1, 1, 5, 4, 2, 5)
    w = paff(m, a, (1,) * 6)
    wmin, wmax = left_coset_min_max(w)
    assert wmin.window == (19, 20, 5, 16, 21, 6)
    assert wmax.window == (24, 23, 2, 15, 22, 1)
    assert rational_area_sequence(wmin, 12) == (0, 2, 4, 4, 1, 2)
    assert rational_area_sequence(wmax, 12) == (0, 1, 2, 1, 0, 1)
    diff = tuple(x - y for x, y in zip(rational_area_sequence(wmin, 12),
                                       rational_area_sequence(wmax, 12)))
    assert diff == (0, 1, 2, 3, 1, 1)
    # the sorted edge-class vector is the coarea of the rational path
    assert coarea_path(wmin, 12) == tuple(sorted(wvec(wmin, 12)))
    assert sum(wvec(wmin, 12)) == 30 - dimv(wmin, 12)


def test_left_coset_extremes_are_extreme():
    from oracles import young_subgroup
    w = paff((1, 0), (2, 1), (1, 1))
    wmin, wmax = left_coset_min_max(w)
    lengths = {(AffinePermutation(p) * w).length() for p in young_subgroup((w.n,))}
    assert wmin.length() == min(lengths)
    assert wmax.length() == max(lengths)


def test_left_coset_extremes_read_only_the_translation_vector():
    # why verify_paff checks claim (iii) once per translation vector
    for n in range(1, 5):
        extremes = {}
        for w in iter_wplus(n, 4):
            qs = tuple((v - 1) // n for v in w.window)
            got = tuple(v.window for v in left_coset_min_max(w))
            assert extremes.setdefault(qs, got) == got, w


def test_identity_wvec_zero():
    assert wvec(identity(3), 1) == (0, 0, 0)


def test_verify_paff_sweep():
    report = verify_paff(2, 1, 3, 3)
    assert report["ok"], report["failures"]
    report = verify_paff(3, 1, 2, 3)
    assert report["ok"], report["failures"]


@pytest.mark.parametrize("n, k, degree, N",
                         [(2, 1, 3, 3), (3, 1, 2, 3), (3, 1, 3, 3),
                          (3, 2, 3, 3), (4, 1, 2, 3), (2, 3, 3, 3)])
def test_verify_paff_matches_the_per_triple_route(n, k, degree, N):
    report = verify_paff(n, k, degree, N)
    assert report["ok"] and report["triples"] > 0
    assert report == verify_paff_per_triple(n, k, degree, N)


def test_b_poly_degree_matches_dimv():
    for w in iter_wplus(2, 3):
        assert b_poly_degree(w, 1) == dimv(w, 2)
        assert b_poly_degree(w, 2) == dimv(w, 4)


def test_raths_n1():
    series = raths_series(1, 1, 3)
    expected = (ONE / ((ONE - Q) * (ONE - Q).swap_qt())).t_expand(3)
    assert series == expected
