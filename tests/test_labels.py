from itertools import combinations, groupby, product
from math import factorial, prod

import pytest

import oracles
from oracles import sort_columns, sort_triple
from qtnabla.scalar import ONE, Q, QtScalar, q_factorial, q_multinomial
from qtnabla.labels import (
    DyckPath, _sorted_m_vectors, all_dyck_paths, alpha_composition,
    attack_path, chromatic, compositions, dinv_k, inv_pi,
    is_sorted_triple, iter_sorted_pairs,
    iter_sorted_triples, mu_partition, verify_xi, xi_pi,
)
from qtnabla.symfunc import Poly


def test_sort_columns_worked_example():
    got = sort_columns((1, 2, 1, 1, 2, 1), (3, 2, 3, 1, 1, 3))
    assert got == ((1, 1, 1, 1, 2, 2), (1, 3, 3, 3, 1, 2))


def test_sort_columns_idempotent():
    sorted_pair = ((1, 1, 1, 1, 2, 2), (1, 3, 3, 3, 1, 2))
    assert sort_columns(*sorted_pair) == sorted_pair


def test_sort_triple_worked_example():
    got = sort_triple((1, 0, 1, 0), (2, 1, 1, 1), (1, 2, 2, 1))
    assert got == ((1, 1, 0, 0), (1, 2, 1, 1), (2, 1, 1, 2))


def test_sortedness_agrees_with_sorting():
    """is_sorted_triple compares adjacent columns; a column sequence is
    sorted exactly when sorting leaves it unchanged, and a pair (m, a)
    exactly when the triple with b constant is."""
    for n in range(5):
        for m, a in product(product(range(3), repeat=n), repeat=2):
            rows = sorted(zip(m, a), key=lambda r: (-r[0], r[1]))
            assert is_sorted_triple(m, a, (1,) * n) == \
                (rows == list(zip(m, a)))
            for b in product(range(2), repeat=n):
                assert is_sorted_triple(m, a, b) == \
                    (sort_triple(m, a, b) == (m, a, b)), (m, a, b)
    with pytest.raises(ValueError):
        is_sorted_triple((1, 0), (1,), (1, 1))


def test_sorted_pair_rejects_unequal_lengths():
    # the common prefix ((2,), (1,)) is sorted; the lengths still differ
    with pytest.raises(ValueError, match="equal length"):
        attack_path((2, 1), (1,), 1)
    with pytest.raises(ValueError, match="equal length"):
        attack_path((), (1,), 1)


def test_alpha_mu_worked_example():
    a = (1, 1, 1, 4, 4, 2, 1, 4)
    assert alpha_composition(a) == (4, 1, 3)
    assert mu_partition(a) == (4, 3, 1)
    assert alpha_composition((3, 1, 4, 2)) == (1, 1, 1, 1)


def test_alpha_on_column_pairs():
    # alpha(a, b) of the sorted worked example is (1, 3, 1, 1)
    cols = list(zip((1, 1, 1, 1, 2, 2), (1, 3, 3, 3, 1, 2)))
    assert alpha_composition(cols) == (1, 3, 1, 1)


def test_dinv_paper_example():
    assert dinv_k((2, 1, 0, 0), (2, 3, 1, 1), (1, 2, 1, 1), 1) == 2


def test_dinv_small_cases():
    assert dinv_k((0,), (1,), (1,), 3) == 0
    assert dinv_k((0, 0), (1, 1), (1, 1), 2) == 1


def test_dinv_requires_sorted():
    with pytest.raises(ValueError):
        dinv_k((0, 1), (1, 1), (1, 1), 1)
    with pytest.raises(ValueError):
        dinv_k((0, 0), (2, 1), (1, 1), 1)
    with pytest.raises(ValueError, match="pair is not sorted"):
        attack_path((0, 0), (2, 1), 1)


def test_attack_path_figure_example():
    m = (3, 3, 3, 2, 0, 0)
    a = (1, 1, 5, 4, 2, 5)
    path = attack_path(m, a, 2)
    assert path.dset == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)})
    assert path.area_sequence == (0, 1, 2, 3, 1, 1)


def test_attack_path_constant_m():
    # constant m with k = 1: every pair attacks
    path = attack_path((2, 2, 2), (1, 2, 3), 1)
    assert len(path.dset) == 3
    assert path.area_sequence == (0, 1, 2)


def test_attack_path_large_gaps_empty():
    path = attack_path((4, 2, 0), (1, 1, 1), 1)
    assert path.dset == frozenset()
    assert path.area_sequence == (0, 0, 0)


def test_invalid_dset_rejected():
    with pytest.raises(AssertionError):
        DyckPath(3, {(1, 3)})  # row 3 not anchored at column 2
    with pytest.raises(AssertionError):
        DyckPath(2, {(1, 2), (2, 2)})


def test_inv_pi():
    m = (3, 3, 3, 2, 0, 0)
    a = (1, 1, 5, 4, 2, 5)
    path = attack_path(m, a, 2)
    assert inv_pi(path, (1, 1, 1, 1, 1, 1)) == 0
    # b = (2,1,1,1,1,1): inversions at (1,2), (1,3), (1,4)
    assert inv_pi(path, (2, 1, 1, 1, 1, 1)) == 3


def test_dinv_decomposes_paper_example():
    m, a, b = (2, 1, 0, 0), (2, 3, 1, 1), (1, 2, 1, 1)
    path = attack_path(m, a, 1)
    assert path.dset == frozenset({(2, 3), (2, 4), (3, 4)})
    assert inv_pi(path, b) == 2
    ones = (1,) * len(m)  # the pair statistic: the triple with b constant
    assert dinv_k(m, a, ones, 1) == 0
    assert dinv_k(m, a, b, 1) == dinv_k(m, a, ones, 1) + inv_pi(path, b)


def test_dinv_decomposition_sweep():
    # dinv_k(m,a,b) = dinv_k(m,a) + inv_{pi_k(m,a)}(b) on the spec's range
    for n in (2, 3, 4, 5):
        for d in range(0, 5 - n + 2):
            for m, a, b in iter_sorted_triples(n, 3, d):
                for k in (1, 2):
                    path = attack_path(m, a, k)
                    assert dinv_k(m, a, b, k) == \
                        dinv_k(m, a, (1,) * n, k) + inv_pi(path, b)


def test_dinv_respects_standardization():
    from qtnabla.affine import standardize
    for n in (2, 3, 4):
        for d in range(0, 3):
            for m, a, b in iter_sorted_triples(n, 3, d):
                sa, sb = standardize(a, "<"), standardize(b, "<")
                for k in (1, 2):
                    assert dinv_k(m, sa, sb, k) == dinv_k(m, a, b, k)


def test_xi_empty_path():
    path = DyckPath(2, set())
    xi = xi_pi(path, 2)
    # (y1 + y2)^2
    expected = Poly(0, 2, {((), (2, 0)): ONE, ((), (0, 2)): ONE,
                           ((), (1, 1)): QtScalar.from_int(2)})
    assert xi == expected


def test_xi_single_vertex():
    path = DyckPath(1, set())
    assert xi_pi(path, 3) == chromatic(path, 3)
    assert xi_pi(path, 3) == Poly(0, 3, {((), (1, 0, 0)): ONE,
                                         ((), (0, 1, 0)): ONE,
                                         ((), (0, 0, 1)): ONE})


def test_chromatic_full_path_n2():
    path = DyckPath(2, {(1, 2)})
    krom = chromatic(path, 2)
    assert krom == Poly(0, 2, {((), (1, 1)): ONE + Q})


def test_label_sums_match_per_term_route():
    # counted in integers, bit for bit the words added one monomial at a time
    for n in range(1, 5):
        for path in all_dyck_paths(n):
            for N in range(1, n + 2):
                assert xi_pi(path, N) == oracles.label_sum_per_term(
                    path, N, False), (path, N)
                assert chromatic(path, N) == oracles.label_sum_per_term(
                    path, N, True), (path, N)


def test_label_sums_match_the_word_loop_at_n5():
    """The F-route against the word loop it replaced; at N = 2 < n the
    descent sets with |D| >= N have no monomials."""
    for path in all_dyck_paths(5):
        for N in (2, 5):
            for proper, route in ((False, xi_pi), (True, chromatic)):
                assert route(path, N) == oracles.label_sum_by_words(
                    path, N, proper), (path, N, proper)


def test_dyck_dsets_hold_every_nested_pair():
    # chromatic makes a label strict only where j and j+1 sit on a pair;
    # this closure is what makes that enough for every pair
    for n in range(1, 8):
        for path in all_dyck_paths(n):
            for i, j in path.dset:
                for u, v in combinations(range(i, j + 1), 2):
                    assert (u, v) in path.dset, (path, (i, j), (u, v))


def test_label_sums_closed_forms():
    """Sizes the word loop cannot reach: with no pairs both sums are
    (y_1 + ... + y_N)^n, the full path's xi is the q-multinomial, and its
    chromatic function is [n]_q! on the squarefree monomials only."""
    for n in range(1, 8):
        empty = DyckPath(n, ())
        full = DyckPath(n, combinations(range(1, n + 1), 2))
        for N in sorted({1, 2, n, n + 1}):
            alphas = list(compositions(n, N))
            words = Poly(0, N, {((), alpha): QtScalar.from_int(
                factorial(n) // prod(factorial(c) for c in alpha))
                for alpha in alphas})
            assert xi_pi(empty, N) == words, (n, N)
            assert chromatic(empty, N) == words, (n, N)
            assert xi_pi(full, N) == Poly(0, N, {
                ((), alpha): QtScalar({(i, 0): c for i, c
                                      in q_multinomial(alpha).items()})
                for alpha in alphas}), (n, N)
            assert chromatic(full, N) == Poly(0, N, {
                ((), alpha): q_factorial(n) for alpha in alphas
                if max(alpha) == 1}), (n, N)  # none when N < n


def test_xi_chromatic_identity():
    # xi_pi[Y; q] = (1-q)^n omega X_pi[Y/(1-q); q] over all Catalan(n) paths
    for n, catalan in zip(range(1, 5), (1, 2, 5, 14)):
        rep = verify_xi(n)
        assert rep["ok"] and rep["paths"] == catalan, rep["failure"]


def test_iter_sorted_triples_completeness():
    # every sorted triple with the right degree appears exactly once
    n, N, d = 3, 2, 2
    got = set(iter_sorted_triples(n, N, d))
    brute = set()
    for m in product(range(d + 1), repeat=n):
        if sum(m) != d:
            continue
        for a in product(range(1, N + 1), repeat=n):
            for b in product(range(1, N + 1), repeat=n):
                brute.add(sort_triple(m, a, b))
    assert got == brute
    for m, a, b in got:
        assert is_sorted_triple(m, a, b)


def test_sorted_m_vectors_cost_follows_the_output():
    # a walk over all partitions of the total would never finish here
    assert _sorted_m_vectors(1, 200) == [(200,)]
    assert _sorted_m_vectors(2, 200) == [(200 - v, v) for v in range(101)]
    assert _sorted_m_vectors(3, 200, 2) == []
    assert _sorted_m_vectors(3, 5, 2) == [(2, 2, 1)]


def test_sorted_m_vectors_match_the_filtered_product():
    """Every entry bound up to 4 against the weakly decreasing words of one
    product per n, each bound and sum in descending lexicographic order."""
    for n in range(6):
        by_sum = {}
        for word in product(range(9), repeat=n):
            if sum(word) <= 8 and all(u >= v for u, v in zip(word, word[1:])):
                by_sum.setdefault(sum(word), []).append(word)
        for total in range(9):
            for biggest in range(5):
                kept = [m for m in by_sum.get(total, [])
                        if all(v <= biggest for v in m)]
                assert _sorted_m_vectors(n, total, biggest) == kept[::-1], \
                    (n, total, biggest)


def test_compositions_and_runs_match_filtered_products():
    # one product per n, split by sum, keeps the lexicographic order
    for n in range(7):
        by_sum = {}
        for word in product(range(11), repeat=n):
            total = sum(word)
            if total <= 10:
                by_sum.setdefault(total, []).append(word)
        for total in range(11):
            words = by_sum.get(total, [])
            assert list(compositions(total, n)) == words, (n, total)
            decreasing = [m for m in words
                          if all(u >= v for u, v in zip(m, m[1:]))]
            assert _sorted_m_vectors(n, total) == decreasing[::-1]
            for m in decreasing:
                runs = tuple(len(list(run)) for _, run in groupby(m))
                assert alpha_composition(m)[::-1] == runs, m


def test_iter_sorted_pairs_matches_triples():
    pairs = set(iter_sorted_pairs(2, 3, 1))
    assert pairs == {(m, a) for m, a, b in iter_sorted_triples(2, 3, 1)
                     if b == (1, 1)}
