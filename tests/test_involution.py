import pytest

from oracles import d_k_table, in_vanset, movable, move, sigma_ranks
from qtnabla.involution import (
    VanQuadruple, _landing, canonical_fixed_point, d_k_rev, enumerate_van,
    iota, t_diagram, verify_vanishing,
)

# the worked quadruple: l = 2, columns (a | m | b)
ANK = VanQuadruple(2, (3, 2, 1, 1, 2, 4), (3, 1, 0, 0, 0, 0), (1, 3, 2, 4, 1, 5))


def test_ank_membership():
    assert in_vanset(ANK, 2)
    assert not in_vanset(VanQuadruple(1, ANK.a, ANK.m, ANK.b), 2)


def test_d2_pairwise_matrix():
    expected = [
        [1, 0, -1, -1, -1, -1],
        [-1, 1, 2, 1, 2, 1],
        [-2, 1, 1, 2, 1, 2],
        [-2, 0, 1, 1, 1, 2],
        [-2, 1, 2, 2, 1, 2],
        [-2, 0, 1, 1, 1, 1],
    ]
    assert d_k_table(ANK.m, ANK.b, 2) == expected
    assert d_k_rev(ANK.m, ANK.b, 2) == 16


def test_d_k_rev_trivial():
    assert d_k_rev((0,), (1,), 5) == 0


def test_sigma_ranks_worked_example():
    assert sigma_ranks(ANK) == (5, 3, 1, 2, 4, 6)


def test_movability_worked_example():
    # i = 3 falls out of the set (m_3 = 0 cannot cross left)
    assert not movable(ANK, 3, 2)
    with pytest.raises(ValueError):
        move(ANK, 3, 2)
    # i = 4, 2, 5 blocked by positive pairwise entries against earlier ranks
    for i in (4, 2, 5):
        assert not movable(ANK, i, 2)
    assert movable(ANK, 1, 2)


def test_iota_worked_example():
    out = iota(ANK, 2)
    assert out == VanQuadruple(1, (2, 1, 1, 2, 3, 4), (1, 0, 0, 0, 3, 0),
                               (3, 2, 4, 1, 1, 5))
    assert iota(out, 2) == ANK


def test_enumerate_contains_worked_example():
    # scan the l = 2 slice of the n = 6 stream
    found = any(q == ANK for q in enumerate_van(6, 2, 4, 5, l_values=(2,)))
    assert found


def test_enumerate_slices_partition_the_stream():
    full = list(enumerate_van(3, 1, 2, 2))
    sliced = []
    for l in range(4):
        part = list(enumerate_van(3, 1, 2, 2, l_values=(l,)))
        assert all(q.l == l for q in part)
        sliced += part
    assert sliced == full


def test_enumerate_n1():
    quads = list(enumerate_van(1, 1, 0, 2))
    assert quads == [VanQuadruple(0, (a,), (0,), (b,))
                     for a in (1, 2) for b in (1, 2)]


def test_enumerate_matches_bruteforce_n2():
    from itertools import product
    n, k, D, N = 2, 1, 1, 2
    got = set(enumerate_van(n, k, D, N))
    brute = set()
    for l in range(n + 1):
        for a in product(range(1, N + 1), repeat=n):
            for m in product(range(D + 1), repeat=n):
                if sum(m) > D:
                    continue
                for b in product(range(1, N + 1), repeat=n):
                    quad = VanQuadruple(l, a, m, b)
                    if in_vanset(quad, k):
                        brute.add(quad)
    assert got == brute


def test_involution_sweep():
    for n in (2, 3):
        for k in (1, 2):
            for quad in enumerate_van(n, k, 3, 3):
                image = iota(quad, k)
                assert iota(image, k) == quad, quad
                if image != quad:
                    assert sum(image.m) == sum(quad.m)
                    assert d_k_rev(image.m, image.b, k) == d_k_rev(quad.m, quad.b, k)
                    assert (-1) ** image.l == -((-1) ** quad.l)


def test_one_pass_iota_matches_the_rescanning_route():
    """The walk, iota, movable and the move against the retired route that
    rebuilt sigma and the pairwise table per column and rescanned the
    prefix for attacks: list equality of the walk, order included, and
    equality for every quadruple and column."""
    from oracles import (enumerate_van_by_rescan, iota_by_rescan,
                         movable_by_rescan, move_by_scan)
    for n, k, D, N in ONE_PASS_GRID:
        quads = list(enumerate_van(n, k, D, N))
        assert quads == list(enumerate_van_by_rescan(n, k, D, N)), (n, k, D, N)
        for quad in quads:
            assert iota(quad, k) == iota_by_rescan(quad, k), quad
            for i in range(1, n + 1):
                assert movable(quad, i, k) == movable_by_rescan(quad, i, k)
                assert move(quad, i) == move_by_scan(quad, i), (quad, i)


ONE_PASS_GRID = [(n, k, D, N) for n in (1, 2, 3) for k in (1, 2)
                 for D in (0, 2, 4) for N in (1, 2, 3)] + [(4, 1, 2, 2)]


def test_column_iota_matches_the_table_route():
    """iota on column tuples against the retired route that built sigma,
    the pairwise table and every candidate move, and reran the set test on
    each move, over the grid of the one-pass test."""
    from oracles import iota_by_table
    for n, k, D, N in ONE_PASS_GRID:
        for quad in enumerate_van(n, k, D, N):
            assert iota(quad, k) == iota_by_table(quad, k), (quad, k)


def test_landing_matches_the_set_test():
    """The O(n) landing test is the set test of the move, for every column
    of every quadruple at n <= 3, and lands on the move itself."""
    from oracles import move_unchecked
    for n, k, D, N in ONE_PASS_GRID:
        if n > 3:
            continue
        for quad in enumerate_van(n, k, D, N):
            cols = quad.columns()
            for i in range(n):
                moved = move_unchecked(quad, i + 1)
                expected = moved if in_vanset(moved, k) else None
                assert _landing(cols, quad.l, i, k) == expected, (quad, i)


def test_quadruple_is_a_value():
    quad = VanQuadruple(1, (2, 1), (1, 0), (1, 2))
    assert quad == VanQuadruple(1, (2, 1), (1, 0), (1, 2))
    assert quad != VanQuadruple(0, (2, 1), (1, 0), (1, 2))
    assert quad != (1, (2, 1), (1, 0), (1, 2))
    assert hash(quad) == hash(VanQuadruple(1, (2, 1), (1, 0), (1, 2)))
    assert len({quad, VanQuadruple(1, (2, 1), (1, 0), (1, 2))}) == 1
    assert str(quad) == repr(quad) == \
        "VanQuadruple(l=1, a=(2, 1), m=(1, 0), b=(1, 2))"


def test_t_diagram_worked_example():
    quad = VanQuadruple(0, (2, 2, 1, 2, 1, 3, 1), (1, 0, 0, 1, 2, 1, 0),
                        (1, 1, 3, 2, 3, 1, 1))
    assert t_diagram(quad) == (
        ((2, 3), (0, 1), (0, 3)),
        ((1, 1), (1, 2), (0, 1)),
        ((1, 1),),
    )


def test_t_diagram_shape_and_invariance():
    assert [len(r) for r in t_diagram(ANK)] == [2, 2, 1, 1]
    # independent of l and of the ordering: compare against the moved form
    assert t_diagram(iota(ANK, 2)) == t_diagram(ANK)


def test_canonical_fixed_point():
    quad = canonical_fixed_point((2, 1), 2)
    assert quad == VanQuadruple(0, (1, 1, 2), (0, 0, 2), (1, 2, 1))
    assert in_vanset(quad, 2)
    assert iota(quad, 2) == quad


def test_fixed_point_weights_by_shape():
    # lambda = (2): weight q^k; lambda = (1^n): weight t^{k binom(n,2)}
    from qtnabla.macdonald import nstat
    for k in (1, 2):
        quad = canonical_fixed_point((2,), k)
        assert d_k_rev(quad.m, quad.b, k) == k * nstat((1, 1))
        assert sum(quad.m) == 0
        col = canonical_fixed_point((1, 1, 1), k)
        assert sum(col.m) == k * nstat((1, 1, 1))
        assert d_k_rev(col.m, col.b, k) == 0


def test_verify_vanishing_small():
    rep = verify_vanishing(2, 1, 3, 2)
    assert rep["ok"], rep["failures"]
    rep = verify_vanishing(2, 2, 3, 2)
    assert rep["ok"], rep["failures"]
    rep = verify_vanishing(3, 1, 3, 3)
    assert rep["ok"], rep["failures"]


def test_verify_vanishing_builds_no_signed_side_at_degree_zero(monkeypatch):
    """At D = 0 no t-degree is left to compare the signed sum at, so neither
    signed side is built; the report is the fixed-point census alone."""
    import qtnabla.involution as involution

    def never(*args):
        raise AssertionError("a signed side was built at D = 0")
    monkeypatch.setattr(involution, "signed_quadruple_series", never)
    monkeypatch.setattr(involution, "macdonald_substituted_series", never)
    assert verify_vanishing(2, 1, 0, 2) == {
        "n": 2, "k": 1, "D": 0, "N": 2, "ok": True, "failures": [],
        "fixed_points": [{"lambda": [1, 1], "mu": [1, 1], "count": 2},
                         {"lambda": [2], "mu": [1, 1], "count": 2}],
        "equal": True}


def test_verify_vanishing_census_contents():
    rep = verify_vanishing(2, 1, 2, 2)
    assert rep["ok"], rep["failures"]
    pairs = {(tuple(e["lambda"]), tuple(e["mu"])): e["count"]
             for e in rep["fixed_points"]}
    # both conjugate shapes appear, once per admissible label multiset (N = 2)
    assert pairs[((2,), (1, 1))] == 2
    assert pairs[((1, 1), (2,))] == 2
    # dominance rules out the reversed shapes entirely
    assert ((2,), (2,)) not in pairs
