"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Every comparison is bit-exact: these are polynomial identities, so
the tolerance is zero throughout.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

from qtnabla.scalar import ONE, Q, T


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_main_identity():
    from qtnabla.omega import verify_main
    ok = True
    for n in (1, 2, 3):
        for k in (1, 2):
            rep = verify_main(n, k, 3, 5)
            ok = ok and rep["equal"]
    report(1, "nabla power of the Cauchy kernel equals the dinv enumerator",
           ok)


def test_criterion_2_shuffle():
    from qtnabla.shuffle import nabla_en_expansion, parking_sum
    from qtnabla.symfunc import Poly
    ok = True
    for n in (1, 2, 3, 4, 5):
        for k in (1, 2):
            ok = ok and parking_sum(n, k, n) == nabla_en_expansion(n, k, n)
    frozen = Poly(2, 0, {((2, 0), ()): ONE, ((0, 2), ()): ONE,
                         ((1, 1), ()): ONE + Q + T})
    ok = ok and parking_sum(2, 1, 2) == frozen
    report(2, "parking-function formula for nabla^k e_n, n <= 5, k <= 2", ok)


def test_criterion_3_fulltwist():
    from qtnabla.omega import fulltwist_extraction, fulltwist_series
    ok = True
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            ok = ok and fulltwist_series(n, k, 5) == fulltwist_extraction(n, k, 5)
    report(3, "full-twist series equals the double-coefficient extraction",
           ok)


def test_criterion_4_involution_suite():
    from qtnabla.involution import verify_vanishing
    ok = True
    for n in (2, 3, 4):
        for k in (1, 2):
            rep = verify_vanishing(n, k, 4, 3)
            ok = ok and rep["ok"]
    report(4, "involution, weights, dominance, and the signed quadruple sum",
           ok)


def test_criterion_5_rho_emptiness():
    from qtnabla.shuffle import five_condition_witness
    ok = True
    for n in (2, 3, 4, 5):
        for k in (1, 2):
            D = k * n * (n - 1) // 2 + 2
            ok = ok and five_condition_witness(n, k, D, n) is None
    report(5, "the five-condition rotation set is empty", ok)


def test_criterion_6_paff():
    from qtnabla.affine import (dimv, left_coset_min_max, paff,
                                rational_area_sequence, tau, verify_paff)
    from qtnabla.labels import dinv_k
    rep = verify_paff(3, 1, 3, 3)
    ok = rep["ok"]
    # worked example one: the length-four triple
    w = paff((2, 1, 0, 0), (2, 3, 1, 1), (1, 2, 1, 1))
    ok = ok and w.window == (3, 2, 12, 5)
    ok = ok and tau((2, 1, 0, 0)).window == (12, 7, 2, 1)
    ok = ok and dinv_k((2, 1, 0, 0), (2, 3, 1, 1), (1, 2, 1, 1), 1) == 2
    ok = ok and dimv(w, 4) == 2
    # worked example two: the figure pair
    wmin, wmax = left_coset_min_max(
        paff((3, 3, 3, 2, 0, 0), (1, 1, 5, 4, 2, 5), (1,) * 6))
    amin = rational_area_sequence(wmin, 12)
    amax = rational_area_sequence(wmax, 12)
    ok = ok and amin == (0, 2, 4, 4, 1, 2)
    ok = ok and amax == (0, 1, 2, 1, 0, 1)
    ok = ok and tuple(x - y for x, y in zip(amin, amax)) == (0, 1, 2, 3, 1, 1)
    report(6, "triple-to-permutation bijection and its two worked examples",
           ok)


def test_criterion_7_xi_chromatic():
    from qtnabla.labels import verify_xi
    ok = all(verify_xi(n)["ok"] for n in (1, 2, 3, 4, 5))
    report(7, "label generating function equals the chromatic route", ok)


def test_criterion_8_bundle_counting():
    from qtnabla.bundles import (verify_bundle_counts, verify_bundle_series,
                                 verify_product_identity)
    counts = verify_bundle_counts(2, 2, 2, (2, 3), (0, 1))
    ok = counts["ok"]
    for n in (1, 2, 3):
        for k in (1, 2):
            ok = ok and verify_bundle_series(n, k, 3, 4)["equal"]
    ok = ok and verify_product_identity(3, 3, 3, 4)["equal"]
    report(8, "automorphism/nilpotent counts, bundle series, and the product",
           ok)


def test_criterion_9_golden_examples():
    from qtnabla.involution import VanQuadruple, d_k_rev, iota, t_diagram
    from oracles import d_k_table, sort_columns, sort_triple
    from qtnabla.labels import alpha_composition, attack_path, mu_partition
    from qtnabla.affine import standardize, tau

    ok = sort_columns((1, 2, 1, 1, 2, 1), (3, 2, 3, 1, 1, 3)) == \
        ((1, 1, 1, 1, 2, 2), (1, 3, 3, 3, 1, 2))
    ok = ok and sort_triple((1, 0, 1, 0), (2, 1, 1, 1), (1, 2, 2, 1)) == \
        ((1, 1, 0, 0), (1, 2, 1, 1), (2, 1, 1, 2))
    ok = ok and alpha_composition((1, 1, 1, 4, 4, 2, 1, 4)) == (4, 1, 3)
    ok = ok and mu_partition((1, 1, 1, 4, 4, 2, 1, 4)) == (4, 3, 1)

    path = attack_path((3, 3, 3, 2, 0, 0), (1, 1, 5, 4, 2, 5), 2)
    ok = ok and path.dset == frozenset(
        {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)})
    ok = ok and path.area_sequence == (0, 1, 2, 3, 1, 1)

    ank = VanQuadruple(2, (3, 2, 1, 1, 2, 4), (3, 1, 0, 0, 0, 0),
                       (1, 3, 2, 4, 1, 5))
    ok = ok and d_k_rev(ank.m, ank.b, 2) == 16
    ok = ok and d_k_table(ank.m, ank.b, 2) == [
        [1, 0, -1, -1, -1, -1],
        [-1, 1, 2, 1, 2, 1],
        [-2, 1, 1, 2, 1, 2],
        [-2, 0, 1, 1, 1, 2],
        [-2, 1, 2, 2, 1, 2],
        [-2, 0, 1, 1, 1, 1]]
    ok = ok and iota(ank, 2) == VanQuadruple(
        1, (2, 1, 1, 2, 3, 4), (1, 0, 0, 0, 3, 0), (3, 2, 4, 1, 1, 5))

    diagram = t_diagram(VanQuadruple(0, (2, 2, 1, 2, 1, 3, 1),
                                     (1, 0, 0, 1, 2, 1, 0),
                                     (1, 1, 3, 2, 3, 1, 1)))
    ok = ok and diagram == (((2, 3), (0, 1), (0, 3)),
                            ((1, 1), (1, 2), (0, 1)),
                            ((1, 1),))

    ok = ok and standardize((3, 3, 3, 1, 2, 3, 1), "<") == (4, 5, 6, 1, 3, 7, 2)
    ok = ok and standardize((3, 3, 3, 1, 2, 3, 1), ">") == (1, 2, 3, 6, 5, 4, 7)
    ok = ok and tau((2, 1, 0, 0)).window == (12, 7, 2, 1)
    report(9, "golden worked examples reproduce byte-exactly", ok)
