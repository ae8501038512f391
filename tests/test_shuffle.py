from itertools import combinations, product

import pytest

from oracles import (fundamental_monomials, parking_sum_by_descent_tuples,
                     parking_terms)
from qtnabla.involution import d_k_rev
from qtnabla.labels import (compositions, fundamental_expansion,
                            partial_sum_mask)
from qtnabla.scalar import ONE, Q, QtScalar, T
from qtnabla.shuffle import (
    cancellation_check, five_condition_witness, in_shuffle_set,
    nabla_en_expansion, npf, parking_sum, pf, rho, rho_inverse,
)
from qtnabla.symfunc import Poly, poly_to_symfunc


def test_pf_npf_examples():
    assert pf((0, 0), (1, 1), 1, 1)
    assert pf((0, 1), (1, 2), 1, 1)  # equality branch with rising label
    assert npf((0, 2), (1, 1), 1, 1)
    assert npf((0, 1), (2, 1), 1, 1)  # equality branch with weak label


def test_pf_npf_dichotomy():
    for m in product(range(4), repeat=3):
        for a in product(range(1, 4), repeat=3):
            for i in (1, 2):
                for k in (1, 2):
                    assert pf(m, a, i, k) != npf(m, a, i, k)


def test_rho_example_and_inverse():
    assert rho((0, 1), (1, 2)) == ((2, 0), (2, 1))
    for m in product(range(3), repeat=3):
        for a in ((1, 2, 3), (2, 2, 1)):
            assert rho_inverse(*rho(m, a)) == (m, a)
    with pytest.raises(ValueError):
        rho_inverse((0, 1), (1, 2))


def test_rho_preserves_dk_and_bumps_area():
    for m in product(range(3), repeat=3):
        for a in product(range(1, 3), repeat=3):
            for k in (1, 2):
                m2, a2 = rho(m, a)
                assert d_k_rev(m2, a2, k) == d_k_rev(m, a, k)
                assert sum(m2) == sum(m) + 1


def test_pf_shift_under_rho():
    # PF at i for (m, a) iff PF at i+1 for rho(m, a), 1 <= i < n-1
    for m in product(range(3), repeat=4):
        for a in product(range(1, 3), repeat=4):
            m2, a2 = rho(m, a)
            for k in (1, 2):
                for i in (1, 2):
                    assert pf(m, a, i, k) == pf(m2, a2, i + 1, k)


def test_parking_terms_n1():
    assert sorted(parking_terms(1, 1, 3)) == [((0,), (a,)) for a in (1, 2, 3)]


def test_parking_sum_n2_value():
    # frozen value derived from the Macdonald route: nabla e_2 in two variables
    got = parking_sum(2, 1, 2)
    expected = Poly(2, 0, {
        ((2, 0), ()): ONE,
        ((0, 2), ()): ONE,
        ((1, 1), ()): ONE + Q + T,
    })
    assert got == expected
    assert poly_to_symfunc(got).convert("s").terms == {(2,): ONE, (1, 1): Q + T}


def _parking_word_oracle(n, k, N):
    """The word route: x^a t^{|m|} q^{d_k_rev(m, a, k)} summed over every
    (m, a) of parking_terms, with labels a in [N]^n."""
    coeffs = {}
    for m, a in parking_terms(n, k, N):
        coeff = coeffs.setdefault(tuple(a.count(v) for v in range(1, N + 1)), {})
        qt = (d_k_rev(m, a, k), sum(m))
        coeff[qt] = coeff.get(qt, 0) + 1
    return Poly(N, 0, {(e, ()): QtScalar(c) for e, c in coeffs.items()})


def test_parking_sum_matches_word_oracle():
    sizes = [(n, k, N) for n in range(1, 5) for k in (1, 2, 3)
             for N in range(1, n + 2)]
    for n, k, N in sizes + [(5, 1, 5), (5, 1, 3), (5, 2, 5)]:
        got, want = parking_sum(n, k, N), _parking_word_oracle(n, k, N)
        assert got == want, (n, k, N)
        assert {key: (c.num, c.den) for key, c in got.terms.items()} == \
            {key: (c.num, c.den) for key, c in want.terms.items()}, (n, k, N)


def _bits(poly):
    return {key: (c.num, c.den) for key, c in poly.terms.items()}


def test_bitmask_walk_matches_descent_tuple_route():
    sizes = [(n, k, N) for n in range(1, 6) for k in (1, 2, 3)
             for N in range(1, n + 2)]
    sizes += [(6, 1, 3), (6, 1, 6), (6, 1, 7), (6, 2, 4)]
    for n, k, N in sizes:
        got, want = parking_sum(n, k, N), parking_sum_by_descent_tuples(n, k, N)
        assert got == want, (n, k, N)
        assert got.terms.keys() == want.terms.keys(), (n, k, N)
        assert _bits(got) == _bits(want), (n, k, N)


def test_packed_slot_holds_the_largest_increment():
    # n columns at height 0 with rising labels give the last one the largest
    # increment, (n-1)k, and the top q-degree k C(n, 2); where (n-1)k is a
    # power of two it fills every bit of its slot, so a narrower slot would
    # carry into the next one and lose that q-degree
    for n, k in ((2, 1), (3, 1), (3, 2), (5, 1), (5, 2), (3, 4), (2, 8)):
        got, want = parking_sum(n, k, n), parking_sum_by_descent_tuples(n, k, n)
        assert _bits(got) == _bits(want), (n, k)
        top = max(qd for c in got.terms.values() for qd, _ in c.num)
        assert top == k * n * (n - 1) // 2, (n, k)


@pytest.mark.parametrize("n, k", [(3, 5), (2, 7), (6, 1), (2, 200)])
def test_tally_index_fields_hold_the_top_degrees(monkeypatch, n, k):
    # k C(n, 2) bounds the q- and the t-degree, each in a tally index field
    # of its bit length: at the first three sizes it is 2^j - 1 and fills
    # its field, so a narrower field would carry into the next one; (2, 200)
    # is a wide field at n = 2. Both n = 2 sizes tally in the sparse dict,
    # the others in the list. n columns with rising labels have the full
    # descent mask, and q^0 t^{k C(n, 2)} at heights 0, k, 2k, ..., and
    # q^{k C(n, 2)} t^0 at height 0.
    import qtnabla.shuffle as shuffle
    tallies = []

    def spy(counts, *sizes):
        tallies.append(counts)
        return fundamental_expansion(counts, *sizes)

    monkeypatch.setattr(shuffle, "fundamental_expansion", spy)
    got, want = parking_sum(n, k, n), parking_sum_by_descent_tuples(n, k, n)
    assert _bits(got) == _bits(want), (n, k)
    top, full = k * n * (n - 1) // 2, (1 << (n - 1)) - 1
    (counts,) = tallies
    assert max(td for _, _, td in counts) == top, (n, k)
    assert max(qd for _, qd, _ in counts) == top, (n, k)
    assert (full, 0, top) in counts and (full, top, 0) in counts, (n, k)


def test_parking_sum_rejects_n_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError,
                           match=rf"^the parking sum needs n >= 1, got n = {n}$"):
            parking_sum(n, 1, 1)


def test_partial_sum_masks_pick_the_monomials_of_each_fundamental():
    # x^alpha is in F_D iff D lies inside S(alpha), the partial sums of alpha
    for n in range(1, 6):
        for N in range(1, n + 2):
            masks = {alpha: partial_sum_mask(alpha) for alpha in compositions(n, N)}
            for D in (c for r in range(n) for c in combinations(range(1, n), r)):
                d = sum(1 << (j - 1) for j in D)
                assert {alpha for alpha, s in masks.items() if d & ~s == 0} \
                    == set(fundamental_monomials(n, N, D)), (n, N, D)
    # n = 1 and N = 1 have no partial sum strictly inside (0, n)
    assert [partial_sum_mask(alpha) for alpha in compositions(1, 4)] == [0] * 4
    assert [partial_sum_mask((n,)) for n in range(1, 6)] == [0] * 5
    assert partial_sum_mask((2, 0, 1, 0, 2)) == 0b110  # S = {2, 3}


def test_parking_sum_matches_nabla():
    for n in (1, 2, 3):
        for k in (1, 2):
            assert parking_sum(n, k, n) == nabla_en_expansion(n, k, n), (n, k)


def test_parking_sum_is_symmetric_with_positive_coeffs():
    for n, k in ((3, 2), (4, 1), (5, 2)):
        poly = parking_sum(n, k, n)
        poly_to_symfunc(poly)  # raises if not symmetric
        for c in poly.terms.values():
            assert c.is_polynomial()
            assert all(v > 0 for v in c.num.values())


def test_m_bound():
    # PF chain forces m_i <= (i-1) k, attained with strictly rising labels
    for n, k in ((3, 1), (3, 2), (4, 1)):
        top = max(sum(m) for m, _ in parking_terms(n, k, n))
        assert top == k * n * (n - 1) // 2


def test_five_condition_set_empty_small():
    for n in (2, 3, 4):
        for k in (1, 2):
            D = k * n * (n - 1) // 2 + 2
            assert five_condition_witness(n, k, D, n) is None, (n, k)


def test_five_condition_bruteforce_agreement():
    # the end-column search agrees with direct enumeration
    for n, k, D, N in ((3, 1, 4, 3), (3, 2, 6, 2), (4, 1, 5, 3)):
        direct = None
        for mvec in product(range(D + 1), repeat=n):
            if sum(mvec) > D or mvec[0] < 1:
                continue
            for l in range(1, n):
                for a in product(range(1, N + 1), repeat=n):
                    if not in_shuffle_set(l, mvec, a, k):
                        continue
                    m2, a2 = rho(mvec, a)
                    if l < n and not pf(m2, a2, 1, k):
                        continue
                    mi, ai = rho_inverse(mvec, a)
                    if l > 0 and not npf(mi, ai, n - 1, k):
                        continue
                    direct = (l, mvec, a)
                    break
        assert direct is None
        assert five_condition_witness(n, k, D, N) is None


@pytest.mark.parametrize("widened_npf", [
    lambda m, a, i, k: True,
    lambda m, a, i, k: m[i] >= m[i - 1],
], ids=["everything", "weak-rise"])
def test_five_condition_witness_is_the_first_direct_hit(monkeypatch,
                                                        widened_npf):
    """With NPF widened so that the A and B sets meet, the search returns
    the first hit of a direct loop over m, then a, then l, and the
    cancellation check reports it."""
    import qtnabla.shuffle as shuffle
    monkeypatch.setattr(shuffle, "npf", widened_npf)

    def in_both(l, m, a, k):
        n = len(m)
        return 0 < l < n and m[0] > 0 and in_shuffle_set(l, m, a, k) \
            and pf(*rho(m, a), 1, k) \
            and widened_npf(*rho_inverse(m, a), n - 1, k)

    for n, k, D, N in ((2, 1, 3, 2), (3, 1, 4, 3), (4, 1, 5, 3)):
        direct = next(((l, m, a) for d in range(D + 1)
                       for m in compositions(d, n)
                       for a in product(range(1, N + 1), repeat=n)
                       for l in range(1, n) if in_both(l, m, a, k)), None)
        assert direct is not None, (n, k, D, N)
        witness = five_condition_witness(n, k, D, N)
        assert witness == direct, (n, k, D, N)
        assert in_both(*witness, k)
        rep = cancellation_check(n, k, D, N)
        assert not rep["ok"] and rep["first_discrepancy"] is None
        l, m, a = witness
        assert rep["witness"] == {"l": l, "m": list(m), "a": list(a)}


def test_cancellation_check():
    for n in (1, 2, 3):
        for k in (1, 2):
            D = k * n * (n - 1) // 2 + 2
            rep = cancellation_check(n, k, D, n)
            assert rep["ok"], (n, k, rep)


def test_cancellation_check_reports_discrepancy(monkeypatch):
    import qtnabla.shuffle as shuffle
    true_sum = shuffle.parking_sum
    bad = ((1, 1), ())

    def perturbed(n, k, N):
        poly = true_sum(n, k, N)
        terms = dict(poly.terms)
        terms[bad] = terms[bad] + Q
        return Poly(poly.nx, poly.ny, terms)

    monkeypatch.setattr(shuffle, "parking_sum", perturbed)
    rep = cancellation_check(2, 1, 3, 2)
    assert not rep["ok"] and rep["witness"] is None
    # the shared shape of scalar.discrepancy: the t^0 coefficient differs by q
    true = true_sum(2, 1, 2).terms[bad].t_expand(2)
    assert rep["first_discrepancy"] == {
        "x_exp": [1, 1], "y_exp": [], "t_deg": 0,
        "lhs": str(true[0]), "rhs": str(true[0] + Q)}


def test_survivors_have_l0_m1_zero():
    # terms surviving the pairing all sit at l = 0 with m_1 = 0
    from qtnabla.shuffle import npf, pf
    n, k, D, N = 3, 1, 5, 3
    for mvec in product(range(D + 1), repeat=n):
        if sum(mvec) > D:
            continue
        for a in product(range(1, N + 1), repeat=n):
            for l in range(n + 1):
                if not in_shuffle_set(l, mvec, a, k):
                    continue
                a_set = l > 0 and (l == n or pf(*rho(mvec, a), 1, k))
                b_set = l < n and mvec[0] > 0 and \
                    (l == 0 or npf(*rho_inverse(mvec, a), n - 1, k))
                if not a_set and not b_set:
                    assert l == 0 and mvec[0] == 0
