from itertools import combinations, permutations, product
from math import comb, factorial, prod

import pytest

from qtnabla.scalar import ONE, Q, QtScalar, T, ZERO
from qtnabla.symfunc import (
    AlphabetExpr, Poly, SymFunc, conjugate, dominance_leq, distinct_permutations,
    fundamental_monomials, partitions, plethysm, plethysm_expand,
    plethysm_p_scale, poly_to_symfunc, quasisym_M, sort_partition, zee,
)


def test_partitions_descending_lex():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions(0) == ((),)


def test_conjugate_involution_and_dominance():
    for n in range(7):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((2, 1), (2, 1))
    # dominance reverses under conjugation
    for lam in partitions(6):
        for mu in partitions(6):
            assert dominance_leq(lam, mu) == dominance_leq(conjugate(mu), conjugate(lam))


def test_zee():
    assert zee(()) == 1
    assert zee((2,)) == 2
    assert zee((1, 1)) == 2
    assert zee((2, 2, 1)) == 2 * 2 * 2 * 1


def test_basic_conversions():
    assert SymFunc.e(1).convert("m") == SymFunc.m((1,))
    h2_m = SymFunc.h(2).convert("m")
    assert h2_m.terms == {(2,): ONE, (1, 1): ONE}
    e2_s = SymFunc.e(2).convert("s")
    assert e2_s.terms == {(1, 1): ONE}
    # p_3 in e: 3e_3 - 3e_2 e_1 + e_1^3
    p3_e = SymFunc.p(3).convert("e")
    assert p3_e.terms == {(3,): QtScalar.from_int(3),
                          (2, 1): QtScalar.from_int(-3),
                          (1, 1, 1): ONE}


def test_roundtrips_all_bases():
    for n in range(7):
        for lam in partitions(n):
            f = SymFunc.m(lam)
            for basis in ("e", "h", "p", "s"):
                assert f.convert(basis).convert("m") == f, (lam, basis)


def test_h_m_duality():
    for n in range(1, 7):
        for lam in partitions(n):
            for mu in partitions(n):
                val = SymFunc.basis_element("h", lam).hall_inner(SymFunc.m(mu))
                assert val == (ONE if lam == mu else ZERO)


def test_schur_orthonormal():
    for n in range(1, 6):
        for lam in partitions(n):
            for mu in partitions(n):
                val = SymFunc.s(lam).hall_inner(SymFunc.s(mu))
                assert val == (ONE if lam == mu else ZERO)


def test_hall_inner_examples():
    assert SymFunc.p(2).hall_inner(SymFunc.p(2)) == QtScalar.from_int(2)
    e1sq = SymFunc.e(1) * SymFunc.e(1)
    assert e1sq.hall_inner(SymFunc.e(2)) == ONE
    # unequal degrees pair to zero
    assert SymFunc.e(1).hall_inner(SymFunc.e(2)) == ZERO


def test_qt_inner():
    one = SymFunc.p(1)
    assert one.qt_inner(one) == (ONE - Q) / (ONE - T)
    assert SymFunc.p(2).qt_inner(SymFunc.basis_element("p", (1, 1))) == ZERO
    p11 = SymFunc.basis_element("p", (1, 1))
    assert p11.qt_inner(p11) == 2 * ((ONE - Q) / (ONE - T)) ** 2


def test_omega():
    for n in range(1, 6):
        assert SymFunc.e(n).omega() == SymFunc.h(n)
        assert SymFunc.h(n).omega() == SymFunc.e(n)
    s21 = SymFunc.s((2, 1))
    assert s21.omega() == s21  # self-conjugate
    for lam in partitions(5):
        assert SymFunc.s(lam).omega() == SymFunc.s(conjugate(lam))
        f = SymFunc.m(lam)
        assert f.omega().omega() == f


def test_multiplication_pieri_smoke():
    # h1 * h1 = h2 + m_{1,1}-consistency via monomial basis
    sq = (SymFunc.h(1) * SymFunc.h(1)).convert("m")
    assert sq.terms == {(2,): QtScalar.from_int(1), (1, 1): QtScalar.from_int(2)}
    # s1 * s1 = s2 + s11
    ss = (SymFunc.s((1,)) * SymFunc.s((1,))).convert("s")
    assert ss.terms == {(2,): ONE, (1, 1): ONE}


def test_expand_h_is_sum_of_orbit_monomials():
    for n in range(1, 5):
        poly = SymFunc.h(n).expand(3)
        # h_n over x_1..x_3: all monomials of degree n, coefficient 1
        assert all(c == ONE for c in poly.terms.values())
        from math import comb
        assert len(poly.terms) == comb(n + 2, 2)


def test_expand_roundtrip_via_poly_to_symfunc():
    f = SymFunc.s((2, 1))
    poly = f.expand(3)
    back = poly_to_symfunc(poly, "x", "s")
    assert back == f
    # on N variables only the s_lam with at most N rows are determined
    f = SymFunc("s", {(2, 1): ONE, (1, 1, 1): Q + 5})
    assert poly_to_symfunc(f.expand(3), "x", "s").terms == f.terms
    assert poly_to_symfunc(f.expand(2), "x", "s").terms == {(2, 1): ONE}


def test_poly_to_symfunc_rejects_asymmetric():
    p = Poly(2, 0, {((1, 0), ()): ONE})
    with pytest.raises(ValueError):
        poly_to_symfunc(p)


def test_distinct_permutations():
    assert len(distinct_permutations((1, 1, 0))) == 3
    assert set(distinct_permutations((2, 0))) == {(2, 0), (0, 2)}


def test_quasisym_M():
    m1 = quasisym_M((1,), 2)
    assert m1.terms == {((1, 0), ()): ONE, ((0, 1), ()): ONE}
    # M_(2) in one variable is x_1^2
    assert quasisym_M((2,), 1).terms == {((2,), ()): ONE}
    # sum over compositions rearranging to (2,1) gives m_{2,1}
    total = quasisym_M((2, 1), 3) + quasisym_M((1, 2), 3)
    assert poly_to_symfunc(total).terms == {(2, 1): ONE}


def test_fundamental_monomials_count():
    # C(N + n - 1 - |D|, n) distinct exponent vectors, each of degree n
    for n in range(1, 6):
        for N in range(1, 6):
            for D in (c for r in range(n) for c in combinations(range(1, n), r)):
                got = fundamental_monomials(n, N, D)
                assert len(got) == len(set(got)) == comb(N + n - 1 - len(D), n)
                assert all(len(e) == N and sum(e) == n for e in got)


def test_fundamental_monomials_extremes():
    for n in range(1, 5):
        for N in range(1, 5):
            # F_{} = h_n: every weak composition of n into N parts
            weak = {e for e in product(range(n + 1), repeat=N) if sum(e) == n}
            assert set(fundamental_monomials(n, N, ())) == weak
            # F_{[n-1]} = e_n: only 0/1 vectors
            top = set(fundamental_monomials(n, N, tuple(range(1, n))))
            assert top == {e for e in weak if max(e) <= 1}


def test_fundamental_sum_over_permutations_is_multinomial():
    # sum over sigma in S_4 of F_{iDes sigma} = (x_1 + x_2 + x_3)^4
    n, N = 4, 3
    total = {}
    for sigma in permutations(range(1, n + 1)):
        where = {v: i for i, v in enumerate(sigma)}
        ides = tuple(j for j in range(1, n) if where[j + 1] < where[j])
        for e in fundamental_monomials(n, N, ides):
            total[e] = total.get(e, 0) + 1
    expected = {e: factorial(n) // prod(factorial(x) for x in e)
                for e in product(range(n + 1), repeat=N) if sum(e) == n}
    assert total == expected


def test_m_as_sum_of_quasisym():
    # m_mu = sum of M_alpha over alpha sorting to mu, degree <= 4, N = 4
    for n in range(1, 5):
        for mu in partitions(n):
            comps = {alpha for alpha in _compositions_of(n) if sort_partition(alpha) == mu}
            total = Poly.zero(4)
            for alpha in comps:
                total = total + quasisym_M(alpha, 4)
            assert total == SymFunc.m(mu).expand(4)


def _compositions_of(n):
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            out.append((first,) + rest)
    return out


def test_plethysm_identity_and_linearity():
    f = SymFunc.s((2, 1))
    assert plethysm_p_scale(f, lambda r: ONE) == f
    g = SymFunc.e(3)
    lhs = plethysm_p_scale(f + g, lambda r: ONE - Q ** r)
    rhs = plethysm_p_scale(f, lambda r: ONE - Q ** r) + plethysm_p_scale(g, lambda r: ONE - Q ** r)
    assert lhs == rhs


def test_plethysm_power_sum_rule():
    # p_2[X(1-q)] = (1-q^2) p_2
    out = plethysm(SymFunc.p(2), AlphabetExpr(scale="1-q"))
    assert out == SymFunc.p(2).scale(ONE - Q * Q)


def test_plethysm_multiplicative():
    f = SymFunc.e(2)
    g = SymFunc.h(1)
    expr = lambda h: plethysm_p_scale(h, lambda r: ONE / (ONE - Q ** r))
    assert expr(f * g) == expr(f) * expr(g)


def test_plethysm_finite_alphabet_is_substitution():
    f = SymFunc.s((2, 1))
    assert plethysm(f, AlphabetExpr(nx=3)) == f.expand(3)


def test_plethysm_cauchy_single_term():
    # h_1[XY/((1-q)(1-t))] with one variable each
    out = plethysm(SymFunc.h(1), AlphabetExpr(nx=1, ny=1, scale="1/((1-q)(1-t))"))
    assert out.terms == {((1,), (1,)): ONE / ((ONE - Q) * (ONE - T))}


def test_plethysm_en_over_one_minus_q():
    # e_n[X/(1-q)] = sum over sorted labels of q^{n(mu')} / ((1-q)^n aut_q) X_a
    from qtnabla.scalar import aut_q
    from itertools import combinations_with_replacement
    n, N = 3, 3
    lhs = plethysm(SymFunc.e(n), AlphabetExpr(nx=N, scale="1/(1-q)"))
    terms = {}
    for a in combinations_with_replacement(range(1, N + 1), n):
        mult = sort_partition(tuple(a.count(v) for v in set(a)))
        nconj = sum(i * part for i, part in enumerate(conjugate(mult)))
        exps = tuple(a.count(v) for v in range(1, N + 1))
        coeff = QtScalar.monomial(q=nconj) / ((ONE - Q) ** n * aut_q(mult))
        terms[(exps, ())] = coeff
    assert lhs == Poly(N, 0, terms)


def test_plethysm_rejects_unknown_scale():
    with pytest.raises(ValueError):
        plethysm(SymFunc.e(1), AlphabetExpr(scale="1-q^2"))


def test_rendering():
    f = SymFunc("m", {(2, 1): Q * T, (3,): ONE})
    assert str(f) == "m[3] + q t m[2,1]"
    assert str(SymFunc.zero()) == "0"
