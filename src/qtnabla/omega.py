"""The combinatorial series: the two-alphabet dinv enumerator, its
xi-factored and label-substituted forms, the full-twist series, and the
squarefree (Hilbert-type) coefficient.

Every series is graded exactly by t-degree = |m|, so truncation never
loses information below the cut.  The enumerators hand each term to
scalar.SeriesBuilder as an integer count of q^e / aut_q(mu), with mu the
multiplicity partition of the columns; each coefficient is then one integer
polynomial over [n]_q!, reduced once.

The four two-alphabet series take (n, k, N, D) like every other series
routine, and raise ValueError unless n, N >= 1 and k, D >= 0.
"""

from __future__ import annotations

from itertools import permutations

from .scalar import ONE, Q, QtScalar, SeriesBuilder, compare
from .labels import (
    _sorted_m_vectors, attack_path, compositions, content, dinv_k,
    dinv_weight, is_sorted_triple, iter_sorted_pairs, mu_partition,
    triple_series, xi_pi,
)
from .symfunc import plethysm_p_scale, poly_to_symfunc


def _check_size(n, k, N, D):
    if n < 1 or k < 0 or N < 1 or D < 0:
        raise ValueError("need n >= 1, k >= 0, N >= 1, D >= 0")


def _add_q_polynomial(builder, key, d, q_exp, mu, c):
    """Add q^q_exp c / aut_q(mu) for a polynomial c in q alone."""
    if not (c.is_polynomial() and c.is_t_free()):
        raise AssertionError(f"label coefficient {c} is not a polynomial in q")
    for (e, _), v in c.num.items():
        builder.add(key, d, q_exp + e, mu, v)


def omega_series(n, k, N, D):
    """Sum over sorted triples of t^{|m|} q^{dinv_k} X_a Y_b
    / ((1-q)^n aut_q(m, a, b)), per t-degree; aut_q(m, a, b) is aut_q of
    the multiplicity partition of the columns (m_i, a_i, b_i)."""
    _check_size(n, k, N, D)
    return triple_series(n, N, D, dinv_weight(k), (ONE / (ONE - Q)) ** n)


def _pair_sum(n, k, N, D, y_side):
    """The series grouped over sorted pairs (m, a): y_side(path, N) supplies
    the y side of each attack path, once per path."""
    _check_size(n, k, N, D)
    builder = SeriesBuilder(N, N, D)
    ones = (1,) * n  # a sorted pair is a sorted triple with b constant
    ys = {}  # attack path -> its y terms; many pairs share a path
    for d in range(D + 1):
        for m, a in iter_sorted_pairs(n, N, d):
            path = attack_path(m, a, k)
            if path not in ys:
                ys[path] = y_side(path, N).terms.items()
            base = dinv_k(m, a, ones, k)
            mu = mu_partition(zip(m, a))
            xa = content(a, N)
            for (_, ye), c in ys[path]:
                _add_q_polynomial(builder, (xa, ye), d, base, mu, c)
    return builder.build(scale=(ONE / (ONE - Q)) ** n)


def omega_via_xi(n, k, N, D):
    """The same series grouped over sorted pairs, with the label generating
    function xi supplying the y side."""
    return _pair_sum(n, k, N, D, xi_pi)


def omega_sub_y(n, k, N, D):
    """Omega with Y replaced by Y(q-1): (-1)^n times the attack-distinct
    triple sum, with all automorphism factors gone."""
    _check_size(n, k, N, D)

    def weight(delta, ai, aj, bi, bj):
        v = k - 1 - delta + (ai > aj)
        if v >= 0 and bi == bj:  # i k-attacks j with an equal label
            return None
        v += bi > bj
        return v if v > 0 else 0

    return triple_series(n, N, D, weight, QtScalar.from_int((-1) ** n),
                         by_aut=False)


def _xi_sub_y(path, N):
    xi = poly_to_symfunc(xi_pi(path, N), alphabet="y")
    return plethysm_p_scale(xi, lambda r: Q ** r - ONE).expand(N, "y")


def omega_sub_y_via_plethysm(n, k, N, D):
    """Oracle for omega_sub_y: substitute Y(q-1) into each xi factor through
    the power-sum route, never touching the triple enumeration."""
    return _pair_sum(n, k, N, D, _xi_sub_y)


# ---------------------------------------------------------------------------
# full twist


def fulltwist_dk(m, k):
    """The pairwise statistic on an unordered exponent tuple m.

    Per pair i < j the contribution is max(min(k - m_i + m_j - 1,
    k - m_j + m_i), 0); this is dinv_k of the sorted pair (m, positions),
    which the extraction oracle in the tests pins down.
    """
    n = len(m)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = min(k - m[i] + m[j] - 1, k - m[j] + m[i])
            if v > 0:
                total += v
    return total


def fulltwist_series(n, k, degree):
    """(1/(1-q)^n) sum over m in Z_{>=0}^n of t^{|m|} q^{d_k(m)}."""
    if k < 1:
        raise ValueError("k must be positive")
    builder = SeriesBuilder(0, 0, degree)
    for d in range(degree + 1):
        for m in compositions(d, n):
            builder.add((), d, fulltwist_dk(m, k))
    return builder.build((ONE / (ONE - Q)) ** n).series(())


def _permutation_coefficient(n, k, degree, b_choices):
    """Coefficient series for x-squarefree keys: a runs over permutations,
    b over the given tuples, with the triple-sorting constraint."""
    builder = SeriesBuilder(0, 0, degree)
    for d in range(degree + 1):
        for m in _sorted_m_vectors(n, d):
            for a in permutations(range(1, n + 1)):
                for b in b_choices:
                    if is_sorted_triple(m, a, b):
                        builder.add((), d, dinv_k(m, a, b, k))
    return builder.build((ONE / (ONE - Q)) ** n).series(())


def fulltwist_extraction(n, k, degree):
    """The coefficient of x_1...x_n y_1^n in the two-alphabet enumerator."""
    return _permutation_coefficient(n, k, degree, [(1,) * n])


def hilbert_coefficient(n, k, degree):
    """The coefficient of the squarefree monomial x_1..x_n y_1..y_n: the
    dinv_k sum over the sorted triples whose a and b are permutations of
    1..n, walked by column blocks (labels.triple_series with distinct): each
    block takes an a-set from the unused labels and an injective b-row.

    The normalization factor (1-q)^(n - gcd(n, kn)) is identically 1 here
    and is reported rather than folded in.
    """
    ones = (1,) * n
    series = triple_series(n, n, degree, dinv_weight(k),
                           (ONE / (ONE - Q)) ** n, by_aut=False, distinct=True)
    return series.series((ones, ones))


# ---------------------------------------------------------------------------
# reports


def verify_main(n, k, N, D):
    """Theorem check: the Macdonald-side Cauchy series against the
    combinatorial enumerator, both scaled by (1-q)^n.

    At k = 0 the Macdonald side is the Cauchy sum of the equal-column
    weights, not this enumerator, so k must be positive."""
    if k < 1:
        raise ValueError("k must be positive")
    from .macdonald import cauchy_macdonald_series
    scale = (ONE - Q) ** n
    lhs = cauchy_macdonald_series(n, k, N, D, scale)
    rhs = omega_series(n, k, N, D).scale(scale)
    return compare(lhs, rhs, sides=True, n=n, k=k, N=N, D=D)


def verify_xi_factoring(n, k, N, D):
    """The enumerator against its regrouping over sorted pairs.  The
    identity is stated for k >= 1, and at k = 0 the two routes differ, so k
    must be positive, as in verify_main."""
    if k < 1:
        raise ValueError("k must be positive")
    lhs = omega_series(n, k, N, D)
    rhs = omega_via_xi(n, k, N, D)
    return compare(lhs, rhs, sides=True, n=n, k=k, N=N, D=D)


def verify_sub_y(n, k, N, D):
    """The substituted enumerator against the plethysm route.  The
    identity is stated for k >= 1, and at k = 0 the two routes differ, so k
    must be positive, as in verify_main."""
    if k < 1:
        raise ValueError("k must be positive")
    lhs = omega_sub_y(n, k, N, D)
    rhs = omega_sub_y_via_plethysm(n, k, N, D)
    return compare(lhs, rhs, sides=True, n=n, k=k, N=N, D=D)


def verify_fulltwist(n, k, D, hilbert=False):
    """The exponent-sum series against coefficient extraction; with hilbert,
    also the squarefree check, nested under "hilbert" and folded into
    "equal"."""
    report = compare(fulltwist_series(n, k, D), fulltwist_extraction(n, k, D),
                     sides=True, n=n, k=k, D=D)
    if hilbert:
        from .affine import raths_series
        sub = report["hilbert"] = compare(hilbert_coefficient(n, k, D),
                                          raths_series(n, k, D))
        report["equal"] = report["equal"] and sub["equal"]
    return report


def verify_hilbert(n, k, D):
    """The squarefree coefficient against the affine-permutation series."""
    from .affine import raths_series
    return compare(hilbert_coefficient(n, k, D), raths_series(n, k, D),
                   sides=True, n=n, k=k, D=D,
                   normalization=f"(1-q)^{n - n} = 1")


def compute_omega(n, k, N, D):
    """The combinatorial series, as a report."""
    series = omega_series(n, k, N, D)
    return {"n": n, "k": k, "N": N, "D": D, "series": series.to_json(),
            "equal": True}
