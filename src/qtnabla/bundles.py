"""Parabolic line bundles with two marked points: Hom/Ext dimensions, the
total order, automorphism and nilpotent-endomorphism counts, a brute-force
prime-field oracle, and the bundle-side generating series.

A rank-n object is a sorted triple (m, a, b) read as the direct sum of the
line bundles O(m_i; a_i, b_i); sortedness agrees with the total order
(m, -a, -b) read lexicographically.  Maps L_j -> L_i are polynomials in z
supported on the window delta(a_j < a_i) <= e <= m_i - m_j - delta(b_j < b_i);
the a-side condition removes the constant term (vanishing at 0), the b-side
removes the top term (vanishing at infinity).

|Aut| and |Nilp_k| are counted at a prime by aut_count and nilp_count.  The
bundle series takes the same exponents, aut_exponent and nilp_exponent,
with q symbolic: each triple adds q^{nilp - aut} / aut_q(mu) to an integer
count, scaled by 1/(q-1)^n once per coefficient.
"""

from __future__ import annotations

from itertools import permutations, product
from math import comb

from .scalar import (ONE, Q, MonomialSeries, QtScalar, TSeries, compare,
                     fail)
from .labels import (_sorted_m_vectors, _sorted_triples_over,
                     is_sorted_triple, mu_partition, triple_series)


def hom_dim(src, dst):
    """dim Hom(O(m'; a', b') -> O(m; a, b))."""
    mp, ap, bp = src
    m, a, b = dst
    return max(1 + m - mp - (1 if ap < a else 0) - (1 if bp < b else 0), 0)


def ext_dim(src, dst):
    mp, ap, bp = src
    m, a, b = dst
    return max(mp - m - 1 + (1 if ap < a else 0) + (1 if bp < b else 0), 0)


def bundle_le(L, Lp):
    """The total order: (m, -a, -b) lexicographically."""
    m, a, b = L
    mp, ap, bp = Lp
    return (m, -a, -b) <= (mp, -ap, -bp)


def _c_matrix(m, a, b):
    n = len(m)
    return [[m[i] - m[j] - (1 if a[j] < a[i] else 0) - (1 if b[j] < b[i] else 0)
             for j in range(n)] for i in range(n)]


def aut_exponent(m, a, b):
    """sum over i < j of max(1 + c_ij, 0) = off-diagonal Hom dimensions."""
    c = _c_matrix(m, a, b)
    n = len(m)
    return sum(max(1 + c[i][j], 0) for i in range(n) for j in range(i + 1, n))


def nilp_exponent(m, a, b, k):
    """|Nilp_k| = q^{nilp_exponent}: sum over i < j of max(1 - k + c_ij, 0),
    plus the nilpotent cone of each diagonal block at k = 0."""
    c = _c_matrix(m, a, b)
    n = len(m)
    e = sum(max(1 - k + c[i][j], 0) for i in range(n) for j in range(i + 1, n))
    if k == 0:
        e += sum(comb(r, 2) for r in mu_partition(zip(m, a, b)))
    return e


def aut_count(m, a, b, q):
    """|Aut| over F_q: (q-1)^n q^{aut_exponent} prod_r [r]_q! over the
    multiplicities r of the columns."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    out = (q - 1) ** len(m) * q ** aut_exponent(m, a, b)
    for r in mu_partition(zip(m, a, b)):
        for j in range(2, r + 1):
            out *= (q ** j - 1) // (q - 1)
    return out


def nilp_count(m, a, b, k, q):
    """|Nilp_k| over F_q."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    return q ** nilp_exponent(m, a, b, k)


# ---------------------------------------------------------------------------
# brute-force prime-field oracle


_DIM_CAPS = {2: 14, 3: 9, 5: 6}


def _hom_window(src, dst):
    mp, ap, bp = src
    m, a, b = dst
    lo = 1 if ap < a else 0
    hi = m - mp - (1 if bp < b else 0)
    return range(lo, hi + 1)


def _endomorphism_slots(m, a, b):
    """(i, j, e): the coefficient of z^e in the map L_j -> L_i."""
    n = len(m)
    bundles = list(zip(m, a, b))
    return [(i, j, e) for i in range(n) for j in range(n)
            for e in _hom_window(bundles[j], bundles[i])]


def _check_dim_cap(dim, p):
    """ValueError when the oracle has no cap for p, or F_p^dim is too large
    to enumerate."""
    cap = _DIM_CAPS.get(p)
    if cap is None:
        raise ValueError(f"the finite-field oracle supports only the primes "
                         f"{', '.join(map(str, _DIM_CAPS))}, got {p}")
    if dim > cap:
        raise ValueError(f"endomorphism dimension {dim} over F_{p} exceeds the cap")


def _poly_mul_mod(f, g, p):
    if not f or not g:
        return {}
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _mat_mul_mod(A, B, p, n):
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = {}
            for l in range(n):
                for e, c in _poly_mul_mod(A[i][l], B[l][j], p).items():
                    acc[e] = (acc.get(e, 0) + c) % p
            out[i][j] = {e: c for e, c in acc.items() if c}
    return out


def _det_mod(A, p, n):
    """Determinant of the polynomial matrix; a bundle endomorphism always
    has constant determinant, asserted here."""
    total = {}
    for sigma in permutations(range(n)):
        invs = sum(1 for i in range(n) for j in range(i + 1, n)
                   if sigma[i] > sigma[j])
        term = {0: 1 if invs % 2 == 0 else p - 1}
        for i in range(n):
            term = _poly_mul_mod(term, A[i][sigma[i]], p)
            if not term:
                break
        for e, c in term.items():
            total[e] = (total.get(e, 0) + c) % p
    total = {e: c for e, c in total.items() if c}
    if any(e != 0 for e in total):
        raise AssertionError("endomorphism determinant is not constant")
    return total.get(0, 0)


def brute_force_counts(m, a, b, p, k, points):
    """Exhaustive (|Aut|, |Nilp_k|) over F_p.

    Endomorphisms are matrices of window polynomials; automorphisms are
    those with nonzero (constant) determinant, and Nilp_k members satisfy
    theta^n = 0 and vanish at the given points.
    """
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    if len(points) != k:
        raise ValueError("need exactly k vanishing points")
    if any(s % p == 0 for s in points):
        raise ValueError("vanishing points must avoid 0 and infinity")
    n = len(m)
    slots = _endomorphism_slots(m, a, b)
    dim = len(slots)
    _check_dim_cap(dim, p)
    auts = 0
    nilps = 0
    for values in product(range(p), repeat=dim):
        mat = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, e), v in zip(slots, values):
            if v:
                mat[i][j][e] = v
        if _det_mod(mat, p, n):
            auts += 1
            continue
        if any(sum(c * pow(s, e, p) for e, c in mat[i][j].items()) % p
               for s in points for i in range(n) for j in range(n)):
            continue
        power = mat
        for _ in range(n - 1):
            power = _mat_mul_mod(power, mat, p, n)
        if all(not power[i][j] for i in range(n) for j in range(n)):
            nilps += 1
    return auts, nilps


# ---------------------------------------------------------------------------
# series


def bundle_side_series(n, k, N, degree):
    """q^{k binom(n,2)} sum over sorted triples of t^{|m|} X_a Y_b
    |Nilp_k| / |Aut| with symbolic q.

    |Nilp_k| / |Aut| is q^{nilp_exponent - aut_exponent} / ((q-1)^n aut_q(mu))
    for the column multiplicities mu, so each triple is counted as one
    q-power over aut_q(mu) and 1/(q-1)^n scales the sum."""
    pref = k * comb(n, 2)

    def term(m, a, b):
        return (pref + nilp_exponent(m, a, b, k) - aut_exponent(m, a, b),
                mu_partition(zip(m, a, b)))

    return triple_series(n, N, degree, term, ONE / (Q - ONE) ** n)


def product_side_expansion(max_total, N, t_degree, q_degree):
    """The k = 0 product over (m, a, b, r) of (1 - x_a y_b t^m q^r), truncated
    to xy-degree <= max_total, t-degree and q-degree as given.

    Keys are (x_exponents, y_exponents, t_deg, q_deg) -> integer.
    """
    out = {((0,) * N, (0,) * N, 0, 0): 1}
    for mm in range(t_degree + 1):
        for av in range(1, N + 1):
            for bv in range(1, N + 1):
                for r in range(q_degree + 1):
                    new = dict(out)
                    for (xe, ye, td, qd), c in out.items():
                        if sum(xe) + 1 > max_total or td + mm > t_degree \
                                or qd + r > q_degree:
                            continue
                        nxe = list(xe)
                        nxe[av - 1] += 1
                        nye = list(ye)
                        nye[bv - 1] += 1
                        key = (tuple(nxe), tuple(nye), td + mm, qd + r)
                        new[key] = new.get(key, 0) - c
                        if not new[key]:
                            del new[key]
                    out = new
    return out


def verify_bundle_counts(nmax, mmax, lmax, primes, ks):
    """Formula-versus-oracle sweep; returns a report with any mismatch.

    Every (triple, prime) the sweep will enumerate is checked against the
    dimension cap first, so an oversized sweep fails before any work.
    """
    m_vectors = [m for n in range(1, nmax + 1) for d in range(n * mmax + 1)
                 for m in _sorted_m_vectors(n, d, mmax)]
    triples = list(_sorted_triples_over(m_vectors, lmax))
    # the vanishing points 1..k must avoid 0 mod p
    cases = [(p, k) for p in primes for k in ks if k < p]
    for m, a, b in triples:
        dim = len(_endomorphism_slots(m, a, b))
        for p, _ in cases:
            _check_dim_cap(dim, p)
    report = {"ok": True, "cases": 0, "failures": []}
    for m, a, b in triples:
        for p, k in cases:
            points = list(range(1, k + 1))
            auts, nilps = brute_force_counts(m, a, b, p, k, points)
            fa = aut_count(m, a, b, q=p)
            fn = nilp_count(m, a, b, k, q=p)
            report["cases"] += 1
            if (auts, nilps) != (fa, fn):
                return fail(report, "oracle", {
                    "triple": (m, a, b), "p": p, "k": k,
                    "oracle": (auts, nilps), "formula": (fa, fn)})
    return report


def verify_bundle_series(n, k, N, degree):
    """The bundle series equals (-1)^n times the combinatorial enumerator."""
    from .omega import OmegaQuery, omega_series
    lhs = bundle_side_series(n, k, N, degree)
    rhs = omega_series(OmegaQuery(n, k, N, degree)).scale(
        QtScalar.from_int((-1) ** n))
    return compare(lhs, rhs, n=n, k=k, N=N, D=degree)


def verify_bundles(n, k, N, D, primes, mmax, lmax, qdegree):
    """The counting formulas against the finite-field oracle over ranks up to
    n and automorphism degrees 0..k, the bundle series at rank n, and the
    product identity through t-degree D - 1, in one report.

    Each k is checked only over the primes p > k, so every k in 0..k needs
    the largest prime above it; otherwise this is a ValueError."""
    if max(primes) <= k:
        raise ValueError(f"--k {k} needs a prime above it in --primes, "
                         f"got largest prime {max(primes)}")
    counts = verify_bundle_counts(n, mmax, lmax, primes, tuple(range(k + 1)))
    series = verify_bundle_series(n, max(k, 1), N, D)
    prod = verify_product_identity(min(n + 1, 3), N, D - 1, qdegree)
    return {"counts": counts, "series": series, "product": prod,
            "ok": counts["ok"] and series["equal"] and prod["equal"]}


def verify_product_identity(max_total, N, t_degree, q_degree):
    """Sum over ranks of the k = 0 bundle series, q,t-expanded, against the
    direct truncated product expansion; each coefficient compared is a
    q-polynomial truncated at q_degree."""
    combined = {}
    for n in range(1, max_total + 1):
        series = bundle_side_series(n, 0, N, t_degree)
        for (xe, ye), ts in series.table.items():
            for td in range(t_degree + 1):
                for (qd, _), c in ts[td].qt_expand(q_degree, 0).items():
                    # the constant term of (q-1)^n aut_q(mu) is +-1
                    if c.denominator != 1:
                        raise AssertionError(f"q-expansion coefficient {c}")
                    key = (xe, ye, td, qd)
                    combined[key] = combined.get(key, 0) + c.numerator
    product_side = product_side_expansion(max_total, N, t_degree, q_degree)
    product_side = {key: c for key, c in product_side.items() if any(key[0])}
    return compare(_q_polynomial_series(combined, N, t_degree),
                   _q_polynomial_series(product_side, N, t_degree),
                   max_total=max_total, N=N, t_degree=t_degree,
                   q_degree=q_degree)


def _q_polynomial_series(coeffs, N, t_degree):
    """{(x_exp, y_exp, t_deg, q_deg): integer} as a MonomialSeries over
    x_1..x_N, y_1..y_N whose coefficients are polynomials in q."""
    rows = {}
    for (xe, ye, td, qd), c in coeffs.items():
        polys = rows.setdefault((xe, ye), [{} for _ in range(t_degree + 1)])
        polys[td][(qd, 0)] = c
    return MonomialSeries(N, N, t_degree, {
        key: TSeries(t_degree, [QtScalar(p) for p in polys])
        for key, polys in rows.items()})
