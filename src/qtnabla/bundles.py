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

from functools import lru_cache
from itertools import permutations, product
from math import comb

from .scalar import ONE, Q, QtScalar, SeriesBuilder, compare, fail
from .labels import (_sorted_m_vectors, _sorted_triples_over,
                     is_sorted_triple, mu_partition, triple_series)


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


def _coeffs_mod(out, p):
    """The coefficient tuple of a list of integers mod p, with no trailing
    zero; the zero polynomial is ()."""
    out = [c % p for c in out]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _poly_mul_mod(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g):
                out[i + j] += c * d
    return _coeffs_mod(out, p)


def _poly_add_mod(f, g, p):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, d in enumerate(g):
        out[i] += d
    return _coeffs_mod(out, p)


class _Table(dict):
    """op(f, g) over F_p for coefficient tuples f and g, each pair worked
    out once per oracle call."""

    def __init__(self, op, p):
        super().__init__()
        self.op = op
        self.p = p

    def __missing__(self, key):
        out = self[key] = self.op(*key, self.p)
        return out


def _window_polys(window, p):
    """Every polynomial over F_p supported on the window of exponents."""
    pad = (0,) * window.start
    return [_coeffs_mod(pad + values, p)
            for values in product(range(p), repeat=len(window))]


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """(cells, True when sigma is odd) over the permutations sigma of
    range(n), where cells lists the flat positions i n + sigma(i)."""
    return tuple((tuple(i * n + s for i, s in enumerate(sigma)),
                  sum(1 for i in range(n) for j in range(i + 1, n)
                      if sigma[i] > sigma[j]) % 2 == 1)
                 for sigma in permutations(range(n)))


def _det_mod(flat, p, n, times, plus):
    """Determinant of the polynomial matrix whose rows are laid end to end
    in flat, its products and sums read from the tables; a bundle
    endomorphism always has constant determinant, asserted here."""
    total = ()
    minus_one = (p - 1,)
    for cells, odd in _signed_permutations(n):
        term = minus_one if odd else (1,)
        for c in cells:
            term = times[term, flat[c]]
            if not term:
                break
        else:
            total = plus[total, term]
    if len(total) > 1:
        raise AssertionError("endomorphism determinant is not constant")
    return total[0] if total else 0


def _mat_mul_mod(A, B, n, times, plus):
    out = []
    for row in A:
        out_row = []
        for j in range(n):
            acc = ()
            for f, col in zip(row, B):
                if f and col[j]:
                    g = times[f, col[j]]
                    acc = plus[acc, g] if acc else g
            out_row.append(acc)
        out.append(out_row)
    return out


def brute_force_counts(m, a, b, p, points):
    """Exhaustive |Aut| and every |Nilp_j| over F_p, in one walk.

    Endomorphisms are matrices of window polynomials; automorphisms are
    those with nonzero (constant) determinant, and Nilp_j members satisfy
    theta^n = 0 and vanish at the first j points.  Returns (auts, nilps)
    with nilps[j] = |Nilp_j| for j = 0..len(points).  Each entry's
    polynomials are listed once as coefficient tuples, each with its depth,
    the number of leading points at which it vanishes; a nilpotent matrix
    lies in Nilp_j exactly for the j up to the least depth of its entries.
    Every product or sum of two polynomials is worked out once, in tables
    shared by all p^dim matrices.
    """
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    if any(s % p == 0 for s in points):
        raise ValueError("vanishing points must avoid 0 and infinity")
    n = len(m)
    dim = len(_endomorphism_slots(m, a, b))
    _check_dim_cap(dim, p)
    bundles = list(zip(m, a, b))
    entries = [_window_polys(_hom_window(bundles[j], bundles[i]), p)
               for i in range(n) for j in range(n)]
    depth = {}
    for polys in entries:
        for f in polys:
            d = 0
            for s in points:
                if sum(c * pow(s, e, p) for e, c in enumerate(f)) % p:
                    break
                d += 1
            depth[f] = d
    times, plus = _Table(_poly_mul_mod, p), _Table(_poly_add_mod, p)
    auts = 0
    at_depth = [0] * (len(points) + 1)
    for flat in product(*entries):
        if _det_mod(flat, p, n, times, plus):
            auts += 1
            continue
        power = mat = [flat[i * n:(i + 1) * n] for i in range(n)]
        for _ in range(n - 1):
            power = _mat_mul_mod(power, mat, n, times, plus)
        if not any(map(any, power)):
            at_depth[min(map(depth.__getitem__, flat))] += 1
    for j in range(len(points) - 1, -1, -1):
        at_depth[j] += at_depth[j + 1]
    return auts, tuple(at_depth)


# ---------------------------------------------------------------------------
# series


def bundle_side_series(n, k, N, degree):
    """q^{k binom(n,2)} sum over sorted triples of t^{|m|} X_a Y_b
    |Nilp_k| / |Aut| with symbolic q.

    |Nilp_k| / |Aut| is q^{nilp_exponent - aut_exponent} / ((q-1)^n aut_q(mu))
    for the column multiplicities mu, so each triple is counted as one
    q-power over aut_q(mu) and 1/(q-1)^n scales the sum.  The q-power is a
    pair weight (labels.triple_series): the pair i < j adds k, its share of
    k binom(n,2), plus max(1 - k + c_ij, 0) - max(1 + c_ij, 0); at k = 0 a
    pair of equal columns adds 1 more, binom(r, 2) per multiplicity r."""
    def weight(delta, ai, aj, bi, bj):
        c = delta - (aj < ai) - (bj < bi)
        w = k + max(1 - k + c, 0) - max(1 + c, 0)
        if k == 0 and delta == 0 and ai == aj and bi == bj:
            w += 1
        return w

    return triple_series(n, N, degree, weight, ONE / (Q - ONE) ** n)


def product_side_expansion(max_total, N, t_degree, q_degree):
    """The k = 0 product over (m, a, b, r) of (1 - x_a y_b t^m q^r), truncated
    to xy-degree <= max_total, t-degree and q-degree as given.

    Keys are (x_exponents, y_exponents, t_deg, q_deg) -> integer.  Each
    factor raises the xy-degree by one, so the terms are kept in layers of
    xy-degree, each grouped by (t_deg, q_deg); a factor is multiplied in
    from the top layer down, so every layer it extends is read before the
    factor changes it, and only the groups it can extend are read.
    """
    zero = (0,) * N
    layers = [{} for _ in range(max_total + 1)]
    layers[0][0, 0] = {(zero, zero): 1}
    for mm in range(t_degree + 1):
        for av in range(N):
            for bv in range(N):
                for r in range(q_degree + 1):
                    for d in range(max_total - 1, -1, -1):
                        upper = layers[d + 1]
                        for (td, qd), terms in layers[d].items():
                            if td + mm > t_degree or qd + r > q_degree:
                                continue
                            target = upper.setdefault((td + mm, qd + r), {})
                            for (xe, ye), c in terms.items():
                                key = (xe[:av] + (xe[av] + 1,) + xe[av + 1:],
                                       ye[:bv] + (ye[bv] + 1,) + ye[bv + 1:])
                                v = target.get(key, 0) - c
                                if v:
                                    target[key] = v
                                else:
                                    del target[key]
    return {(xe, ye, td, qd): c for layer in layers
            for (td, qd), terms in layer.items()
            for (xe, ye), c in terms.items()}


def verify_bundle_counts(nmax, mmax, lmax, primes, ks):
    """Formula-versus-oracle sweep; returns a report with any mismatch.

    Each k is a case over every prime p > k, since the vanishing points
    1..k must avoid 0 mod p.  The oracle walks each (triple, prime) once,
    with the points 1..max k, and its counts are compared case by case.
    Every (triple, prime) the sweep will enumerate is checked against the
    dimension cap first, so an oversized sweep fails before any work.
    """
    m_vectors = [m for n in range(1, nmax + 1) for d in range(n * mmax + 1)
                 for m in _sorted_m_vectors(n, d, mmax)]
    triples = list(_sorted_triples_over(m_vectors, lmax))
    walks = [(p, [k for k in ks if k < p]) for p in primes]
    walks = [(p, p_ks) for p, p_ks in walks if p_ks]
    for m, a, b in triples:
        dim = len(_endomorphism_slots(m, a, b))
        for p, _ in walks:
            _check_dim_cap(dim, p)
    report = {"ok": True, "cases": 0, "failures": []}
    for m, a, b in triples:
        for p, p_ks in walks:
            auts, nilps = brute_force_counts(m, a, b, p,
                                             list(range(1, max(p_ks) + 1)))
            fa = aut_count(m, a, b, q=p)
            for k in p_ks:
                fn = nilp_count(m, a, b, k, q=p)
                report["cases"] += 1
                if (auts, nilps[k]) != (fa, fn):
                    return fail(report, "oracle", {
                        "triple": (m, a, b), "p": p, "k": k,
                        "oracle": (auts, nilps[k]), "formula": (fa, fn)})
    return report


def verify_bundle_series(n, k, N, degree):
    """The bundle series equals (-1)^n times the combinatorial enumerator.
    The identity is stated for k >= 1, and at k = 0 the two sides differ,
    so k must be positive, as in verify_main."""
    if k < 1:
        raise ValueError("k must be positive")
    from .omega import omega_series
    lhs = bundle_side_series(n, k, N, degree)
    rhs = omega_series(n, k, N, degree).scale(
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
    lhs = SeriesBuilder(N, N, t_degree)
    for n in range(1, max_total + 1):
        series = bundle_side_series(n, 0, N, t_degree)
        for key, ts in series.table.items():
            for td in range(t_degree + 1):
                for (qd, _), c in ts[td].qt_expand(q_degree, 0).items():
                    # the constant term of (q-1)^n aut_q(mu) is +-1
                    if c.denominator != 1:
                        raise AssertionError(f"q-expansion coefficient {c}")
                    lhs.add(key, td, qd, count=c.numerator)
    rhs = SeriesBuilder(N, N, t_degree)
    for (xe, ye, td, qd), c in product_side_expansion(
            max_total, N, t_degree, q_degree).items():
        if any(xe):
            rhs.add((xe, ye), td, qd, count=c)
    return compare(lhs.build(), rhs.build(), max_total=max_total, N=N,
                   t_degree=t_degree, q_degree=q_degree)
