"""Retired production routes, kept as independent oracles for the tests,
and the paper objects that only the tests state.

Each retired route was the production route until a faster one replaced
it; the tests compare the replacement with it wherever it can still run.
The paper objects (Young subgroups and double cosets, bundle Hom and Ext
dimensions, the crossing move, column sorting, the k = 0 Cauchy sum, the
quasi-symmetric monomial, the monomials of a fundamental quasi-symmetric
function) are stated and checked by the tests, and no subcommand computes
them.
"""

from functools import lru_cache
from bisect import insort
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb

from qtnabla.affine import (AffinePermutation, _coset_max_witness, dimv,
                            edges, iter_wplus_graded, left_coset_min_max,
                            paff, rational_area_sequence)
from qtnabla.bundles import (_c_matrix, _endomorphism_slots, aut_exponent,
                             bundle_side_series, nilp_exponent,
                             product_side_expansion)
from qtnabla.involution import (VanQuadruple, _from_columns, _key,
                                _reversed_key, attacks_rev)
from qtnabla.labels import (alpha_composition, attack_path, content, dinv_k,
                            inv_pi, is_sorted_triple, iter_sorted_triples,
                            mu_partition, triple_series)
from qtnabla.macdonald import (_rho, _signed_w_inverse_series, eigenvalue,
                               htilde_norm, modified_macdonald)
from qtnabla.omega import _permutation_coefficient
from qtnabla.scalar import (ONE, Q, T, ZERO, MonomialSeries, QtScalar,
                            SeriesBuilder, TSeries,
                            aut_q, fail)
from qtnabla.symfunc import Poly, partitions, plethysm_p_scale


# ---------------------------------------------------------------------------
# per-term rational addition, the route SeriesBuilder counts in integers


class RationalSum:
    """Accumulates sum of num/den pairs grouped by denominator.

    Cheaper than repeated QtScalar addition when denominators repeat,
    which they do heavily in the enumeration sums (aut_q values).
    """

    __slots__ = ("_groups",)

    def __init__(self):
        self._groups = {}

    def add(self, num_scalar, den_scalar=None):
        den = den_scalar if den_scalar is not None else ONE
        key = den._key
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = [den, num_scalar]
        else:
            group[1] = group[1] + num_scalar

    def total(self):
        out = ZERO
        for den, num in self._groups.values():
            out = out + num / den
        return out


class PerTermBuilder:
    """scalar.SeriesBuilder's interface, adding every term as a QtScalar
    count * q^q_exp / aut_q(mu) through RationalSum."""

    def __init__(self, nx, ny, degree):
        self.nx = nx
        self.ny = ny
        self.degree = degree
        self._acc = {}
        self._auts = {}  # mu -> aut_q(mu)

    def add(self, key, t_deg, q_exp, mu=(), count=1):
        den = self._auts.get(mu)
        if den is None:
            den = self._auts[mu] = aut_q(mu)
        self.add_term(key, t_deg, QtScalar.monomial(c=count, q=q_exp), den)

    def add_term(self, key, t_deg, num, den):
        """Add num / den at t^t_deg."""
        slots = self._acc.setdefault(key, [None] * (self.degree + 1))
        if slots[t_deg] is None:
            slots[t_deg] = RationalSum()
        slots[t_deg].add(num, den)

    def build(self, scale=ONE):
        table = {key: TSeries(self.degree, [
                     s.total() * scale if s is not None else ZERO
                     for s in slots])
                 for key, slots in self._acc.items()}
        return MonomialSeries(self.nx, self.ny, self.degree, table)


def label_sum_per_term(path, N, proper):
    """labels.xi_pi (proper false) or labels.chromatic (proper true), one
    QtScalar monomial added per label word."""
    terms = {}
    for b in product(range(1, N + 1), repeat=path.n):
        if proper and any(b[i - 1] == b[j - 1] for i, j in path.dset):
            continue
        key = ((), tuple(b.count(v) for v in range(1, N + 1)))
        c = QtScalar.monomial(q=inv_pi(path, b))
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return Poly(0, N, terms)


def label_sum_by_words(path, N, proper):
    """labels.xi_pi (proper false) or labels.chromatic (proper true) by the
    word loop that the F-expansion replaced: every label word in [N]^n,
    an integer count per (y-monomial, inversion number)."""
    counts = {}  # y exponents -> {(inv, 0): number of labels}
    for b in product(range(1, N + 1), repeat=path.n):
        if proper and any(b[i - 1] == b[j - 1] for i, j in path.dset):
            continue
        tally = counts.setdefault(content(b, N), {})
        qt = (inv_pi(path, b), 0)
        tally[qt] = tally.get(qt, 0) + 1
    return Poly(0, N, {((), exps): QtScalar(c) for exps, c in counts.items()})


def fundamental_monomials(n, N, descents):
    """The exponent vectors of the fundamental quasi-symmetric F_{n,D} in
    x_1..x_N: one per weakly increasing i_1 <= ... <= i_n in 1..N with
    i_j < i_{j+1} at every j in D, each with coefficient 1.

    Lowering i_j by the number of descents before j makes the sequence
    weakly increasing in 1..N-|D|, so there are C(N+n-1-|D|, n) of them.
    """
    shift = [sum(1 for d in descents if d < j) for j in range(1, n + 1)]
    out = []
    for seq in combinations_with_replacement(range(N - len(descents)), n):
        exps = [0] * N
        for i, s in zip(seq, shift):
            exps[i + s] += 1
        out.append(tuple(exps))
    return out


def bundle_sweep_triples(nmax, mmax, lmax):
    """The triples of bundles.verify_bundle_counts by sorting every word
    (m, a, b) of rank up to nmax, with m-entries up to mmax and labels up
    to lmax, keeping the first occurrence of each."""
    triples = []
    for n in range(1, nmax + 1):
        seen = set()
        for mvec in product(range(mmax + 1), repeat=n):
            for avec in product(range(1, lmax + 1), repeat=n):
                for bvec in product(range(1, lmax + 1), repeat=n):
                    triple = sort_triple(mvec, avec, bvec)
                    if triple not in seen:
                        seen.add(triple)
                        triples.append(triple)
    return triples


def aut_q_of(*cols):
    """aut_q of the multiplicity partition of the column tuples."""
    return aut_q(mu_partition(list(zip(*cols))))


# ---------------------------------------------------------------------------
# the bundle counts with symbolic q


def aut_count_symbolic(m, a, b):
    """|Aut| as a function of q: (q-1)^n aut_q q^{aut_exponent}."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    mult = mu_partition(list(zip(m, a, b)))
    return ((Q - ONE) ** len(m) * aut_q(mult)
            * QtScalar.monomial(q=aut_exponent(m, a, b)))


def nilp_count_symbolic(m, a, b, k):
    """|Nilp_k| as a function of q."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    return QtScalar.monomial(q=nilp_exponent(m, a, b, k))


def bundle_side_series_per_term(n, k, N, degree):
    """bundle_side_series as one rational term q^{k binom(n,2)} |Nilp_k| / |Aut|
    per sorted triple."""
    builder = PerTermBuilder(N, N, degree)
    pref = QtScalar.monomial(q=k * comb(n, 2))
    for d in range(degree + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            xe = tuple(a.count(v) for v in range(1, N + 1))
            ye = tuple(b.count(v) for v in range(1, N + 1))
            builder.add_term((xe, ye), d, nilp_count_symbolic(m, a, b, k) * pref,
                             aut_count_symbolic(m, a, b))
    return builder.build()


# ---------------------------------------------------------------------------
# the sorted-triple series one triple at a time, the route the block walk
# of labels.triple_series replaced, and the squarefree coefficient by
# filtering every pair of label permutations


def triple_series_by_triples(n, N, D, term, scale):
    """scale times the sum over sorted triples (m, a, b) with |m| <= D and
    labels bounded by N of t^{|m|} q^{q_exp} X_a Y_b / aut_q(mu), where
    term(m, a, b) gives (q_exp, mu), or None to leave the triple out."""
    builder = SeriesBuilder(N, N, D)
    for d in range(D + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            weight = term(m, a, b)
            if weight is not None:
                builder.add((content(a, N), content(b, N)), d, *weight)
    return builder.build(scale)


def omega_series_by_triples(n, k, N, D):
    def term(m, a, b):
        return dinv_k(m, a, b, k), mu_partition(zip(m, a, b))

    return triple_series_by_triples(n, N, D, term, (ONE / (ONE - Q)) ** n)


def omega_sub_y_by_triples(n, k, N, D):
    def term(m, a, b):
        path = attack_path(m, a, k)
        if any(b[i - 1] == b[j - 1] for i, j in path.dset):
            return None
        return dinv_k(m, a, b, k), ()

    return triple_series_by_triples(n, N, D, term,
                                    QtScalar.from_int((-1) ** n))


def exponent_gap(m, a, b, k, mu):
    """nilp_exponent - aut_exponent from one c matrix, where mu is the
    multiplicity partition of the columns."""
    c = _c_matrix(m, a, b)
    n = len(m)
    gap = sum(max(1 - k + c[i][j], 0) - max(1 + c[i][j], 0)
              for i in range(n) for j in range(i + 1, n))
    if k == 0:
        gap += sum(comb(r, 2) for r in mu)
    return gap


def bundle_side_series_by_triples(n, k, N, D):
    pref = k * comb(n, 2)

    def term(m, a, b):
        mu = mu_partition(zip(m, a, b))
        return pref + exponent_gap(m, a, b, k, mu), mu

    return triple_series_by_triples(n, N, D, term, ONE / (Q - ONE) ** n)


def cauchy_combinatorial_by_triples(n, N, D):
    def term(m, a, b):
        mu = mu_partition(zip(m, a, b))
        return sum(r * (r - 1) // 2 for r in mu), mu

    return triple_series_by_triples(n, N, D, term, (ONE / (ONE - Q)) ** n)


def hilbert_coefficient_by_filter(n, k, degree):
    """omega.hilbert_coefficient over every pair of label permutations per
    m, kept when the triple is sorted."""
    return _permutation_coefficient(n, k, degree,
                                    list(permutations(range(1, n + 1))))


# ---------------------------------------------------------------------------
# the truncated product with the whole expansion copied and rescanned for
# each factor, the route the layers by xy-degree replaced


def product_side_expansion_by_copies(max_total, N, t_degree, q_degree):
    """bundles.product_side_expansion, one copy of the dict per factor."""
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


# ---------------------------------------------------------------------------
# the two sides of the product identity as integer dicts, each made a series
# by its own assembler, the route SeriesBuilder replaced


def product_identity_sides(max_total, N, t_degree, q_degree):
    """The (lhs, rhs) that bundles.verify_product_identity compares."""
    combined = {}
    for n in range(1, max_total + 1):
        series = bundle_side_series(n, 0, N, t_degree)
        for (xe, ye), ts in series.table.items():
            for td in range(t_degree + 1):
                for (qd, _), c in ts[td].qt_expand(q_degree, 0).items():
                    assert c.denominator == 1, c
                    key = (xe, ye, td, qd)
                    combined[key] = combined.get(key, 0) + c.numerator
    product_side = product_side_expansion(max_total, N, t_degree, q_degree)
    product_side = {key: c for key, c in product_side.items() if any(key[0])}
    return (_q_polynomial_series(combined, N, t_degree),
            _q_polynomial_series(product_side, N, t_degree))


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


# ---------------------------------------------------------------------------
# the finite-field oracle over dict polynomials, each product formed anew,
# the route that tabulated coefficient tuples replaced


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


def brute_force_counts_by_dicts(m, a, b, p, k, points):
    """Exhaustive (|Aut|, |Nilp_k|) over F_p, as bundles.brute_force_counts
    without its input checks: every entry a dict {exponent: coefficient}."""
    n = len(m)
    slots = _endomorphism_slots(m, a, b)
    auts = 0
    nilps = 0
    for values in product(range(p), repeat=len(slots)):
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
# Gauss-Jordan elimination, the route that the *-pairing expansion replaced


@lru_cache(maxsize=None)
def htilde_inverse_by_elimination(n):
    """For each partition mu of n, the expansion of m_mu in the H-tilde
    basis, by inverting the (H~_lam -> monomial) matrix."""
    lams = list(partitions(n))
    idx = {lam: i for i, lam in enumerate(lams)}
    size = len(lams)
    mat = [[ZERO] * size for _ in range(size)]
    inv = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    for i, lam in enumerate(lams):
        for mu, c in modified_macdonald(lam).terms.items():
            mat[i][idx[mu]] = c
    for col in range(size):
        pivot = next((r for r in range(col, size) if not mat[r][col].is_zero()), None)
        if pivot is None:
            raise AssertionError("H-tilde to monomial matrix is singular")
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        lead = mat[col][col]
        mat[col] = [c / lead for c in mat[col]]
        inv[col] = [c / lead for c in inv[col]]
        for r in range(size):
            if r != col and not mat[r][col].is_zero():
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    # row i now reads: m_{lams[i]} = sum_j inv[i][j] * H-tilde_{lams[j]}
    return {lams[i]: {lams[j]: inv[i][j] for j in range(size)
                      if not inv[i][j].is_zero()}
            for i in range(size)}


def to_htilde_dict_by_elimination(f):
    """macdonald.to_htilde_dict through the inverted matrix."""
    f = f.convert("m")
    out = {}
    for mu, c in f.terms.items():
        for lam, v in htilde_inverse_by_elimination(sum(mu))[mu].items():
            prev = out.get(lam)
            val = c * v
            out[lam] = val if prev is None else prev + val
    return {lam: c for lam, c in out.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# the Cauchy outer product term by term, the route that the integer
# t-expansion of each 1/w_lam replaced


def cauchy_outer_product_per_term(n, k, N, D, x_side, y_side):
    """sum over lam of eigenvalue^k x_side(H~_lam) y_side(H~_lam) divided by
    the norm <H~_lam, H~_lam>_*, one QtScalar and one t_expand per
    (lam, x-coefficient, y-coefficient): symmetric sides repeat each
    coefficient pair across many monomials.

    x_side and y_side turn H~_lam into its Poly over x_1..x_N and y_1..y_N.
    """
    table = {}
    for lam in partitions(n):
        h = modified_macdonald(lam)
        hx = x_side(h)
        hy = y_side(h)
        scale = eigenvalue(lam, k) / htilde_norm(lam)
        expanded = {}
        for (xe, _), cx in hx.terms.items():
            for (_, ye), cy in hy.terms.items():
                series = expanded.get((cx, cy))
                if series is None:
                    series = expanded[cx, cy] = (cx * cy * scale).t_expand(D)
                key = (xe, ye)
                prev = table.get(key)
                table[key] = series if prev is None else prev + series
    return MonomialSeries(N, N, D, table)


def cauchy_macdonald_series_per_term(n, k, N, D):
    """macdonald.cauchy_macdonald_series through the per-term route."""
    return cauchy_outer_product_per_term(
        n, k, N, D, lambda h: h.expand(N, "x"), lambda h: h.expand(N, "y"))


def macdonald_substituted_series_per_term(n, k, N, D):
    """involution.macdonald_substituted_series through the per-term route."""
    return cauchy_outer_product_per_term(
        n, k, N, D,
        lambda h: plethysm_p_scale(h, lambda r: T ** r - ONE).expand(N, "x"),
        lambda h: plethysm_p_scale(h, lambda r: Q ** r - ONE).expand(N, "y"))


# ---------------------------------------------------------------------------
# the Macdonald lambda-sum in dicts, the route that its Kronecker-packed ints
# replaced


def _times_polynomial(series, poly, D):
    """An integer t-series times a polynomial {(q_exp, t_exp): integer},
    truncated at t^D."""
    out = [{} for _ in range(D + 1)]
    for (i, j), c in poly.items():
        for d in range(min(len(series), D + 1 - j)):
            row = out[d + j]
            for e, v in series[d].items():
                row[e + i] = row.get(e + i, 0) + c * v
    return out


def lambda_sum_by_dicts(n, k, D, sides, scale=ONE):
    """macdonald._lambda_sum with every product a dict convolution, and the
    terms over aut_q(rho(lam)) counted by SeriesBuilder."""
    builder = SeriesBuilder(0, 0, D)
    for lam in partitions(n):
        signed = _signed_w_inverse_series(lam, k, D)
        if signed is None:
            continue
        per_lam = _times_polynomial(*signed, D)
        rho = _rho(lam)
        xs, ys = sides(lam, modified_macdonald(lam))
        for mu, cx in xs.items():
            with_x = _times_polynomial(per_lam, cx, D)
            for nu, cy in ys.items():
                for d, row in enumerate(_times_polynomial(with_x, cy, D)):
                    for e, c in row.items():
                        if c:
                            builder.add((mu, nu), d, e, rho, c)
    return builder.build(scale / (Q - ONE) ** n).table


# ---------------------------------------------------------------------------
# the involution through the full pairwise table: sigma ranks and the n x n
# table per call, and the summation-set test rerun on every candidate move


def d_k_table(m, b, k):
    """The full pairwise table of the reverse-frame statistic."""
    n = len(m)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if m[i] > m[j]:
                table[i][j] = k + m[j] - m[i] + (1 if b[i] > b[j] else 0)
            else:
                table[i][j] = k - 1 + m[i] - m[j] + (1 if b[i] < b[j] else 0)
    return table


def in_vanset(quad, k):
    """Membership test for the quadruple summation set."""
    l, a, m, b = quad.l, quad.a, quad.m, quad.b
    n = quad.n
    if not 0 <= l <= n:
        return False
    if any(m[i] <= 0 for i in range(l)):
        return False
    cols = quad.columns()
    left = [_key(c) for c in cols[:l]]
    if any(left[i] < left[i + 1] for i in range(l - 1)):
        return False
    right = [_key(c) for c in cols[l:]]
    if any(right[i] > right[i + 1] for i in range(len(right) - 1)):
        return False
    for i in range(n):
        for j in range(i + 1, n):
            if attacks_rev(m[i], m[j], k) and b[i] == b[j]:
                return False
    return True


def sigma_ranks(quad):
    """The global sorting permutation: rank of each position under the key."""
    order = sorted(range(quad.n), key=lambda i: _key((quad.a[i], quad.m[i], quad.b[i])))
    ranks = [0] * quad.n
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return tuple(ranks)


def move_unchecked(quad, i):
    """Move column i (1-based) across the dividing line, re-sorting its side:
    the right side ascends under the key, the left side descends."""
    cols = quad.columns()
    col = cols.pop(i - 1)
    l = quad.l
    if i <= l:
        insort(cols, col, lo=l - 1, key=_key)
        return _from_columns(l - 1, cols)
    insort(cols, col, hi=l, key=_reversed_key)
    return _from_columns(l + 1, cols)


def landing_by_table(quad, i, k, ranks, table):
    """The move of column i when it is movable, else None: every
    sigma-earlier partner has both pairwise entries nonpositive, and the
    move stays in the set."""
    me = i - 1
    if any(ranks[j] < ranks[me] and (table[me][j] > 0 or table[j][me] > 0)
           for j in range(quad.n)):
        return None
    out = move_unchecked(quad, i)
    return out if in_vanset(out, k) else None


def iota_by_table(quad, k):
    """involution.iota through the table and the set test: move the movable
    column of smallest sigma rank."""
    ranks = sigma_ranks(quad)
    table = d_k_table(quad.m, quad.b, k)
    for i in sorted(range(1, quad.n + 1), key=lambda i: ranks[i - 1]):
        out = landing_by_table(quad, i, k, ranks, table)
        if out is not None:
            return out
    return quad


# ---------------------------------------------------------------------------
# the involution with per-column rescans: sigma and the pairwise table per
# candidate column, hand-written insertion loops, and a prefix rescan for
# attacks at every candidate column of the quadruple walk


def enumerate_van_by_rescan(n, k, degree, N, l_values=None):
    """involution.enumerate_van, rescanning the prefix for attacks."""
    left_pool = sorted(((a, m, b) for a in range(1, N + 1)
                        for m in range(1, degree + 1)
                        for b in range(1, N + 1)), key=_key, reverse=True)
    right_pool = sorted(((a, m, b) for a in range(1, N + 1)
                         for m in range(degree + 1)
                         for b in range(1, N + 1)), key=_key)

    def compatible(acc, col):
        mj, bj = col[1], col[2]
        return not any(b == bj and attacks_rev(m, mj, k) for _, m, b in acc)

    def rec(l, acc, budget, start):
        pos = len(acc)
        if pos == n:
            yield VanQuadruple(l,
                               tuple(c[0] for c in acc),
                               tuple(c[1] for c in acc),
                               tuple(c[2] for c in acc))
            return
        on_left = pos < l
        pool = left_pool if on_left else right_pool
        if on_left:
            reserve = l - pos - 1  # each remaining left slot needs m >= 1
        else:
            reserve = 0
        if pos == l:
            start = 0
        for idx in range(start, len(pool)):
            col = pool[idx]
            if col[1] + reserve > budget:
                continue
            if not compatible(acc, col):
                continue
            acc.append(col)
            yield from rec(l, acc, budget - col[1], idx)
            acc.pop()

    for l in (range(n + 1) if l_values is None else l_values):
        yield from rec(l, [], degree, 0)


def _insert_position(sorted_keys, key):
    p = 0
    while p < len(sorted_keys) and sorted_keys[p] <= key:
        p += 1
    return p


def move_by_scan(quad, i):
    """move_unchecked with hand-written insertion loops."""
    cols = quad.columns()
    col = cols.pop(i - 1)
    l = quad.l
    if i <= l:
        newl = l - 1
        right = cols[newl:]
        pos = newl + _insert_position([_key(c) for c in right], _key(col))
        cols.insert(pos, col)
    else:
        newl = l + 1
        keys = [_key(c) for c in cols[:l]]
        # descending side: insert keeping keys weakly decreasing
        p = 0
        while p < len(keys) and keys[p] >= _key(col):
            p += 1
        cols.insert(p, col)
    return VanQuadruple(newl,
                        tuple(c[0] for c in cols),
                        tuple(c[1] for c in cols),
                        tuple(c[2] for c in cols))


def movable_by_rescan(quad, i, k):
    """movable, building the move, sigma and the table anew."""
    if not in_vanset(move_by_scan(quad, i), k):
        return False
    ranks = sigma_ranks(quad)
    table = d_k_table(quad.m, quad.b, k)
    me = i - 1
    for j in range(quad.n):
        if ranks[j] < ranks[me]:
            if table[me][j] > 0 or table[j][me] > 0:
                return False
    return True


def iota_by_rescan(quad, k):
    """involution.iota through movable_by_rescan for each column."""
    ranks = sigma_ranks(quad)
    for i in sorted(range(1, quad.n + 1), key=lambda i: ranks[i - 1]):
        if movable_by_rescan(quad, i, k):
            return move_by_scan(quad, i)
    return quad


# ---------------------------------------------------------------------------
# the parking sum over label words, and over label permutations with the
# descent tuple rebuilt at every leaf and F_D expanded per descent set


def parking_terms(n, k, N):
    """All (m, a) with m_1 = 0, labels <= N, and PF at every position."""
    def rec(m, a):
        i = len(m)
        if i == n:
            yield tuple(m), tuple(a)
            return
        for mv in range(m[-1] + k + 1):
            if mv == m[-1] + k:
                labels = range(a[-1] + 1, N + 1)
            else:
                labels = range(1, N + 1)
            for av in labels:
                m.append(mv)
                a.append(av)
                yield from rec(m, a)
                m.pop()
                a.pop()

    for a1 in range(1, N + 1):
        yield from rec([0], [a1])


def parking_sum_by_descent_tuples(n, k, N):
    """shuffle.parking_sum with a free-label array, the descent tuple of
    each leaf rebuilt from its label positions, and every monomial of each
    F_D added to the coefficient of each (q, t) weight of D."""
    if k < 1:
        raise ValueError("k must be positive")
    by_descents = {}
    for (descents, qd, td), c in _descent_tuple_counts(n, k):
        by_descents.setdefault(descents, []).append(((qd, td), c))
    coeffs = {}  # x exponents -> {(q-deg, t-deg): integer}
    for descents, weights in by_descents.items():
        for exps in fundamental_monomials(n, N, descents):
            coeff = coeffs.setdefault(exps, {})
            for qt, c in weights:
                coeff[qt] = coeff.get(qt, 0) + c
    return Poly(N, 0, {(exps, ()): QtScalar(c) for exps, c in coeffs.items()})


def _dk_increment(m, a, mv, av, k):
    """New pairwise contributions when column (mv, av) is appended: the
    reversed pair formula of involution.d_k_rev, summed over the placed
    columns one by one, the loop that the packed table of parking_sum
    replaced."""
    total = 0
    for mi, ai in zip(m, a):
        if mi > mv:
            v = k + mv - mi + (1 if ai > av else 0)
        else:
            v = k - 1 + mi - mv + (1 if ai < av else 0)
        if v > 0:
            total += v
    return total


@lru_cache(maxsize=None)
def _descent_tuple_counts(n, k):
    """The walk of parking_sum_by_descent_tuples, the same for every N:
    ((descent set, q-deg, t-deg), number of (m, sigma)) pairs."""
    counts = {}  # (descent set, q-deg, t-deg) -> number of (m, sigma)
    free = [True] * (n + 1)

    def rec(m, a, stat, area):
        i = len(m)
        if i == n:
            pos = [0] * (n + 1)
            for p, v in enumerate(a):
                pos[v] = p
            descents = tuple(
                j for j in range(1, n)
                if (m[pos[j + 1]], pos[j + 1]) > (m[pos[j]], pos[j]))
            key = (descents, stat, area)
            counts[key] = counts.get(key, 0) + 1
            return
        for mv in range(m[-1] + k + 1):
            low = a[-1] + 1 if mv == m[-1] + k else 1
            for av in range(low, n + 1):
                if not free[av]:
                    continue
                inc = _dk_increment(m, a, mv, av, k)
                free[av] = False
                m.append(mv)
                a.append(av)
                rec(m, a, stat + inc, area + mv)
                m.pop()
                a.pop()
                free[av] = True

    for a1 in range(1, n + 1):
        free[a1] = False
        rec([0], [a1], 0, 0)
        free[a1] = True
    return tuple(counts.items())


# ---------------------------------------------------------------------------
# p in the monomial basis by counting, the route Hall duality replaced


@lru_cache(maxsize=None)
def _p_to_m_row(lam):
    """Monomial expansion of p_lam: {mu: integer coefficient}."""
    n = sum(lam)
    if n == 0:
        return {(): 1}
    L = len(lam)
    full = (1 << L) - 1
    subset_sum = [0] * (full + 1)
    for mask in range(1, full + 1):
        low = mask & -mask
        subset_sum[mask] = subset_sum[mask ^ low] + lam[low.bit_length() - 1]
    row = {}
    for mu in partitions(n):
        cur = {0: 1}
        for target in mu:
            nxt = {}
            for mask, ways in cur.items():
                comp = full & ~mask
                s = comp
                while True:
                    if subset_sum[s] == target:
                        key = mask | s
                        nxt[key] = nxt.get(key, 0) + ways
                    if s == 0:
                        break
                    s = (s - 1) & comp
            cur = nxt
        count = cur.get(full, 0)
        if count:
            row[mu] = count
    return row


# ---------------------------------------------------------------------------
# the affine group by listing: the identity, m-stability, Young subgroups,
# double cosets and their Bruhat extremes, the refined edge counts and the
# degree of the GKM leading form


def identity(n):
    return AffinePermutation(range(1, n + 1))


def is_m_stable(w, m):
    """w(i + m) > w(i) for all i; checked on one period, from the window."""
    window = w.window
    n = len(window)
    return all(window[(i + m) % n] + (i + m) - (i + m) % n > window[i]
               for i in range(n))


def canonical_transposition(n, a, b):
    """Shift (a, b) so that a lies in 1..n and a < b."""
    if a > b:
        a, b = b, a
    shift = ((a - 1) % n) - (a - 1)
    return (a + shift, b + shift)


def _refine(n, edge_list):
    out = {}
    for a, b in edge_list:
        i, j = sorted(((a - 1) % n + 1, (b - 1) % n + 1))
        out[(i, j)] = out.get((i, j), 0) + 1
    return out


def edges_refined(w, m):
    """Edge counts grouped by the residue-class pair {i, j}, 1 <= i < j <= n."""
    return _refine(w.n, edges(w, m))


@lru_cache(maxsize=None)
def young_subgroup(alpha):
    """All elements of S_alpha inside S_n, as one-line tuples; alpha is a
    tuple."""
    blocks = []
    start = 1
    for size in alpha:
        blocks.append(range(start, start + size))
        start += size
    return tuple(tuple(v for piece in pieces for v in piece)
                 for pieces in product(*(permutations(b) for b in blocks)))


def double_coset(w, alpha_left, alpha_right):
    """All elements of S_alpha_left . w . S_alpha_right."""
    out = set()
    right = young_subgroup(tuple(alpha_right))
    for pl in young_subgroup(tuple(alpha_left)):
        u = AffinePermutation(pl) * w
        for pr in right:
            out.add(u * AffinePermutation(pr))
    return out


def coset_min_max(w, alpha=None, beta=None):
    """Bruhat-extreme representatives of S_alpha w S_beta, or of the full
    left coset S_n w when no subgroups are given."""
    if alpha is None and beta is None:
        return left_coset_min_max(w)
    alpha = alpha or (1,) * w.n
    beta = beta or (1,) * w.n
    coset = double_coset(w, alpha, beta)
    return (min(coset, key=lambda v: (v.length(), v.window)),
            max(coset, key=lambda v: (v.length(), v.window)))


def iter_wplus(n, max_grade):
    """All of W+_n with d-grade up to max_grade."""
    for d in range(max_grade + 1):
        yield from iter_wplus_graded(n, d)


def b_poly_degree(w, k):
    """Degree of the GKM leading form: sum over residue pairs of
    (k - refined edge count) for the kn-edge set."""
    n = w.n
    refined = _refine(n, edges(w, k * n))
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            total += k - refined.get((i, j), 0)
    return total


# ---------------------------------------------------------------------------
# the paff sweep with claim (iii) compared at every triple, the route that
# one comparison per translation class replaced


def verify_paff_per_triple(n, k, degree, N):
    """affine.verify_paff, forming the left-coset extremes, both rational
    area sequences and the attack path anew for every triple."""
    report = {"n": n, "k": k, "D": degree, "N": N, "ok": True,
              "triples": 0, "failures": []}

    seen = {}
    for d in range(degree + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            report["triples"] += 1
            w = paff(m, a, b)
            at = {"triple": (m, a, b), "w": w.window}
            if w.d_grade() != d:
                return fail(report, "grade", at)
            val_dinv = dinv_k(m, a, b, k)
            val_dimv = dimv(w, k * n)
            if val_dinv != val_dimv:
                return fail(report, "dinv-dimv",
                            {**at, "dinv": val_dinv, "dimv": val_dimv})
            klass = (tuple(sorted(a)), tuple(sorted(b)))
            if (klass, w.window) in seen and seen[(klass, w.window)] != (m, a, b):
                return fail(report, "injectivity",
                            {"triple": (m, a, b),
                             "other": seen[(klass, w.window)]})
            seen[(klass, w.window)] = (m, a, b)
            alpha_a = alpha_composition(a)
            beta = tuple(reversed(alpha_composition(b)))
            v = _coset_max_witness(w, beta, alpha_a)
            if v is not None:
                return fail(report, "coset-max", {**at, "v": v.window})
            wmin, wmax = left_coset_min_max(w)
            diff = tuple(x - y for x, y in zip(rational_area_sequence(wmin, k * n),
                                              rational_area_sequence(wmax, k * n)))
            if diff != attack_path(m, a, k).area_sequence:
                return fail(report, "area-difference",
                            {"triple": (m, a, b), "diff": diff})
    return report


# ---------------------------------------------------------------------------
# Hom and Ext dimensions of parabolic line bundles, and their total order


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


# ---------------------------------------------------------------------------
# the crossing move of one column, and its movability


def move(quad, i, k=None):
    """The crossing move; with k given, an invalid landing set is an error."""
    out = move_unchecked(quad, i)
    if k is not None and not in_vanset(out, k):
        raise ValueError(f"move({i}) leaves the summation set: {out}")
    return out


def movable(quad, i, k):
    """Movability: the move stays in the set and every sigma-earlier partner
    has both pairwise entries nonpositive."""
    return landing_by_table(quad, i, k, sigma_ranks(quad),
                            d_k_table(quad.m, quad.b, k)) is not None


# ---------------------------------------------------------------------------
# sorting parallel columns, and the sorted representative of a triple


def sort_columns(*cols):
    """Simultaneously sort parallel sequences by ascending column lex order."""
    if len({len(c) for c in cols}) > 1:
        raise ValueError("sequences must have equal length")
    rows = sorted(zip(*cols))
    return tuple(tuple(r[i] for r in rows) for i in range(len(cols)))


def sort_triple(m, a, b):
    """The Def-mab representative: m decreasing, ties by a, then b increasing."""
    if not (len(m) == len(a) == len(b)):
        raise ValueError("sequences must have equal length")
    rows = sorted(zip(m, a, b), key=lambda r: (-r[0], r[1], r[2]))
    return (tuple(r[0] for r in rows), tuple(r[1] for r in rows),
            tuple(r[2] for r in rows))


# ---------------------------------------------------------------------------
# the k = 0 Cauchy sum over sorted triples, and the swap of the alphabets


def cauchy_combinatorial(n, N, D):
    """The k = 0 Cauchy sum: t^{|m|} q^{n(mu')} X_a Y_b / ((1-q)^n aut_q)
    over sorted triples, where mu is the multiplicity partition of the
    (m_i, a_i, b_i) columns, so n(mu') counts equal-column pairs."""
    def weight(delta, ai, aj, bi, bj):
        return 1 if delta == 0 and ai == aj and bi == bj else 0

    return triple_series(n, N, D, weight, (ONE / (ONE - Q)) ** n)


def xy_swap(series):
    """The series with the two alphabets exchanged."""
    return MonomialSeries(series.ny, series.nx, series.degree,
                          {(ye, xe): ts for (xe, ye), ts in series.table.items()})


# ---------------------------------------------------------------------------
# the quasi-symmetric monomial


def quasisym_M(alpha, N):
    """The quasi-symmetric monomial M_alpha in x_1..x_N."""
    alpha = tuple(alpha)
    if any(a <= 0 for a in alpha):
        raise ValueError("composition parts must be positive")
    ell = len(alpha)
    if ell > N:
        return Poly.zero(N)
    terms = {}
    for cols in combinations(range(N), ell):
        exps = [0] * N
        for a, c in zip(alpha, cols):
            exps[c] = a
        terms[(tuple(exps), ())] = ONE
    return Poly(N, 0, terms)
