"""Retired production routes, kept as independent oracles for the tests.

Each was the production route until a faster one replaced it; the tests
compare the replacement with it wherever it can still run.
"""

from functools import lru_cache
from itertools import product
from math import comb

from qtnabla.bundles import aut_exponent, nilp_exponent
from qtnabla.labels import (inv_pi, is_sorted_triple, iter_sorted_triples,
                            mu_partition, sort_triple)
from qtnabla.macdonald import eigenvalue, htilde_norm, modified_macdonald
from qtnabla.scalar import (ONE, Q, T, ZERO, MonomialSeries, QtScalar, TSeries,
                            aut_q)
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
    (lam, x-monomial, y-monomial).

    x_side and y_side turn H~_lam into its Poly over x_1..x_N and y_1..y_N.
    """
    table = {}
    for lam in partitions(n):
        h = modified_macdonald(lam)
        hx = x_side(h)
        hy = y_side(h)
        scale = eigenvalue(lam, k) / htilde_norm(lam)
        for (xe, _), cx in hx.terms.items():
            for (_, ye), cy in hy.terms.items():
                series = (cx * cy * scale).t_expand(D)
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
