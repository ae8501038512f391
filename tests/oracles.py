"""Retired production routes, kept as independent oracles for the tests.

Each was the production route until a faster one replaced it; the tests
compare the replacement with it wherever it can still run.
"""

from math import comb

from qtnabla.bundles import aut_exponent, nilp_exponent
from qtnabla.labels import is_sorted_triple, iter_sorted_triples, mu_partition
from qtnabla.scalar import (ONE, Q, ZERO, MonomialSeries, QtScalar, TSeries,
                            aut_q)


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
