"""Modified Macdonald polynomials, the nabla operator, and the q,t-Cauchy
series that forms the Macdonald side of the main verification.

H-tilde is counted from the Haglund-Haiman-Loehr formula, in integers, and
every table is checked against the sign-character pairing before it is
served.  The Gram-Schmidt route (the P basis, scaled to the integral form
by the arm/leg product, then transformed plethystically) is kept as the
independent oracle that the tests compare it with.

The H-tilde are orthogonal for the *-pairing, so nabla reads the coefficients
of f off as <f, H~_lam>_* / `htilde_norm`; no matrix is inverted.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from math import factorial

from .scalar import ONE, Q, QtScalar, T, MonomialSeries, ZERO, q_multinomial
from .symfunc import SymFunc, conjugate, dominance_leq, partitions


def nstat(lam):
    """n(lambda) = sum over rows of (row index - 1) * part."""
    return sum(i * part for i, part in enumerate(lam))


def cells(lam):
    """(arm, leg) for every cell of the diagram."""
    conj = conjugate(lam)
    out = []
    for i, part in enumerate(lam):
        for j in range(part):
            out.append((part - j - 1, conj[j] - i - 1))
    return out


def eigenvalue(lam, k=1):
    """The nabla eigenvalue (q^{n(lam')} t^{n(lam)})^k on H-tilde_lam."""
    return QtScalar.monomial(q=k * nstat(conjugate(lam)), t=k * nstat(lam))


def w_denominator(lam):
    """prod over cells of (q^{a+1} - t^l)(q^a - t^{l+1})."""
    out = ONE
    for a, l in cells(lam):
        out = out * (Q ** (a + 1) - T ** l) * (Q ** a - T ** (l + 1))
    return out


# ---------------------------------------------------------------------------
# the Gram-Schmidt route: the independent oracle that the tests compare
# the HHL tables with; no table that is served comes from here


@lru_cache(maxsize=None)
def _gram_schmidt_state(n):
    """The partitions of n in ascending lex order, and the P built so far."""
    return tuple(reversed(partitions(n))), {}


def _gram_schmidt_P(n, stop=None):
    """Macdonald P in the monomial basis, built in ascending lex order until
    P_stop exists (all partitions of n when stop is None); returns every P
    built so far."""
    order, out = _gram_schmidt_state(n)
    # ascending lex refines dominance upward, so each P stays supported below
    for lam in order[len(out):]:
        if stop in out:
            break
        f = SymFunc.m(lam)
        for p_mu in out.values():
            c = f.qt_inner(p_mu) / p_mu.qt_inner(p_mu)
            f = f - p_mu.scale(c)
        for mu, coeff in f.terms.items():
            if mu == lam:
                if not coeff.is_one():
                    raise AssertionError(f"P_{lam} not monic on m_{lam}")
            elif not dominance_leq(mu, lam):
                raise AssertionError(f"P_{lam} not dominance-triangular at {mu}")
        out[lam] = f
    return out


def macdonald_P(lam):
    lam = tuple(lam)
    return _gram_schmidt_P(sum(lam), lam)[lam]


def integral_J(lam):
    scale = ONE
    for a, l in cells(lam):
        scale = scale * (ONE - Q ** a * T ** (l + 1))
    return macdonald_P(lam).scale(scale)


def _build_htilde(lam):
    """t^{n(lam)} J_lam[X/(1 - 1/t); q, 1/t], computed in the power-sum basis."""
    pdict = integral_J(lam).to_p_dict()
    prefactor = QtScalar.monomial(t=nstat(lam))
    out = {}
    for rho, c in pdict.items():
        c = c.subs_t_inverse()
        for r in rho:
            c = c / (ONE - T ** (-r))
        out[rho] = c * prefactor
    f = SymFunc.from_p_dict(out, "m")
    for mu, c in f.terms.items():
        if not c.is_polynomial():
            raise AssertionError(f"H~_{lam} has a non-polynomial coefficient at {mu}")
    return f


# ---------------------------------------------------------------------------
# the HHL route: the tables that are served


def _take(counts, x):
    """The letter counts with one letter x used up."""
    return counts[:x] + (counts[x] - 1,) + counts[x + 1:]


def _hhl_htilde(lam):
    """H~_lam = sum over fillings s of q^{inv s} t^{maj s} x^s, the
    Haglund-Haiman-Loehr formula, as one integer polynomial per content.

    Rows are filled in reading order: top row first (the shortest, French
    convention), left to right.  A cell's inversions and descent involve
    only its own row and the row above, so the fillings of the rows below
    are summed once per (row, word of the row above, letters left).  In the
    bottom row, only the columns under the row above are filled one by one;
    the rest add inversions alone, counted by q_multinomial.
    """
    rows = tuple(lam)[::-1]
    if not rows:
        return SymFunc.m(())
    conj = conjugate(lam)
    last = len(rows) - 1

    @lru_cache(maxsize=None)
    def below(r, upper, left):
        """{(inv, maj): number} over the fillings of rows r, r + 1, ... by
        the letter counts left, under the word upper of row r - 1."""
        width = len(upper) if r == last else rows[r]
        out = {}

        def grow(word, left, inv, maj):
            k = len(word)
            if k == width:
                if r < last:
                    rest = below(r + 1, word, left)
                else:  # bottom row: its free tail follows every letter of word
                    cross = sum(sum(left[:y]) for y in word)
                    rest = {(i + cross, 0): v
                            for i, v in q_multinomial(left).items()}
                for (i, m), v in rest.items():
                    key = (i + inv, m + maj)
                    out[key] = out.get(key, 0) + v
                return
            for x, c in enumerate(left):
                if not c:
                    continue
                # attacked by bigger letters left of it in its row and right
                # of it in the row above
                di = sum(y > x for y in word) + sum(y > x for y in upper[k + 1:])
                dm = 0
                if k < len(upper) and upper[k] > x:  # a descent at the cell above
                    di -= len(upper) - k - 1  # its arm
                    dm = conj[k] - len(rows) + r  # its leg + 1
                grow(word + (x,), _take(left, x), inv + di, maj + dm)

        grow((), left, 0, 0)
        return out

    return SymFunc("m", {nu: QtScalar(below(0, (), nu))
                         for nu in partitions(sum(rows))})


def _e_pairing(nu):
    """<m_nu, e_n>, the coefficient of h_nu in e_n: (-1)^{n - l(nu)} times
    the number of distinct orderings of nu."""
    out = factorial(len(nu))
    for part in set(nu):
        out //= factorial(nu.count(part))
    return (-1) ** (sum(nu) - len(nu)) * out


def _validate_htilde(lam, f):
    """<H~_lam, e_n> = q^{n(lam')} t^{n(lam)}, from the integer pairings
    <m_nu, e_n>; none of them is zero, so a change to any one coefficient
    of degree n is caught."""
    n = sum(lam)
    got = ZERO
    for nu, c in f.terms.items():
        if sum(nu) != n:
            raise AssertionError(f"H~_{lam} has a term m_{nu} off degree {n}")
        got = got + c * _e_pairing(nu)
    if got != eigenvalue(lam, 1):
        raise AssertionError(f"H~_{lam} fails the sign-character pairing")


class MacdonaldCache:
    """Validated store of modified Macdonald polynomials (monomial basis),
    optionally mirrored to a directory of JSON tables."""

    def __init__(self, max_degree=8, directory=None):
        self.max_degree = max_degree
        self.directory = directory if directory is not None \
            else os.environ.get("QTNABLA_CACHE_DIR")
        self._tables = {}

    def get(self, lam):
        lam = tuple(lam)
        if lam in self._tables:
            return self._tables[lam]
        if sum(lam) > self.max_degree:
            raise ValueError(f"degree {sum(lam)} above the configured cap "
                             f"{self.max_degree}")
        f = _hhl_htilde(lam)
        _validate_htilde(lam, f)
        self._tables[lam] = f
        # what is served is always this table; a stored file that is
        # missing, malformed or different is rewritten
        stored = self._load(lam)
        if self.directory and (stored is None or stored.terms != f.terms):
            self.store(lam)
        return f

    # -- optional disk persistence

    def _path(self, lam):
        name = "htilde_" + "_".join(map(str, lam)) + ".json"
        return os.path.join(self.directory, name)

    def _load(self, lam):
        """The stored table, or None when the file is missing or malformed,
        so that the caller rebuilds it."""
        if not self.directory:
            return None
        try:
            with open(self._path(lam)) as fh:
                data = json.load(fh)
            terms = {}
            for entry in data["terms"]:
                rows = (entry["mu"], *entry["num"], *entry["den"])
                if any(type(v) is not int for row in rows for v in row):
                    return None
                num = {(i, j): c for i, j, c in entry["num"]}
                den = {(i, j): c for i, j, c in entry["den"]}
                terms[tuple(entry["mu"])] = QtScalar(num, den)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
            return None
        return SymFunc("m", terms)

    def store(self, lam):
        if not self.directory:
            return
        f = self.get(lam)
        os.makedirs(self.directory, exist_ok=True)
        data = {"lam": list(lam), "terms": [
            {"mu": list(mu), **c.to_json()} for mu, c in sorted(f.terms.items())
        ]}
        with open(self._path(lam), "w") as fh:
            json.dump(data, fh, sort_keys=True)


DEFAULT_CACHE = MacdonaldCache()


def modified_macdonald(lam):
    return DEFAULT_CACHE.get(lam)


def htilde_schur(lam):
    return modified_macdonald(lam).convert("s")


def htilde_norm(lam):
    """<H~_lam, H~_lam>_* = (-1)^{|lam|} w_denominator(lam): the H~_mu are
    orthogonal for the *-pairing (Garsia-Haiman)."""
    return w_denominator(lam) * (-1) ** sum(lam)


def to_htilde_dict(f):
    """Expand a symmetric function in the modified Macdonald basis: the
    coefficient of H~_lam is <f, H~_lam>_* / <H~_lam, H~_lam>_*."""
    f = f.convert("p")
    out = {}
    for n in sorted({sum(rho) for rho in f.terms}):
        for lam in partitions(n):
            c = f.star_inner(modified_macdonald(lam)) / htilde_norm(lam)
            if not c.is_zero():
                out[lam] = c
    return out


def _htilde_inverse_matrix(n):
    """For each partition mu of n, the expansion of m_mu in the H-tilde
    basis.  No route of the package calls it; the benchmark's span tracer
    (perfbench/tracer.py) wraps it by this name."""
    return {mu: to_htilde_dict(SymFunc.m(mu)) for mu in partitions(n)}


def from_htilde_dict(coeffs):
    out = SymFunc.zero("m")
    for lam, c in coeffs.items():
        out = out + modified_macdonald(lam).scale(c)
    return out


def nabla_power(f, k):
    """nabla^k: multiply the H-tilde_lam coefficient by its eigenvalue^k."""
    coeffs = to_htilde_dict(f)
    return from_htilde_dict(
        {lam: c * eigenvalue(lam, k) for lam, c in coeffs.items()})


def _cauchy_outer_product(n, k, N, D, x_side, y_side):
    """sum over lam of eigenvalue^k x_side(H~_lam) y_side(H~_lam) divided by
    the norm <H~_lam, H~_lam>_*, t-expanded to D.

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


def cauchy_macdonald_series(n, k, N, D):
    """nabla^k e_n[XY/((1-q)(1-t))] over x_1..x_N, y_1..y_N, t-expanded to D."""
    return _cauchy_outer_product(n, k, N, D, lambda h: h.expand(N, "x"),
                                 lambda h: h.expand(N, "y"))
