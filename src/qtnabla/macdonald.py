"""Modified Macdonald polynomials, the nabla operator, and the q,t-Cauchy
series that forms the Macdonald side of the main verification.

H-tilde is built from the Gram-Schmidt P basis, scaled to the integral form
by the arm/leg product, then transformed plethystically; every table entry
is validated before it is served.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .scalar import ONE, Q, QtScalar, T, MonomialSeries, ZERO
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


@lru_cache(maxsize=None)
def _gram_schmidt_P(n):
    """Macdonald P for all partitions of n, in the monomial basis."""
    ms = {lam: SymFunc.m(lam) for lam in partitions(n)}
    out = {}
    done = []
    # ascending lex refines dominance upward, so each P stays supported below
    for lam in reversed(partitions(n)):
        f = ms[lam]
        for mu in done:
            p_mu = out[mu]
            c = f.qt_inner(p_mu) / p_mu.qt_inner(p_mu)
            f = f - p_mu.scale(c)
        for mu, coeff in f.terms.items():
            if mu == lam:
                if not coeff.is_one():
                    raise AssertionError(f"P_{lam} not monic on m_{lam}")
            elif not dominance_leq(mu, lam):
                raise AssertionError(f"P_{lam} not dominance-triangular at {mu}")
        out[lam] = f
        done.append(lam)
    return out


def macdonald_P(lam):
    return _gram_schmidt_P(sum(lam))[tuple(lam)]


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


def _validate_htilde(lam, f):
    n = sum(lam)
    expected = eigenvalue(lam, 1)
    got = f.hall_inner(SymFunc.s((1,) * n))
    if got != expected:
        raise AssertionError(f"H~_{lam} fails the sign-character pairing")


class MacdonaldCache:
    """Validated store of modified Macdonald polynomials (monomial basis)."""

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
        f = self._load(lam)
        fresh = f is None
        if fresh:
            f = _build_htilde(lam)
        _validate_htilde(lam, f)
        self._tables[lam] = f
        if fresh and self.directory:
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


@lru_cache(maxsize=None)
def _htilde_inverse_matrix(n):
    """For each partition mu, the expansion of m_mu in the H-tilde basis.

    Inverts the (H~_lam -> monomial) matrix by Gauss-Jordan elimination;
    singularity is a fatal internal error, the matrix is provably invertible.
    """
    lams = list(partitions(n))
    idx = {lam: i for i, lam in enumerate(lams)}
    size = len(lams)
    mat = [[ZERO] * size for _ in range(size)]
    inv = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    for i, lam in enumerate(lams):
        for mu, c in DEFAULT_CACHE.get(lam).terms.items():
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


def to_htilde_dict(f):
    """Expand a symmetric function in the modified Macdonald basis."""
    f = f.convert("m")
    out = {}
    for mu, c in f.terms.items():
        row = _htilde_inverse_matrix(sum(mu)).get(mu)
        if row is None:
            raise AssertionError("incomplete H-tilde inversion")
        for lam, v in row.items():
            prev = out.get(lam)
            val = c * v
            out[lam] = val if prev is None else prev + val
    return {lam: c for lam, c in out.items() if not c.is_zero()}


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
    """(-1)^n * sum over lam of eigenvalue^k x_side(H~_lam) y_side(H~_lam)
    divided by the arm/leg denominator, t-expanded to D.

    x_side and y_side turn H~_lam into its Poly over x_1..x_N and y_1..y_N.
    """
    table = {}
    sign = QtScalar.from_int((-1) ** n)
    for lam in partitions(n):
        h = modified_macdonald(lam)
        hx = x_side(h)
        hy = y_side(h)
        scale = sign * eigenvalue(lam, k) / w_denominator(lam)
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
