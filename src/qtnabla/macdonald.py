"""Modified Macdonald polynomials, the nabla operator, and the q,t-Cauchy
series that forms the Macdonald side of the main verification.

H-tilde is counted from the Haglund-Haiman-Loehr formula, in integers, for
one shape of each conjugate pair; the other is its q <-> t swap.  Every
table is checked against the sign-character pairing before it is served.
The Gram-Schmidt route (the P basis, scaled to the integral form by the
arm/leg product, then transformed plethystically) is kept as the
independent oracle that the tests compare it with.

The H-tilde are orthogonal for the *-pairing, so nabla reads the coefficients
of f off as <f, H~_lam>_* / `htilde_norm`; no matrix is inverted.

The Macdonald side is one sum over lam |- n, _lambda_sum: each lam adds
eigenvalue^k times two integer side tables, divided by the norm (-1)^n w_lam.
The leg-0 factors of w_lam multiply to (q-1)^{lam_1} aut_q(rho(lam)), which
divides [n]_q! (q-1)^n; every other factor q^b - t^m has m >= 1 and t-expands
as an integer Laurent series, so the sum is counted in Kronecker-packed
ints.  It has three uses: nabla^k e_n, with the closed form of
<e_n, H~_lam>_* as a one-key x side; the q,t-Cauchy series, with H~_lam on
both sides; and the same with X -> X(t-1), Y -> Y(q-1) substituted.  Their
oracles are nabla_power, the per-term route and the dict route of
tests/oracles.py.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from math import comb, factorial

from .scalar import (ONE, Q, QtScalar, T, MonomialSeries, TSeries,
                     _pd_mul, q_factorial, q_multinomial)
from .symfunc import (SymFunc, conjugate, distinct_permutations, dominance_leq,
                      partitions)


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


def _hhl_work(lam):
    """A static estimate of the work of _hhl_htilde(lam), which builds only
    the cheaper shape of a conjugate pair.  A row is filled letter by letter
    under each word of the row above, so a row of width w under one of
    width u costs about 2^(u + w); the bottom row fills only its lam_2
    cells under the row above that way."""
    widths = tuple(lam[:0:-1]) + (lam[1] if len(lam) > 1 else 0,)
    return sum(2 ** (u + w) for u, w in zip((0,) + widths, widths))


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
    of degree n is caught.  Every coefficient must be an integer
    polynomial, as HHL counts it."""
    n = sum(lam)
    got = {}
    for nu, c in f.terms.items():
        if sum(nu) != n:
            raise AssertionError(f"H~_{lam} has a term m_{nu} off degree {n}")
        if not c.is_polynomial():
            raise AssertionError(f"H~_{lam} has a non-polynomial coefficient "
                                 f"at m_{nu}")
        pairing = _e_pairing(nu)
        for mono, v in c.num.items():
            got[mono] = got.get(mono, 0) + v * pairing
    if {mono: v for mono, v in got.items() if v} != eigenvalue(lam, 1).num:
        raise AssertionError(f"H~_{lam} fails the sign-character pairing")


MAX_DEGREE = 8  # the highest degree of an H-tilde table


def check_degree(n):
    """ValueError when degree n lies above the cap: a route over every
    partition of n calls it first, before it builds any of them."""
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} above the configured cap {MAX_DEGREE}")


class MacdonaldCache:
    """Validated store of modified Macdonald polynomials (monomial basis),
    optionally mirrored to a directory of JSON tables."""

    def __init__(self, directory=None):
        self.directory = directory if directory is not None \
            else os.environ.get("QTNABLA_CACHE_DIR")
        self._tables = {}

    def get(self, lam):
        lam = tuple(lam)
        if lam in self._tables:
            return self._tables[lam]
        check_degree(sum(lam))
        conj = conjugate(lam)
        if (_hhl_work(conj), lam) < (_hhl_work(lam), conj):
            # H~_lam(X; q, t) = H~_lam'(X; t, q) (Garsia-Haiman)
            f = SymFunc("m", {mu: c.swap_qt()
                              for mu, c in self.get(conj).terms.items()})
        else:
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


def compute_macdonald(lam):
    """H-tilde_lam in the Schur basis, as a report."""
    return {"lambda": list(lam), "schur": str(htilde_schur(lam)),
            "equal": True}


def compute_nabla(n, k):
    """nabla^k e_n in the monomial and the Schur basis, as a report."""
    out = nabla_en(n, k)
    return {"n": n, "k": k, "monomial": str(out),
            "schur": str(out.convert("s")), "equal": True}


def _rho(lam):
    """The nonzero row differences lam_i - lam_{i+1} (lam_{l+1} = 0), as a
    partition."""
    rows = tuple(lam)
    return tuple(sorted((a - b for a, b in zip(rows, rows[1:] + (0,)) if a > b),
                        reverse=True))


def _w_inverse_series(lam, D):
    """(q-1)^{lam_1} aut_q(rho(lam)) / w_denominator(lam) as an integer
    t-series to t^D: per t-degree, {q-exponent: integer}.

    The factors q^{a+1} - t^l of w with leg l = 0 are the q^{a+1} - 1 of the
    column tops; row i holds q - 1, ..., q^{lam_i - lam_{i+1}} - 1, so their
    product is (q-1)^{lam_1} aut_q(rho(lam)).  Every other factor is
    q^b - t^m with m >= 1, whose inverse is sum_i q^{-b(i+1)} t^{mi}.
    """
    series = [{} for _ in range(D + 1)]
    series[0][0] = 1
    shift = 0  # the q^{-b} of each factor, applied once at the end
    for a, l in cells(lam):
        for b, m in ((a + 1, l), (a, l + 1)):
            if m == 0:
                continue
            shift += b
            # divide by 1 - q^{-b} t^m: S'[d] = S[d] + q^{-b} S'[d - m]
            for d in range(m, D + 1):
                row = series[d]
                for e, c in series[d - m].items():
                    row[e - b] = row.get(e - b, 0) + c
    return [{e - shift: c for e, c in row.items() if c} for row in series]


def _signed_w_inverse_series(lam, k, D):
    """The pair (_w_inverse_series to t^{D - k n(lam)}, the factor
    (-1)^n eigenvalue(lam, k) (q-1)^{n-lam_1} as {(q_exp, t_exp): integer}),
    with n = |lam|: their product is the part of the H~_lam term over the
    norm (-1)^n w_lam that is not divided by aut_q(rho(lam)) (q-1)^n.  None
    when the eigenvalue alone lies above t^D."""
    n = sum(lam)
    t_shift = k * nstat(lam)
    if t_shift > D:
        return None
    r = n - max(lam, default=0)
    q_shift = k * nstat(conjugate(lam))
    factor = {(q_shift + i, t_shift): (-1) ** (n + r - i) * comb(r, i)
              for i in range(r + 1)}
    return _w_inverse_series(lam, D - t_shift), factor


def _partition_terms(f, N):
    """The m-coefficients of f on the partitions with at most N parts, as
    integer polynomials {(q_exp, t_exp): integer}."""
    out = {}
    for mu, c in f.convert("m").terms.items():
        if len(mu) > N:
            continue
        if not c.is_polynomial():
            raise AssertionError(f"coefficient {c} of m_{mu} is not a polynomial")
        out[mu] = c.num
    return out


# the signed memoryview format of each machine word size, which reads
# digits of that many bytes in one call
_MACHINE_WORDS = {memoryview(bytes(8)).cast(code).itemsize: code
                  for code in "qlihb"}


class _Layout:
    """A Kronecker substitution for the terms of some lam (see _lambda_sum):
    q^e t^d is the digit e + offset + width d of an int in base 2^(8 nb), in
    balanced digits.  The offset lifts the negative q-exponents of 1/W_lam,
    the width holds every q-exponent of a product, and the digit size every
    coefficient up to t^D of a sum of products, so that no digit of the rows
    t^0 .. t^D overlaps another or overflows."""

    def __init__(self, terms, D):
        offset = top = bound = 0
        for _, series, xs, ys in terms:
            flat = [(e, c) for row in series for e, c in row.items()]
            offset = max(offset, -min(e for e, _ in flat))
            top = max(top, max(e for e, _ in flat) + _q_degree(xs) + _q_degree(ys))
            # a coefficient of a product is at most the l1 norm of one
            # factor times the largest coefficient of the other
            bound += max(map(_l1, xs.values())) * min(
                sum(abs(c) for _, c in flat) * max(map(_largest, ys.values())),
                max(abs(c) for _, c in flat) * max(map(_l1, ys.values())))
        self.offset = offset
        self.width = top + offset + 1
        self.nb = (bound.bit_length() + 8) // 8  # |digit| < 2^(8 nb - 1)
        # a machine word unpacks in one call; take it unless it is a third longer
        word = min([w for w in _MACHINE_WORDS if w >= self.nb] or [self.nb])
        if 3 * word <= 4 * self.nb:
            self.nb = word
        self.row_bits = 8 * self.nb * self.width
        self.D = D
        self.first = min(shift for shift, *_ in terms)
        self.size = self.row_bits * (D + 1)  # the bits of the rows t^0 .. t^D
        # 2^(8 nb - 1), half the base, at every digit
        self.bias = (((1 << self.size) - 1) // ((1 << 8 * self.nb) - 1)) << (8 * self.nb - 1)

    def pack(self, poly, offset=0):
        """The int of a polynomial {(q_exp, t_exp): integer}, its q-exponents
        lifted by offset."""
        nb, width = self.nb, self.width
        size = (max(q + offset + width * t for q, t in poly) + 1) * nb
        pos, neg = bytearray(size), bytearray(size)
        for (q, t), c in poly.items():
            p = (q + offset + width * t) * nb
            (pos if c > 0 else neg)[p:p + nb] = abs(c).to_bytes(nb, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    def truncate(self, value, rows):
        """value with only its rows t^0 .. t^{rows - 1}."""
        bits = self.row_bits * rows
        value &= (1 << bits) - 1
        return value - (1 << bits) if value >> (bits - 1) else value

    def sums(self, terms):
        """{(x key, y key): the int of sum over the terms of t^shift series
        cx cy}."""
        acc = {}
        for shift, series, xs, ys in terms:
            packed = self.pack({(e, d): c for d, row in enumerate(series)
                                for e, c in row.items()}, self.offset)
            packed_ys = {nu: self.pack(cy) for nu, cy in ys.items()}
            for mu, cx in xs.items():
                with_x = self.truncate(packed * self.pack(cx), self.D + 1 - shift)
                for nu, cy in packed_ys.items():
                    term = with_x * cy << self.row_bits * shift
                    acc[mu, nu] = acc.get((mu, nu), 0) + term
        return acc

    def unpack(self, value):
        """The rows t^0 .. t^D of value, each {q_exp: integer}."""
        nb, width, size = self.nb, self.width, self.size
        # with half added at every digit each one is nonnegative; flipping
        # the top bit of each then gives the digit in two's complement
        data = (((value + self.bias) & ((1 << size) - 1)) ^ self.bias).to_bytes(
            size // 8, "little")
        # the rows below the smallest t^shift of the terms are zero
        data = data[self.first * width * nb:]
        if nb in _MACHINE_WORDS and sys.byteorder == "little":
            digits = memoryview(data).cast(_MACHINE_WORDS[nb])
        else:
            digits = [int.from_bytes(data[p:p + nb], "little", signed=True)
                      for p in range(0, len(data), nb)]
        return [{}] * self.first + [
            {i - self.offset: c for i, c in
             enumerate(digits[d * width:(d + 1) * width]) if c}
            for d in range(self.D + 1 - self.first)]


def _l1(poly):
    return sum(map(abs, poly.values()))


def _largest(poly):
    return max(map(abs, poly.values()))


def _rows_to(side, D):
    """The side table without its terms above t^D, and without the keys that
    this leaves empty."""
    out = {}
    for key, poly in side.items():
        kept = {(q, t): c for (q, t), c in poly.items() if t <= D}
        if kept:
            out[key] = kept
    return out


def _q_degree(side):
    """The largest q-exponent of a side table."""
    return max(q for poly in side.values() for q, _ in poly)


def _lambda_sum(n, k, D, sides, scale=ONE):
    """sum over lam |- n of eigenvalue^k X_lam Y_lam divided by the norm
    <H~_lam, H~_lam>_* = (-1)^n w_lam, t-expanded to D and multiplied by the
    t-free scalar scale, as {(x key, y key): TSeries}, zero series dropped.

    sides(lam, H~_lam) returns the integer side tables X_lam and Y_lam, each
    {key: {(q_exp, t_exp): integer}}.  Write w_lam = (q-1)^{lam_1}
    aut_q(rho(lam)) W_lam (see _w_inverse_series).  Each term is
    cx cy (-1)^n T_lam^k (q-1)^{n-lam_1} / W_lam over aut_q(rho(lam)) (q-1)^n,
    and 1/W_lam t-expands with integer coefficients, so over the common
    denominator [n]_q! (q-1)^n the sum is a sum of integer polynomials.

    They are summed as ints (_Layout): one product per (lam, x key), then
    one per (lam, key).  The terms whose q-spans have the same bit length
    share one layout, so a lam with a short span does not pay for the
    longest; each key is decoded once per layout, and each of its
    coefficients is reduced once.
    """
    check_degree(n)
    scale = scale / (Q - ONE) ** n
    groups = {}  # bit length of the q-span -> [(shift, 1/W_lam, X_lam, Y_lam)]
    for lam in partitions(n):
        signed = _signed_w_inverse_series(lam, k, D)
        if signed is None:
            continue  # every term of lam lies above the truncation
        series, factor = signed
        # the eigenvalue's t^shift is applied to the sum, so no side needs a
        # row above t^{D - shift}; the x side takes every t-free factor
        shift = k * nstat(lam)
        cofactor = q_multinomial(_rho(lam) + (1,) * (n - max(lam, default=0)))
        factor = _pd_mul(_pd_mul({(q, t - shift): c for (q, t), c in factor.items()},
                                 {(e, 0): c for e, c in cofactor.items()}),
                         scale.num)
        xs, ys = sides(lam, modified_macdonald(lam))
        xs = _rows_to({mu: _pd_mul(cx, factor) for mu, cx in xs.items()}, D - shift)
        ys = _rows_to(ys, D - shift)
        if xs and ys:
            exps = [e for row in series for e in row]
            span = max(exps) - min(exps) + _q_degree(xs) + _q_degree(ys)
            groups.setdefault(span.bit_length(), []).append((shift, series, xs, ys))

    numerators = {}  # key -> per t-degree {q_exp: integer}
    for terms in groups.values():
        layout = _Layout(terms, D)
        for key, value in layout.sums(terms).items():
            rows = numerators.setdefault(key, [{} for _ in range(D + 1)])
            for row, got in zip(rows, layout.unpack(value)):
                for e, c in got.items():
                    row[e] = row.get(e, 0) + c
    den = (q_factorial(n) * QtScalar(scale.den)).num
    table = {}
    for key, rows in numerators.items():
        series = TSeries(D, [QtScalar({(e, 0): c for e, c in row.items()}, den)
                             for row in rows])
        if not series.is_zero():
            table[key] = series
    return table


def _cauchy_outer_product(n, k, N, D, x_side, y_side, scale=ONE):
    """_lambda_sum over x_1..x_N and y_1..y_N whose sides are the
    m-coefficients, all polynomials, of x_side(H~_lam) and y_side(H~_lam) on
    the partitions with at most N parts; the distinct permutations of a pair
    of partitions share its TSeries."""
    def sides(lam, h):
        return _partition_terms(x_side(h), N), _partition_terms(y_side(h), N)

    perms = {}
    table = {}
    for (mu, nu), series in _lambda_sum(n, k, D, sides, scale).items():
        for exps in (mu, nu):
            if exps not in perms:
                perms[exps] = distinct_permutations(exps + (0,) * (N - len(exps)))
        for xe in perms[mu]:
            for ye in perms[nu]:
                table[(xe, ye)] = series
    return MonomialSeries(N, N, D, table)


def cauchy_macdonald_series(n, k, N, D, scale=ONE):
    """nabla^k e_n[XY/((1-q)(1-t))] over x_1..x_N, y_1..y_N, t-expanded to D,
    times the t-free scalar scale."""
    return _cauchy_outer_product(n, k, N, D, lambda h: h, lambda h: h, scale)


# ---------------------------------------------------------------------------
# nabla^k e_n counted in integers: the route that compute_nabla and the
# shuffle checks serve; nabla_power is its oracle in the tests


def _e_star_pairing(lam):
    """<e_n, H~_lam>_* = (1-q)(1-t) B_lam Pi_lam for n = |lam| >= 1, where
    B_lam = sum over cells of q^{a'} t^{l'} and Pi_lam = prod over cells other
    than (0, 0) of (1 - q^{a'} t^{l'}), with a' the coarm and l' the coleg
    (Bergeron-Garsia-Haiman-Tesler: e_n = sum over mu of
    M B_mu Pi_mu H~_mu / w_mu, M = (1-q)(1-t))."""
    coarm_coleg = [(j, i) for i, part in enumerate(lam) for j in range(part)]
    out = _pd_mul({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1},
                  dict.fromkeys(coarm_coleg, 1))
    for a, l in coarm_coleg[1:]:
        out = _pd_mul(out, {(0, 0): 1, (a, l): -1})
    return QtScalar(out)


def nabla_en(n, k):
    """nabla^k e_n in the monomial basis, for n >= 1 and k >= 0.

    The H~_lam coefficient of e_n is <e_n, H~_lam>_* / ((-1)^n w_lam), so
    nabla^k e_n is the _lambda_sum whose x side is _e_star_pairing(lam), one
    key, and whose y side is the m-coefficients of H~_lam.

    The t-degree at t = infinity is a valuation, so deg_t nabla^k e_n is at
    most the largest deg_t of a term: k n(lam) from the eigenvalue, n(lam)
    from H~_lam, l(lam) + n(lam) from the pairing, less 2 n(lam) + n from
    w_lam, so k n(lam) + l(lam) - n <= k C(n, 2) = D, and the truncation at
    t^D drops nothing.  Two self-checks raise AssertionError: every t^d
    coefficient must be a polynomial in q, and the series is counted to
    t^{D+1}, whose row must vanish.
    """
    if n < 1 or k < 0:
        raise ValueError(f"nabla^k e_n needs n >= 1 and k >= 0, got n = {n}, "
                         f"k = {k}")
    D = k * comb(n, 2)
    sums = _lambda_sum(n, k, D + 1, lambda lam, h: (
        {(): _e_star_pairing(lam).num}, _partition_terms(h, n)))
    terms = {}
    for (_, mu), series in sums.items():
        if not series[D + 1].is_zero():
            raise AssertionError(f"nabla^{k} e_{n} has a term t^{D + 1} at "
                                 f"m_{mu}, above the bound k C(n, 2)")
        num = {}
        for d, c in enumerate(series.coeffs[:D + 1]):
            if not c.is_polynomial():
                raise AssertionError(f"the t^{d} coefficient {c} of m_{mu} in "
                                     f"nabla^{k} e_{n} is not a polynomial")
            num.update(((e, d), v) for (e, _), v in c.num.items())
        terms[mu] = QtScalar(num)
    return SymFunc("m", terms)
