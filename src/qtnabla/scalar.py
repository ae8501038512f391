"""Exact arithmetic in ZZ(q,t), plus truncated power series in t over ZZ(q).

A polynomial is a sparse dict mapping (q_exponent, t_exponent) to a nonzero
integer.  A QtScalar is a canonical fraction of two such polynomials: a
Laurent monomial factor is moved into the denominator, so both exponents
are nonnegative, the gcd is divided out, and the denominator's leading
coefficient (lex order, q before t) is positive, so structural equality is
mathematical equality.

SeriesBuilder assembles the enumerator series: it counts the terms
c q^e / aut_q(mu) in integers over [n]_q! and reduces each coefficient once.

Everything here is immutable after construction, so values may be shared
freely.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _igcd
from operator import itemgetter

Mono = tuple[int, int]


# ---------------------------------------------------------------------------
# sparse dict polynomials over ZZ


def _pd_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pd_neg(p):
    return {m: -c for m, c in p.items()}


def _pd_mul(p, q):
    if not p or not q:
        return {}
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            m = (i1 + i2, j1 + j2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


_ONE_PD = {(0, 0): 1}

_t_exp = itemgetter(1)  # the t-exponent of a monomial


def _pd_render(p):
    if not p:
        return "0"
    parts = []
    for (i, j) in sorted(p, reverse=True):
        c = p[(i, j)]
        mono = " ".join(
            s for s in (
                "q" if i == 1 else f"q^{i}" if i else "",
                "t" if j == 1 else f"t^{j}" if j else "",
            ) if s
        )
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag} {mono}"
        else:
            body = str(mag)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# gcd machinery: dense univariate lists over ZZ, then ZZ[q][t]


def _u_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _u_sub(f, g):
    out = list(f) + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] -= b
    return _u_trim(out)


def _u_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _u_trim(out)


def _u_content(f):
    c = 0
    for a in f:
        c = _igcd(c, a)
    return c


def _u_primitive(f):
    c = _u_content(f)
    if c in (0, 1):
        return list(f)
    return [a // c for a in f]


def _u_divexact(f, g):
    """Exact division in ZZ[q]; the quotient must have integer coefficients."""
    if not f:
        return []
    rem = list(f)
    out = [0] * (len(f) - len(g) + 1)
    lg = g[-1]
    while rem and len(rem) >= len(g):
        c, r = divmod(rem[-1], lg)
        if r:
            raise ArithmeticError("inexact polynomial division")
        d = len(rem) - len(g)
        out[d] = c
        for i, b in enumerate(g):
            rem[i + d] -= c * b
        _u_trim(rem)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return _u_trim(out)


def _u_prem(f, g):
    """Pseudo-remainder of f by g, up to content (enough for a primitive PRS)."""
    f = list(f)
    lg = g[-1]
    while f and len(f) >= len(g):
        c = f[-1]
        d = len(f) - len(g)
        f = [a * lg for a in f]
        for i, b in enumerate(g):
            f[i + d] -= c * b
        _u_trim(f)
    return f


def _u_eval(f, xi):
    out = 0
    for c in reversed(f):
        out = out * xi + c
    return out


def _u_from_int(h, xi):
    """Balanced base-xi digit expansion of an integer as a polynomial."""
    digits = []
    while h:
        d = h % xi
        if d > xi // 2:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    return digits


def _u_maxnorm(f):
    return max((abs(c) for c in f), default=0)


def _u_divides(g, f):
    try:
        _u_divexact(f, g)
        return True
    except ArithmeticError:
        return False


def _u_heugcd(f, g):
    """Heuristic gcd of primitive f, g; None when the evaluation points fail."""
    xi = 2 * min(_u_maxnorm(f), _u_maxnorm(g)) + 29
    for _ in range(6):
        h = _igcd(_u_eval(f, xi), _u_eval(g, xi))
        if h:
            cand = _u_primitive(_u_from_int(h, xi))
            if cand and _u_divides(cand, f) and _u_divides(cand, g):
                return cand
        xi = xi * 73794 // 27011 + 1
    return None


def _u_gcd(f, g):
    f = _u_trim(list(f))
    g = _u_trim(list(g))
    if not f:
        res = list(g)
    elif not g:
        res = list(f)
    else:
        cf, cg = _u_content(f), _u_content(g)
        c = _igcd(cf, cg)
        f = [a // cf for a in f]
        g = [a // cg for a in g]
        if len(f) < len(g):
            f, g = g, f
        res = _u_heugcd(f, g)
        if res is None:
            while g:
                r = _u_primitive(_u_prem(f, g))
                f, g = g, r
            res = f
        res = [a * c for a in res]
    if res and res[-1] < 0:
        res = [-a for a in res]
    return res


def _b_trim(F):
    while F and not F[-1]:
        F.pop()
    return F


def _b_from_dict(p):
    if not p:
        return []
    dt = max(j for (_, j) in p)
    F = [[] for _ in range(dt + 1)]
    for (i, j), c in p.items():
        row = F[j]
        if len(row) <= i:
            row.extend([0] * (i + 1 - len(row)))
        row[i] = c
    for row in F:
        _u_trim(row)
    return _b_trim(F)


def _b_to_dict(F):
    out = {}
    for j, row in enumerate(F):
        for i, c in enumerate(row):
            if c:
                out[(i, j)] = c
    return out


def _b_content(F):
    g = []
    for row in F:
        g = _u_gcd(g, row)
        if g == [1]:
            break
    return g


def _b_primitive(F):
    c = _b_content(F)
    if not c or c == [1]:
        return [list(r) for r in F]
    return [_u_divexact(r, c) for r in F]


def _b_prem(F, G):
    F = [list(r) for r in F]
    LG = G[-1]
    while F and len(F) >= len(G):
        C = F[-1]
        d = len(F) - len(G)
        F = [_u_mul(r, LG) for r in F]
        for i, B in enumerate(G):
            F[i + d] = _u_sub(F[i + d], _u_mul(C, B))
        _b_trim(F)
    return F


def _b_maxnorm(F):
    return max((_u_maxnorm(r) for r in F), default=0)


def _b_divides(G, F):
    try:
        _b_divexact_lists(F, G)
        return True
    except ArithmeticError:
        return False


def _b_divexact_lists(F, G):
    F = [list(r) for r in F]
    _b_trim(F)
    if not F:
        return []
    if len(F) < len(G):
        raise ArithmeticError("inexact polynomial division")
    out = [[] for _ in range(len(F) - len(G) + 1)]
    LG = G[-1]
    while F and len(F) >= len(G):
        d = len(F) - len(G)
        C = _u_divexact(F[-1], LG)
        out[d] = C
        for i, B in enumerate(G):
            F[i + d] = _u_sub(F[i + d], _u_mul(C, B))
        _b_trim(F)
    if F:
        raise ArithmeticError("inexact polynomial division")
    return out


def _b_heugcd(F, G):
    """Heuristic gcd of t-primitive F, G; None when the evaluations fail."""
    xi = 2 * min(_b_maxnorm(F), _b_maxnorm(G)) + 29
    for _ in range(6):
        fu = []
        for r in reversed(F):
            fu = _u_sub([c * xi for c in fu], [-c for c in r])
        gu = []
        for r in reversed(G):
            gu = _u_sub([c * xi for c in gu], [-c for c in r])
        h = _u_gcd(fu, gu)
        if h:
            rows = []
            work = list(h)
            while any(work):
                digits = []
                for idx, c in enumerate(work):
                    d = c % xi
                    if d > xi // 2:
                        d -= xi
                    digits.append(d)
                    work[idx] = (c - d) // xi
                rows.append(_u_trim(digits))
            cand = _b_primitive(_b_trim(rows))
            if cand and _b_divides(cand, F) and _b_divides(cand, G):
                return cand
        xi = xi * 73794 // 27011 + 1
    return None


def _b_gcd(F, G):
    F = _b_trim([list(r) for r in F])
    G = _b_trim([list(r) for r in G])
    if not F:
        return G
    if not G:
        return F
    if len(F) == 1 or len(G) == 1:
        return [_u_gcd(_b_content(F), _b_content(G))]
    cF, cG = _b_content(F), _b_content(G)
    c = _u_gcd(cF, cG)
    F = [_u_divexact(r, cF) for r in F]
    G = [_u_divexact(r, cG) for r in G]
    res = _b_heugcd(F, G)
    if res is None:
        if len(F) < len(G):
            F, G = G, F
        while G:
            R = _b_primitive(_b_trim(_b_prem(F, G)))
            F, G = G, R
        res = F
    return [_u_mul(r, c) for r in res]


# ---------------------------------------------------------------------------


class QtScalar:
    """A canonical fraction of integer polynomials in q and t."""

    __slots__ = ("num", "den", "_key")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _ONE_PD
        if not _canonical:
            num = {m: c for m, c in num.items() if c}
            den = {m: c for m, c in den.items() if c}
            if not den:
                raise ZeroDivisionError("zero denominator")
            num, den = self._reduce(num, den)
        self.num = num
        self.den = den
        self._key = (
            tuple(sorted(num.items())),
            tuple(sorted(den.items())),
        )

    @staticmethod
    def _reduce(num, den):
        if not num:
            return {}, dict(_ONE_PD)
        # a Laurent monomial factor moves into the denominator, so num and
        # den are polynomials and q^0 t^0 is the only unit the gcd leaves
        sq = min(min(num)[0], min(den)[0], 0)
        st = min(min(num, key=_t_exp)[1], min(den, key=_t_exp)[1], 0)
        if sq or st:
            num = {(i - sq, j - st): c for (i, j), c in num.items()}
            den = {(i - sq, j - st): c for (i, j), c in den.items()}
        if den != _ONE_PD:
            F, G = _b_from_dict(num), _b_from_dict(den)
            g = _b_gcd(F, G)
            if g != [[1]]:
                num = _b_to_dict(_b_divexact_lists(F, g))
                den = _b_to_dict(_b_divexact_lists(G, g))
        lead = max(den)
        if den[lead] < 0:
            num = _pd_neg(num)
            den = _pd_neg(den)
        return num, den

    # -- constructors

    @staticmethod
    def from_int(n):
        return QtScalar({(0, 0): n} if n else {})

    @staticmethod
    def from_fraction(fr):
        fr = Fraction(fr)
        return QtScalar({(0, 0): fr.numerator} if fr.numerator else {},
                        {(0, 0): fr.denominator})

    @staticmethod
    def monomial(c=1, q=0, t=0):
        return QtScalar({(q, t): c} if c else {})

    # -- predicates

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == _ONE_PD and self.den == _ONE_PD

    def is_polynomial(self):
        return self.den == _ONE_PD

    def is_t_free(self):
        return all(j == 0 for (_, j) in self.num) and all(j == 0 for (_, j) in self.den)

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return QtScalar(_pd_add(self.num, other.num), dict(self.den))
        num = _pd_add(_pd_mul(self.num, other.den), _pd_mul(other.num, self.den))
        return QtScalar(num, _pd_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return QtScalar(_pd_neg(self.num), dict(self.den), _canonical=True)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QtScalar(_pd_mul(self.num, other.num), _pd_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero QtScalar")
        return QtScalar(_pd_mul(self.num, other.den), _pd_mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if k < 0:
            return (QtScalar(dict(self.den), dict(self.num))) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = QtScalar.from_int(other)
        if not isinstance(other, QtScalar):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- substitutions and evaluation

    def subs_t_inverse(self):
        """The rational function s(q, 1/t)."""
        dn = max((j for (_, j) in self.num), default=0)
        dd = max((j for (_, j) in self.den), default=0)
        m = max(dn, dd)
        num = {(i, m - j): c for (i, j), c in self.num.items()}
        den = {(i, m - j): c for (i, j), c in self.den.items()}
        return QtScalar(num, den)

    def swap_qt(self):
        return QtScalar({(j, i): c for (i, j), c in self.num.items()},
                        {(j, i): c for (i, j), c in self.den.items()})

    def evaluate(self, qval, tval):
        num = sum(Fraction(c) * Fraction(qval) ** i * Fraction(tval) ** j
                  for (i, j), c in self.num.items())
        den = sum(Fraction(c) * Fraction(qval) ** i * Fraction(tval) ** j
                  for (i, j), c in self.den.items())
        if den == 0:
            raise ZeroDivisionError("pole at the evaluation point")
        return num / den

    # -- expansions

    def t_expand(self, degree):
        """Truncated power series in t; coefficients stay exact in q."""
        num_t = {}
        for (i, j), c in self.num.items():
            num_t.setdefault(j, {})[(i, 0)] = c
        den_t = {}
        for (i, j), c in self.den.items():
            den_t.setdefault(j, {})[(i, 0)] = c
        if 0 not in den_t:
            raise ValueError("denominator is not a unit as a t-series")
        d0 = QtScalar(den_t[0])
        coeffs = []
        for j in range(degree + 1):
            acc = QtScalar(num_t.get(j, {}))
            for i in range(1, j + 1):
                if i in den_t:
                    acc = acc - QtScalar(den_t[i]) * coeffs[j - i]
            coeffs.append(acc / d0)
        return TSeries(degree, coeffs)

    def qt_expand(self, q_degree, t_degree):
        """Bivariate series expansion; returns {(i, j): Fraction}, zeros dropped."""
        d00 = self.den.get((0, 0))
        if not d00:
            raise ValueError("denominator does not have a unit constant term")
        d00 = Fraction(d00)
        coeffs = {}
        for i in range(q_degree + 1):
            for j in range(t_degree + 1):
                acc = Fraction(self.num.get((i, j), 0))
                for (a, b), c in self.den.items():
                    if (a, b) != (0, 0) and a <= i and b <= j:
                        prev = coeffs.get((i - a, j - b))
                        if prev:
                            acc -= c * prev
                if acc:
                    coeffs[(i, j)] = acc / d00
        return coeffs

    # -- rendering

    def __str__(self):
        if self.den == _ONE_PD:
            return _pd_render(self.num)
        return f"({_pd_render(self.num)})/({_pd_render(self.den)})"

    def __repr__(self):
        return f"QtScalar({self})"

    def to_json(self):
        def terms(p):
            return [[i, j, c] for (i, j), c in sorted(p.items())]
        return {"num": terms(self.num), "den": terms(self.den)}

    def q_coeff_lists(self):
        """Numerator/denominator as ascending q-coefficient lists (t-free only)."""
        if not self.is_t_free():
            raise ValueError("not a function of q alone")
        def dense(p):
            d = max((i for (i, _) in p), default=0)
            out = [0] * (d + 1)
            for (i, _), c in p.items():
                out[i] = c
            return out
        return dense(self.num), dense(self.den)


def _coerce(x):
    if isinstance(x, QtScalar):
        return x
    if isinstance(x, int):
        return QtScalar.from_int(x)
    if isinstance(x, Fraction):
        return QtScalar.from_fraction(x)
    return NotImplemented


ZERO = QtScalar.from_int(0)
ONE = QtScalar.from_int(1)
Q = QtScalar.monomial(q=1)
T = QtScalar.monomial(t=1)


def q_bracket(k):
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return QtScalar({(i, 0): 1 for i in range(k)})


def q_factorial(k):
    """[k]_q! = prod_{j<=k} [j]_q; the empty product is 1."""
    out = ONE
    for j in range(2, k + 1):
        out = out * q_bracket(j)
    return out


def aut_q(parts):
    """aut_q(mu) = prod_i [mu_i]_q! for a partition/composition mu."""
    out = ONE
    for r in parts:
        out = out * q_factorial(r)
    return out


@lru_cache(maxsize=None)
def q_multinomial(counts):
    """{inv: number} over the distinct words with these letter counts: the
    q-multinomial coefficient [sum counts]_q! / prod_i [counts_i]_q!."""
    if not any(counts):
        return {0: 1}
    out = {}
    for x, c in enumerate(counts):
        if c:
            rest = counts[:x] + (c - 1,) + counts[x + 1:]
            shift = sum(rest[:x])  # the later letters below x
            for i, v in q_multinomial(rest).items():
                out[i + shift] = out.get(i + shift, 0) + v
    return out


class TSeries:
    """Power series in t truncated at a fixed degree, coefficients in ZZ(q)."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient count does not match the degree")
        for c in coeffs:
            if not c.is_t_free():
                raise ValueError("TSeries coefficients must be t-free")
        self.degree = degree
        self.coeffs = coeffs

    @staticmethod
    def zero(degree):
        return TSeries(degree, [ZERO] * (degree + 1))

    def __getitem__(self, j):
        return self.coeffs[j]

    def _check(self, other):
        if self.degree != other.degree:
            raise ValueError("truncation degrees differ")

    def __add__(self, other):
        self._check(other)
        return TSeries(self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TSeries(self.degree, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TSeries(self.degree, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QtScalar):
            return TSeries(self.degree, [a * other for a in self.coeffs])
        self._check(other)
        out = [ZERO] * (self.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j in range(self.degree + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TSeries(self.degree, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TSeries) and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, degree):
        if degree > self.degree:
            raise ValueError("cannot extend a truncated series")
        return TSeries(degree, self.coeffs[: degree + 1])

    def first_discrepancy(self, other):
        """None if equal through the lower degree; else
        (t_degree, self_coeff, other_coeff)."""
        for j in range(min(self.degree, other.degree) + 1):
            if self[j] != other[j]:
                return (j, self[j], other[j])
        return None

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            tpow = "" if j == 0 else " t" if j == 1 else f" t^{j}"
            parts.append(f"({c}){tpow}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__

    def to_json(self):
        out = []
        for j, c in enumerate(self.coeffs):
            num, den = c.q_coeff_lists()
            out.append({"t_deg": j, "q_num": num, "q_den": den})
        return out


class MonomialSeries:
    """A table of TSeries indexed by (x-exponent, y-exponent) monomial pairs."""

    __slots__ = ("nx", "ny", "degree", "table")

    def __init__(self, nx, ny, degree, table):
        self.nx = nx
        self.ny = ny
        self.degree = degree
        self.table = {k: v for k, v in table.items() if not v.is_zero()}

    def __eq__(self, other):
        return (isinstance(other, MonomialSeries)
                and (self.nx, self.ny, self.degree) == (other.nx, other.ny, other.degree)
                and self.table == other.table)

    def __hash__(self):
        return hash((self.nx, self.ny, self.degree, tuple(sorted(self.table.items()))))

    def keys(self):
        return sorted(self.table)

    def series(self, key):
        return self.table.get(key, TSeries.zero(self.degree))

    def scale(self, s):
        """Multiply every coefficient by a t-free scalar; keys with equal
        series, such as the permutations of a symmetric one, share one
        product."""
        scaled = {}
        table = {}
        for k, v in self.table.items():
            if v not in scaled:
                scaled[v] = v * s
            table[k] = scaled[v]
        return MonomialSeries(self.nx, self.ny, self.degree, table)

    def truncate(self, degree):
        return MonomialSeries(self.nx, self.ny, degree,
                              {k: v.truncate(degree) for k, v in self.table.items()})

    def first_discrepancy(self, other):
        """None if equal; else (key, t_degree, self_coeff, other_coeff)."""
        for key in sorted(set(self.table) | set(other.table)):
            disc = self.series(key).first_discrepancy(other.series(key))
            if disc is not None:
                return (key, *disc)
        return None

    def to_json(self):
        out = []
        for (xe, ye) in self.keys():
            for entry in self.table[(xe, ye)].to_json():
                if any(entry["q_num"]):
                    out.append({"x_exp": list(xe), "y_exp": list(ye), **entry})
        return out


def discrepancy(lhs, rhs):
    """The first coefficient where two TSeries or two MonomialSeries differ,
    as a report entry {t_deg, lhs, rhs}, with x_exp and y_exp added for
    MonomialSeries; None when they agree."""
    disc = lhs.first_discrepancy(rhs)
    if disc is None:
        return None
    *key, tdeg, a, b = disc
    entry = {"t_deg": tdeg, "lhs": str(a), "rhs": str(b)}
    if key:  # a MonomialSeries discrepancy leads with its monomial key
        (xe, ye), = key
        entry = {"x_exp": list(xe), "y_exp": list(ye), **entry}
    return entry


def t_series(poly, degree):
    """A Poly as a MonomialSeries, t-expanded through `degree`."""
    return MonomialSeries(poly.nx, poly.ny, degree,
                          {key: c.t_expand(degree) for key, c in poly.terms.items()})


def compare(lhs, rhs, /, **params):
    """A two-route report: params, "equal", and the first coefficient where
    two TSeries, MonomialSeries or Polys differ (None when they agree).
    Polys that differ are t-expanded through the largest t-degree of a
    numerator plus that of a denominator: distinct fractions differ there."""
    disc = None
    if lhs != rhs:
        if not isinstance(lhs, (TSeries, MonomialSeries)):
            coeffs = [c for poly in (lhs, rhs) for c in poly.terms.values()]
            degree = (max(j for c in coeffs for _, j in c.num)
                      + max(j for c in coeffs for _, j in c.den))
            lhs, rhs = t_series(lhs, degree), t_series(rhs, degree)
        disc = discrepancy(lhs, rhs)
    return {**params, "equal": disc is None, "first_discrepancy": disc}


def fail(report, kind, data):
    """Log {"kind": kind, **data} as a failure of a sweep report; return it."""
    report["failures"].append({"kind": kind, **data})
    report["ok"] = False
    return report


class SeriesBuilder:
    """Counts the terms count * q^q_exp / aut_q(mu) of a monomial-keyed
    series in integers, then forms each coefficient in one reduction.

    Each aut_q(mu) divides [n]_q!, where n is the largest |mu| added, with
    the q-multinomial [n]_q! / aut_q(mu) as cofactor.  So a coefficient is
    one integer polynomial over [n]_q!, and build() reduces it once per
    (key, t-degree) instead of adding each term as a QtScalar.
    """

    def __init__(self, nx, ny, degree):
        self.nx = nx
        self.ny = ny
        self.degree = degree
        self._acc = {}  # key -> per t-degree {mu: {q_exp: count}} or None

    def add(self, key, t_deg, q_exp, mu=(), count=1):
        """Add count * q^q_exp / aut_q(mu) at t^t_deg; q_exp may be negative."""
        slots = self._acc.get(key)
        if slots is None:
            slots = self._acc[key] = [None] * (self.degree + 1)
        tally = slots[t_deg]
        if tally is None:
            tally = slots[t_deg] = {}
        weights = tally.get(mu)
        if weights is None:
            weights = tally[mu] = {}
        weights[q_exp] = weights.get(q_exp, 0) + count

    def build(self, scale=ONE):
        """The MonomialSeries of the counted terms, each coefficient
        multiplied by the t-free scalar scale."""
        n = max((sum(mu) for slots in self._acc.values() for tally in slots
                 if tally for mu in tally), default=0)
        den = _pd_mul(q_factorial(n).num, scale.den)
        cofactors = {}  # mu -> {q-degree: coefficient of [n]_q! / aut_q(mu)}
        table = {}
        for key, slots in self._acc.items():
            coeffs = []
            for tally in slots:
                if not tally:
                    coeffs.append(ZERO)
                    continue
                num = {}
                for mu, weights in tally.items():
                    cof = cofactors.get(mu)
                    if cof is None:
                        cof = cofactors[mu] = q_multinomial(
                            mu + (1,) * (n - sum(mu)))
                    for e, c in weights.items():
                        for i, v in cof.items():
                            num[e + i] = num.get(e + i, 0) + c * v
                num = {(e, 0): c for e, c in num.items() if c}
                if scale.num != _ONE_PD:
                    num = _pd_mul(num, scale.num)
                coeffs.append(QtScalar(num, den))
            table[key] = TSeries(self.degree, coeffs)
        return MonomialSeries(self.nx, self.ny, self.degree, table)
