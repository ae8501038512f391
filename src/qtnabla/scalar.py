"""Exact arithmetic in ZZ(q,t), plus truncated power series in t over ZZ(q).

A polynomial is a sparse dict mapping (q_exponent, t_exponent) to a nonzero
integer.  A QtScalar is a canonical fraction of two such polynomials: a
Laurent monomial factor is moved into the denominator, so both exponents
are nonnegative, the gcd is divided out, and the denominator's leading
coefficient (lex order, q before t) is positive, so structural equality is
mathematical equality.

The gcd is one set of routines over dense polynomials whose coefficients
are ints (ZZ[q]) or polynomials in q (ZZ[q][t]): the heuristic gcd of Char,
Geddes and Gonnet, with the primitive PRS as its fallback.  A fraction whose
numerator and denominator are both free of t reduces in ZZ[q].

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
# gcd machinery: one set of routines for ZZ[q] and ZZ[q][t]


class _Dense(list):
    """A dense polynomial, lowest degree first, with no trailing zero.  Its
    coefficients are ints (an element of ZZ[q]) or _Dense (an element of
    ZZ[q][t], as a polynomial in t), so each routine below serves both
    levels.  Only the operations on coefficients step down a level: exact
    quotient (_quo, _over), gcd (_cgcd), digits (_balanced_divmod) and
    norm (_maxnorm)."""

    __slots__ = ()

    def __add__(self, g):
        if len(self) < len(g):
            self, g = g, self
        out = _Dense(self)
        for i, b in enumerate(g):
            out[i] += b
        return _trim(out)

    def __sub__(self, g):
        out = _Dense(self)
        if len(out) < len(g):
            out.extend([type(g[-1])()] * (len(g) - len(out)))
        for i, b in enumerate(g):
            out[i] -= b
        return _trim(out)

    def __neg__(self):
        return _Dense([-a for a in self])

    def __mul__(self, g):
        if isinstance(g, int):  # a scalar, as in Horner's rule at xi
            return _Dense([a * g for a in self]) if g else _Dense()
        if not self or not g:
            return _Dense()
        out = [type(g[-1])()] * (len(self) + len(g) - 1)
        for i, a in enumerate(self):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return _trim(_Dense(out))

    __iadd__ = __add__  # list's += would extend a coefficient in place


_ONES = (1, [1], [[1]])  # the unit gcd in ZZ, ZZ[q] and ZZ[q][t]


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _q_dense(p):
    """A t-free {(i, 0): c} as a polynomial in q over ZZ."""
    out = [0] * (max(p)[0] + 1) if p else []
    for (i, _), c in p.items():
        out[i] = c
    return _Dense(out)


def _qt_dense(p):
    """A nonzero {(i, j): c} as a polynomial in t over ZZ[q]."""
    rows = [{} for _ in range(max(map(_t_exp, p)) + 1)]
    for (i, j), c in p.items():
        rows[j][i, 0] = c
    return _Dense(map(_q_dense, rows))


def _q_terms(f):
    return {(i, 0): c for i, c in enumerate(f) if c}


def _qt_terms(f):
    return {(i, j): c for j, row in enumerate(f) for i, c in enumerate(row) if c}


def _quo(a, b):
    """The exact quotient of two coefficients."""
    if isinstance(a, int):
        c, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return c
    return _divexact(a, b)


def _cgcd(*cs):
    """The gcd of some coefficients, not all 0; up to sign when only one of
    them is a nonzero polynomial."""
    if isinstance(cs[0], int):
        return _igcd(*cs)
    c = _Dense()
    for a in cs:
        if a:
            c = _gcd(c, a, cofactors=False) if c else a
            if c == [1]:
                break
    return c


def _balanced_divmod(h, xi):
    """(quotient, digit) of a coefficient h by the integer xi, the digit in
    (-xi/2, xi/2]; a polynomial over ZZ divides coefficient by coefficient."""
    if isinstance(h, int):
        d = h % xi
        if d > xi // 2:
            d -= xi
        return (h - d) // xi, d
    pairs = [_balanced_divmod(c, xi) for c in h]
    return (_trim(_Dense([a for a, _ in pairs])),
            _trim(_Dense([d for _, d in pairs])))


def _divexact(f, g):
    """f / g; ArithmeticError unless g divides f."""
    rem, m, lg = _Dense(f), len(g) - 1, g[-1]
    out = [None] * max(len(rem) - m, 0)
    for d in reversed(range(len(out))):
        c = rem[d + m]
        if c:
            c = _quo(c, lg)
            for i in range(m):  # the term at d + m cancels
                rem[i + d] -= c * g[i]
        out[d] = c
    if any(rem[:m]):
        raise ArithmeticError("inexact polynomial division")
    return _Dense(out)


def _prem(f, g):
    """Pseudo-remainder of f by g, up to content (enough for a primitive PRS)."""
    m, lg = len(g) - 1, g[-1]
    while len(f) > m:
        c, d = f[-1], len(f) - 1 - m
        f = _Dense([a * lg for a in f[:-1]])  # the leading terms cancel
        for i in range(m):
            f[i + d] -= c * g[i]
        _trim(f)
    return f


def _times(f, c):
    """f with every coefficient multiplied by c."""
    return f if c in _ONES else _Dense([a * c for a in f])


def _over(f, c):
    """f with every coefficient divided by c, which divides each exactly."""
    if c in _ONES:
        return f
    if isinstance(c, int):
        return _Dense([a // c for a in f])
    return _Dense([_divexact(a, c) for a in f])


def _primitive(f):
    """f over its content, the gcd of its coefficients; 0 stays 0."""
    return _over(f, _cgcd(*f)) if f else f


def _maxnorm(f):
    return max(map(abs if isinstance(f[-1], int) else _maxnorm, f)) if f else 0


def _eval(f, xi):
    """f at the integer xi, a coefficient."""
    out = type(f[-1])()
    for c in reversed(f):
        out = out * xi + c
    return out


def _digits(h, xi):
    """The polynomial of the balanced base-xi digits of a nonzero
    coefficient h, which takes the value h at xi."""
    out = _Dense()
    while h:
        h, d = _balanced_divmod(h, xi)
        out.append(d)
    return out


def _heugcd(f, g):
    """Heuristic gcd of primitive f, g (Char, Geddes and Gonnet, J. Symbolic
    Comput. 7, 1989): the gcd of their values at xi, one level down, read
    back from its digits.  (h, f / h, g / h), or None when the evaluation
    points fail."""
    xi = 2 * min(_maxnorm(f), _maxnorm(g)) + 29
    for _ in range(6):
        h = _cgcd(_eval(f, xi), _eval(g, xi))
        if h:
            h = _primitive(_digits(h, xi))
            if h in _ONES:
                return h, f, g
            try:
                return h, _divexact(f, h), _divexact(g, h)
            except ArithmeticError:
                pass
        xi = xi * 73794 // 27011 + 1
    return None


def _lead_int(f):
    while not isinstance(f, int):
        f = f[-1]
    return f


def _gcd(f, g, cofactors=True):
    """(h, f / h, g / h) for the gcd h of nonzero f and g, with a positive
    leading integer coefficient: the gcd of the contents times the heuristic
    gcd of the primitive parts, else their primitive PRS.  With cofactors
    false, h alone: the cofactors are then not formed."""
    cf, cg = _cgcd(*f), _cgcd(*g)
    c = _cgcd(cf, cg)
    if len(f) == 1 or len(g) == 1:
        h = _Dense([c])
        if cofactors:
            fq, gq = _over(f, c), _over(g, c)
    else:
        f, g = _over(f, cf), _over(g, cg)
        res = _heugcd(f, g)
        if res is not None:
            h, fq, gq = res
        else:
            h, b = (f, g) if len(f) >= len(g) else (g, f)
            while b:
                h, b = b, _primitive(_prem(h, b))
            if cofactors:
                fq, gq = _divexact(f, h), _divexact(g, h)
        h = _times(h, c)
        if cofactors:
            fq, gq = _times(fq, _quo(cf, c)), _times(gq, _quo(cg, c))
    if _lead_int(h) < 0:
        h = -h
        if cofactors:
            fq, gq = -fq, -gq
    return (h, fq, gq) if cofactors else h


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
            # a t-free fraction reduces in ZZ[q], any other in ZZ[q][t]
            if any(map(_t_exp, num)) or any(map(_t_exp, den)):
                dense, terms = _qt_dense, _qt_terms
            else:
                dense, terms = _q_dense, _q_terms
            h, f, g = _gcd(dense(num), dense(den))
            if h not in _ONES:
                num, den = terms(f), terms(g)
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
        return list(_q_dense(self.num)) or [0], list(_q_dense(self.den))


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

    def __repr__(self):
        return f"TSeries({self.degree}, {self.coeffs!r})"

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


def t_series(poly, degree):
    """A Poly as a MonomialSeries, t-expanded through `degree`."""
    return MonomialSeries(poly.nx, poly.ny, degree,
                          {key: c.t_expand(degree) for key, c in poly.terms.items()})


def compare(lhs, rhs, /, sides=False, **params):
    """A two-route report: params, with sides the to_json() of each side as
    "lhs" and "rhs", then "equal" and the first coefficient where two
    TSeries, MonomialSeries or Polys differ, as {t_deg, lhs, rhs} led by
    x_exp and y_exp for a MonomialSeries (None when they agree).  Polys that
    differ are t-expanded through the largest t-degree of a numerator plus
    that of a denominator: distinct fractions differ there.  Unequal series
    of different (nx, ny, degree) raise AssertionError: their common part
    cannot tell them apart."""
    report = dict(params, lhs=lhs.to_json(), rhs=rhs.to_json()) \
        if sides else params
    disc = None
    if lhs != rhs:
        if not isinstance(lhs, (TSeries, MonomialSeries)):
            coeffs = [c for poly in (lhs, rhs) for c in poly.terms.values()]
            degree = (max(j for c in coeffs for _, j in c.num)
                      + max(j for c in coeffs for _, j in c.den))
            lhs, rhs = t_series(lhs, degree), t_series(rhs, degree)
        shapes = [(getattr(s, "nx", None), getattr(s, "ny", None), s.degree)
                  for s in (lhs, rhs)]
        if shapes[0] != shapes[1]:
            raise AssertionError(f"compared series of (nx, ny, degree) "
                                 f"{shapes[0]} and {shapes[1]}")
        *key, tdeg, a, b = lhs.first_discrepancy(rhs)
        disc = {"t_deg": tdeg, "lhs": str(a), "rhs": str(b)}
        if key:  # a MonomialSeries discrepancy leads with its monomial key
            (xe, ye), = key
            disc = {"x_exp": list(xe), "y_exp": list(ye), **disc}
    return {**report, "equal": disc is None, "first_discrepancy": disc}


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
    distinct tally {mu: {q_exp: count}} instead of adding each term as a
    QtScalar.
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
        reduced = {}  # the keys of a symmetric series repeat a few tallies
        table = {}
        for key, slots in self._acc.items():
            coeffs = []
            for tally in slots:
                if not tally:
                    coeffs.append(ZERO)
                    continue
                frozen = frozenset((mu, frozenset(weights.items()))
                                   for mu, weights in tally.items())
                if frozen in reduced:
                    coeffs.append(reduced[frozen])
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
                coeffs.append(reduced.setdefault(frozen, QtScalar(num, den)))
            table[key] = TSeries(self.degree, coeffs)
        return MonomialSeries(self.nx, self.ny, self.degree, table)
