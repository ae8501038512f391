"""Partitions, classical symmetric-function bases, inner products, plethysm,
and finite-alphabet monomial expansion over exact q,t-rational coefficients.

Every basis change goes through the power-sum basis, by one loop
(`_accumulate`) over a per-element row in each direction:

- into p, `_to_p_row`: m from `_m_to_p_table`, s from `_s_in_p`
  (Jacobi-Trudi over h), e and h as products of `_single_in_p`;
- out of p, `_from_p_row`: m from `_p_to_m_row`, s from `_character`,
  e and h as products of `_p_in_single`.

The e and h rows are Newton's identities in both directions. The CLI reports
use only m, e -> p and p -> m, s; the rest serve `convert` and the tests.
The tables are rational constants, cached per partition or degree. omega is
the plethysm p_r -> (-1)^(r-1) p_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations

from .scalar import ONE, Q, QtScalar, T, ZERO

# ---------------------------------------------------------------------------
# partitions


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n, in descending lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def rec(rest, biggest, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(rest, biggest), 0, -1):
            prefix.append(k)
            rec(rest - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def is_partition(parts):
    return all(isinstance(p, int) and p > 0 for p in parts) and \
        all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def sort_partition(parts):
    """Drop zeros and sort decreasingly; the partition underlying a composition."""
    return tuple(sorted((p for p in parts if p), reverse=True))


def conjugate(lam):
    if not lam:
        return ()
    out = [0] * lam[0]
    for part in lam:
        for i in range(part):
            out[i] += 1
    return tuple(out)


def dominance_leq(lam, mu):
    """lam is dominated by mu: every partial sum of lam is <= that of mu."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def zee(lam):
    out = 1
    mult = {}
    for p in lam:
        out *= p
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        for j in range(2, m + 1):
            out *= j
    return out


def distinct_permutations(items):
    """All distinct orderings of a multiset, as tuples."""
    items = sorted(items)
    n = len(items)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        last = None
        for i, v in enumerate(remaining):
            if v == last:
                continue
            last = v
            rec(prefix + [v], remaining[:i] + remaining[i + 1:])

    rec([], items)
    return out


# ---------------------------------------------------------------------------
# transition tables (rational constants, cached per degree)


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


@lru_cache(maxsize=None)
def _m_to_p_table(n):
    """m_mu in the p basis: {mu: {lam: Fraction}}."""
    table = {}
    for lam in partitions(n):  # descending lex; merges only move lex-upward
        acc = {lam: Fraction(1)}
        row = _p_to_m_row(lam)
        diag = row[lam]
        for mu, c in row.items():
            if mu == lam:
                continue
            for rho, d in table[mu].items():
                acc[rho] = acc.get(rho, Fraction(0)) - Fraction(c) * d
        table[lam] = {rho: d / diag for rho, d in acc.items() if d}
    return table


def _pdict_mul(a, b):
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = tuple(sorted(la + lb, reverse=True))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


def _newton_sign(basis, i):
    """eps_i in Newton's identity r x_r = sum_{i=1..r} eps_i p_i x_(r-i) for
    x = h or e: 1 for h, (-1)^(i-1) for e (Macdonald, ch. I)."""
    return -1 if basis == "e" and i % 2 == 0 else 1


@lru_cache(maxsize=None)
def _single_in_p(basis, r):
    """h_r or e_r in the p basis, by Newton's identity."""
    if r == 0:
        return {(): Fraction(1)}
    acc = {}
    for i in range(1, r + 1):
        sign = _newton_sign(basis, i)
        for key, c in _single_in_p(basis, r - i).items():
            nkey = tuple(sorted(key + (i,), reverse=True))
            acc[nkey] = acc.get(nkey, Fraction(0)) + sign * c
    return {k: v / r for k, v in acc.items() if v}


@lru_cache(maxsize=None)
def _p_in_single(basis, r):
    """p_r in the h or e basis (keys index h_lam or e_lam): the same identity
    solved for p_r, p_r = eps_r (r x_r - sum_{i<r} eps_i x_(r-i) p_i)."""
    sign = _newton_sign(basis, r)
    acc = {(r,): Fraction(sign * r)}
    for i in range(1, r):
        for key, c in _p_in_single(basis, i).items():
            nkey = tuple(sorted(key + (r - i,), reverse=True))
            acc[nkey] = acc.get(nkey, Fraction(0)) - sign * _newton_sign(basis, i) * c
    return {k: v for k, v in acc.items() if v}


def _multiplicative_row(single, basis, lam):
    """The product over the parts of lam of single(basis, part)."""
    prod = {(): Fraction(1)}
    for part in lam:
        prod = _pdict_mul(prod, single(basis, part))
    return prod


@lru_cache(maxsize=None)
def _s_in_p(lam):
    """Schur in the p basis via the Jacobi-Trudi determinant det h_(lam_i-i+j)."""
    ell = len(lam)
    acc = {}
    for sigma in permutations(range(ell)):
        parts = [lam[i] - i + sigma[i] for i in range(ell)]
        if parts and min(parts) < 0:
            continue
        inversions = sum(sigma[i] > sigma[j]
                         for i in range(ell) for j in range(i + 1, ell))
        sign = -1 if inversions % 2 else 1
        for key, c in _multiplicative_row(_single_in_p, "h", parts).items():
            acc[key] = acc.get(key, Fraction(0)) + sign * c
    return {k: v for k, v in acc.items() if v}


@lru_cache(maxsize=None)
def _character(mu, lam):
    """chi^mu(lam) = zee(lam) * [p_lam] s_mu."""
    return _s_in_p(mu).get(lam, Fraction(0)) * zee(lam)


def _to_p_row(basis, lam):
    """The element basis_lam in the p basis: {rho: int or Fraction}."""
    if basis == "m":
        return _m_to_p_table(sum(lam))[lam]
    if basis == "s":
        return _s_in_p(lam)
    if basis == "p":
        return {lam: 1}
    return _multiplicative_row(_single_in_p, basis, lam)


def _from_p_row(basis, rho):
    """p_rho in the target basis: {mu: int or Fraction}."""
    if basis == "m":
        return _p_to_m_row(rho)
    if basis == "s":  # s_mu has coefficient chi^mu(rho) in p_rho
        return {mu: chi for mu in partitions(sum(rho))
                if (chi := _character(mu, rho))}
    if basis == "p":
        return {rho: 1}
    return _multiplicative_row(_p_in_single, basis, rho)


def _accumulate(terms, row, basis):
    """The sum of c * row(basis, key) over the terms: the one loop of every
    basis change."""
    out = {}
    for key, c in terms.items():
        for image, d in row(basis, key).items():
            v = c if d == 1 else c * d
            prev = out.get(image)
            out[image] = v if prev is None else prev + v
    return out


# ---------------------------------------------------------------------------


def _qt(c):
    if isinstance(c, QtScalar):
        return c
    if isinstance(c, int):
        return QtScalar.from_int(c)
    if isinstance(c, Fraction):
        return QtScalar.from_fraction(c)
    raise TypeError(f"bad coefficient type {type(c)!r}")


class SymFunc:
    """A graded symmetric function: basis tag plus {partition: QtScalar}."""

    BASES = ("m", "e", "h", "p", "s")
    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms):
        if basis not in self.BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for lam, c in terms.items():
            lam = tuple(lam)
            if not is_partition(lam):
                raise ValueError(f"not a partition: {lam!r}")
            c = _qt(c)
            if not c.is_zero():
                clean[lam] = c
        self.basis = basis
        self.terms = clean

    # -- constructors

    @classmethod
    def basis_element(cls, basis, lam):
        return cls(basis, {tuple(lam): ONE})

    @classmethod
    def e(cls, n):
        return cls.basis_element("e", (n,) if n else ())

    @classmethod
    def h(cls, n):
        return cls.basis_element("h", (n,) if n else ())

    @classmethod
    def p(cls, n):
        return cls.basis_element("p", (n,) if n else ())

    @classmethod
    def s(cls, lam):
        return cls.basis_element("s", lam)

    @classmethod
    def m(cls, lam):
        return cls.basis_element("m", lam)

    @classmethod
    def zero(cls, basis="m"):
        return cls(basis, {})

    # -- structure

    def is_zero(self):
        return not self.terms

    def coefficient(self, lam):
        return self.terms.get(tuple(lam), ZERO)

    # -- conversions

    def to_p_dict(self):
        """Expansion in the power-sum basis as {partition: QtScalar}."""
        out = _accumulate(self.terms, _to_p_row, self.basis)
        return {k: v for k, v in out.items() if not v.is_zero()}

    @staticmethod
    def from_p_dict(coeffs, basis="p"):
        coeffs = {tuple(k): _qt(v) for k, v in coeffs.items()}
        return SymFunc(basis, _accumulate(coeffs, _from_p_row, basis))

    def convert(self, basis):
        if basis == self.basis:
            return self
        return SymFunc.from_p_dict(self.to_p_dict(), basis)

    # -- arithmetic

    def _coerced(self, other):
        if not isinstance(other, SymFunc):
            raise TypeError("expected a SymFunc")
        return other.convert(self.basis) if other.basis != self.basis else other

    def __add__(self, other):
        other = self._coerced(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, ZERO) + c
        return SymFunc(self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _qt(c)
        return SymFunc(self.basis, {lam: v * c for lam, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SymFunc):
            return self.scale(other)
        a = self.to_p_dict()
        b = other.to_p_dict()
        out = {}
        for la, ca in a.items():
            for lb, cb in b.items():
                key = tuple(sorted(la + lb, reverse=True))
                prev = out.get(key)
                val = ca * cb
                out[key] = val if prev is None else prev + val
        return SymFunc.from_p_dict(out, self.basis)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self.to_p_dict() == other.to_p_dict()

    def __hash__(self):
        return hash(tuple(sorted(self.to_p_dict().items())))

    # -- pairings and involutions

    def _p_pairing(self, other, weight):
        """sum over rho of [p_rho]self * [p_rho]other * weight(rho)."""
        a = self.to_p_dict()
        b = other.to_p_dict()
        out = ZERO
        for lam, c in a.items():
            d = b.get(lam)
            if d is not None:
                out = out + c * d * weight(lam)
        return out

    def hall_inner(self, other):
        return self._p_pairing(other, zee)

    def qt_inner(self, other):
        def weight(lam):
            w = QtScalar.from_int(zee(lam))
            for part in lam:
                w = w * (ONE - Q ** part) / (ONE - T ** part)
            return w
        return self._p_pairing(other, weight)

    def star_inner(self, other):
        """The *-pairing, for which the modified Macdonald polynomials are
        orthogonal: <p_rho, p_rho>_* = z_rho prod_r (-1)^{r-1}(1-q^r)(1-t^r)."""
        def weight(rho):
            return zee(rho) * _prod((ONE - Q ** r) * (ONE - T ** r) * (-1) ** (r - 1)
                                    for r in rho)
        return self._p_pairing(other, weight)

    def omega(self):
        return plethysm_p_scale(self, lambda r: (-1) ** (r - 1))

    # -- expansion

    def expand(self, N, alphabet="x"):
        """The polynomial in x_1..x_N (or y_1..y_N)."""
        f = self.convert("m") if self.basis != "m" else self
        nx, ny = (N, 0) if alphabet == "x" else (0, N)
        terms = {}
        for lam, c in f.terms.items():
            if len(lam) > N:
                continue
            padded = tuple(lam) + (0,) * (N - len(lam))
            for exps in distinct_permutations(padded):
                key = (exps, ()) if alphabet == "x" else ((), exps)
                terms[key] = c
        return Poly(nx, ny, terms)

    # -- rendering

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for lam in sorted(self.terms, key=lambda l: (sum(l), l), reverse=True):
            c = self.terms[lam]
            body = f"{self.basis}[{','.join(map(str, lam))}]"
            if c.is_one():
                parts.append(body)
            else:
                cs = str(c)
                needs_parens = (" + " in cs or " - " in cs or cs.startswith("(")
                                or cs.startswith("-"))
                parts.append(f"({cs}) {body}" if needs_parens else f"{cs} {body}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# finite-alphabet polynomials


class Poly:
    """Polynomial in x_1..x_nx and y_1..y_ny with QtScalar coefficients."""

    __slots__ = ("nx", "ny", "terms")

    def __init__(self, nx, ny, terms):
        clean = {}
        for (xe, ye), c in terms.items():
            xe, ye = tuple(xe), tuple(ye)
            if len(xe) != nx or len(ye) != ny:
                raise ValueError("exponent length does not match alphabet size")
            c = _qt(c)
            if not c.is_zero():
                clean[(xe, ye)] = c
        self.nx = nx
        self.ny = ny
        self.terms = clean

    @classmethod
    def zero(cls, nx, ny=0):
        return cls(nx, ny, {})

    @classmethod
    def constant(cls, nx, ny, c):
        return cls(nx, ny, {((0,) * nx, (0,) * ny): _qt(c)})

    def coefficient(self, xe, ye=()):
        return self.terms.get((tuple(xe), tuple(ye)), ZERO)

    def _check(self, other):
        if (self.nx, self.ny) != (other.nx, other.ny):
            raise ValueError("alphabet sizes differ")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            out[k] = c if prev is None else prev + c
        return Poly(self.nx, self.ny, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _qt(c)
        return Poly(self.nx, self.ny, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = {}
        for (xa, ya), ca in self.terms.items():
            for (xb, yb), cb in other.terms.items():
                key = (tuple(p + q for p, q in zip(xa, xb)),
                       tuple(p + q for p, q in zip(ya, yb)))
                val = ca * cb
                prev = out.get(key)
                out[key] = val if prev is None else prev + val
        return Poly(self.nx, self.ny, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and (self.nx, self.ny) == (other.nx, other.ny)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nx, self.ny, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        def mono(exps, letter):
            return " ".join(
                f"{letter}{i+1}" if e == 1 else f"{letter}{i+1}^{e}"
                for i, e in enumerate(exps) if e
            )
        parts = []
        for key in sorted(self.terms, reverse=True):
            xe, ye = key
            c = self.terms[key]
            body = " ".join(s for s in (mono(xe, "x"), mono(ye, "y")) if s)
            cs = str(c)
            if c.is_one() and body:
                parts.append(body)
            elif body:
                parts.append(f"({cs}) {body}")
            else:
                parts.append(f"({cs})")
        return " + ".join(parts)

    __repr__ = __str__


def poly_to_symfunc(poly, alphabet="x", basis="m"):
    """Read a symmetric polynomial back off as a symmetric function.

    Raises ValueError if the polynomial is not symmetric in the alphabet
    (verified by re-expanding the result).  In the Schur basis only the s_lam
    with l(lam) <= N are kept: the others vanish on N variables, so the
    polynomial does not determine their coefficients.
    """
    N = poly.nx if alphabet == "x" else poly.ny
    terms = {}
    for (xe, ye), c in poly.terms.items():
        exps = xe if alphabet == "x" else ye
        other = ye if alphabet == "x" else xe
        if any(other):
            raise ValueError("polynomial mixes both alphabets")
        if all(exps[i] >= exps[i + 1] for i in range(len(exps) - 1)):
            lam = tuple(e for e in exps if e)
            terms[lam] = c
    f = SymFunc("m", terms)
    if f.expand(N, alphabet) != poly:
        raise ValueError("polynomial is not symmetric")
    if basis == "s":
        return SymFunc("s", {lam: c for lam, c in f.convert("s").terms.items()
                             if len(lam) <= N})
    return f.convert(basis) if basis != "m" else f


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


# ---------------------------------------------------------------------------
# plethysm


def _scale_one(r):
    return ONE


_SCALES = {
    "1": _scale_one,
    "1-q": lambda r: ONE - Q ** r,
    "1/(1-q)": lambda r: ONE / (ONE - Q ** r),
    "t-1": lambda r: T ** r - ONE,
    "q-1": lambda r: Q ** r - ONE,
    "1/((1-q)(1-t))": lambda r: ONE / ((ONE - Q ** r) * (ONE - T ** r)),
}


@dataclass(frozen=True)
class AlphabetExpr:
    """A plethysm argument: optional finite alphabets times a q,t multiplier."""

    nx: int | None = None
    ny: int | None = None
    scale: str = "1"

    def scale_fn(self):
        try:
            return _SCALES[self.scale]
        except KeyError:
            raise ValueError(f"unsupported plethysm multiplier {self.scale!r}") from None


def plethysm_p_scale(f, scale_fn):
    """f[X g(q,t)] on the abstract alphabet: p_r picks up the factor g(q^r, t^r)."""
    out = {rho: c * _prod(scale_fn(r) for r in rho)
           for rho, c in f.to_p_dict().items()}
    return SymFunc.from_p_dict(out, f.basis)


def _prod(it):
    out = ONE
    for v in it:
        out = out * v
    return out


def _power_sum_poly(nx, ny, r):
    terms = {}
    for i in range(nx):
        xe = [0] * nx
        xe[i] = r
        terms[(tuple(xe), (0,) * ny)] = ONE
    if ny:
        ypart = {}
        for j in range(ny):
            ye = [0] * ny
            ye[j] = r
            ypart[((0,) * nx, tuple(ye))] = ONE
        if nx:
            return Poly(nx, ny, terms) * Poly(nx, ny, ypart)
        return Poly(nx, ny, ypart)
    return Poly(nx, ny, terms)


def plethysm_expand(f, nx, ny=0, scale_fn=None):
    """f[X Y g(q,t)] with finite alphabets, via the power-sum route."""
    out = Poly.zero(nx, ny)
    for rho, c in f.to_p_dict().items():
        term = Poly.constant(nx, ny, c)
        for r in rho:
            factor = _power_sum_poly(nx, ny, r)
            if scale_fn is not None:
                factor = factor.scale(scale_fn(r))
            term = term * factor
        out = out + term
    return out


def plethysm(f, expr):
    """Plethystic substitution per an AlphabetExpr; Poly for finite alphabets."""
    fn = expr.scale_fn()
    if expr.nx is None and expr.ny is None:
        return plethysm_p_scale(f, fn)
    return plethysm_expand(f, expr.nx or 0, expr.ny or 0, fn)
