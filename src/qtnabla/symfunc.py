"""Partitions, classical symmetric-function bases, inner products, plethysm,
and finite-alphabet monomial expansion over exact q,t-rational coefficients.

One recursion, _sorted_m_vectors, lists the weakly decreasing m-vectors of
the label enumerators and, as the n-vectors of sum n, the partitions of n.

Every basis change is one pass (`_convert`) over one transition table per
(source basis, target basis, degree), built once by `_table` from four rules
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I):

- Newton's identity gives h in p and p in h;
- e is omega h: the same rows times eps_rho = (-1)^(|rho| - l(rho));
- Jacobi-Trudi gives s in p;
- Hall duality gives m in p, p in m and p in s:
  [b_lam] p_rho = z_rho [p_rho] b*_lam, with m* = h and s* = s.

A table between two bases other than p is composed through p once. Entries
are stored as int wherever they are integral, so the m <-> s, m <-> e and
m <-> h tables are integer matrices.

Plethysm by X g(q,t) takes the multiplier as the callable r -> g(q^r, t^r),
the factor that p_r picks up: on the abstract alphabet it scales the p
coefficients (plethysm_p_scale), and in finite alphabets it expands each
power sum (plethysm_expand). omega is the plethysm p_r -> (-1)^(r-1) p_r.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .scalar import ONE, Q, QtScalar, T, ZERO, _coerce

# ---------------------------------------------------------------------------
# partitions


def _sorted_m_vectors(n, total, biggest=None):
    """Weakly decreasing nonnegative n-vectors with the given sum, every entry
    at most biggest (unbounded when None), in descending lexicographic
    order."""
    out = []

    def rec(rest, slots, biggest, prefix):
        if rest == 0:
            out.append(tuple(prefix) + (0,) * slots)
        elif slots:
            # down to the least v that leaves the other slots at most v each
            for v in range(min(rest, biggest), -(-rest // slots) - 1, -1):
                prefix.append(v)
                rec(rest - v, slots - 1, v, prefix)
                prefix.pop()

    rec(total, n, total if biggest is None else biggest, [])
    return out


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n, in descending lexicographic order."""
    return tuple(tuple(v for v in m if v) for m in _sorted_m_vectors(n, n))


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
# transition tables (Macdonald, Symmetric Functions and Hall Polynomials, ch. I)


def _product(single, lam):
    """The product over the parts of lam of single(part), each factor an
    expansion {partition: c} in a multiplicative basis (p or h)."""
    out = {(): 1}
    for part in lam:
        nxt = {}
        for key, c in out.items():
            for factor, d in single(part).items():
                key2 = tuple(sorted(key + factor, reverse=True))
                nxt[key2] = nxt.get(key2, 0) + c * d
        out = {k: v for k, v in nxt.items() if v}
    return out


@lru_cache(maxsize=None)
def _h_in_p(r):
    """h_r in the p basis, by Newton's identity r h_r = sum_{i=1..r} p_i h_(r-i)."""
    if r == 0:
        return {(): 1}
    acc = {}
    for i in range(1, r + 1):
        for key, c in _h_in_p(r - i).items():
            key = tuple(sorted(key + (i,), reverse=True))
            acc[key] = acc.get(key, 0) + Fraction(c, r)
    return acc


@lru_cache(maxsize=None)
def _p_in_h(r):
    """p_r in the h basis, by the same identity solved for p_r:
    p_r = r h_r - sum_{i=1..r-1} p_i h_(r-i)."""
    acc = {(r,): r}
    for i in range(1, r):
        for key, c in _p_in_h(i).items():
            key = tuple(sorted(key + (r - i,), reverse=True))
            acc[key] = acc.get(key, 0) - c
    return {k: v for k, v in acc.items() if v}


def _epsilon(rho):
    """omega p_rho = eps_rho p_rho, eps_rho = (-1)^(|rho| - l(rho))."""
    return -1 if (sum(rho) - len(rho)) % 2 else 1


def _jacobi_trudi(lam):
    """s_lam in the h basis: the determinant of h_(lam_i - i + j)."""
    ell = len(lam)
    out = {}
    for sigma in permutations(range(ell)):
        parts = [lam[i] - i + sigma[i] for i in range(ell)]
        if parts and min(parts) < 0:
            continue
        inversions = sum(sigma[i] > sigma[j]
                         for i in range(ell) for j in range(i + 1, ell))
        key = sort_partition(parts)
        out[key] = out.get(key, 0) + (-1 if inversions % 2 else 1)
    return out


_DUAL = {"m": "h", "s": "s"}  # the Hall-dual basis: <b_lam, b*_mu> = delta


@lru_cache(maxsize=None)
def _table(source, target, n):
    """The degree-n transition table {lam: {mu: c}}, source_lam = sum over mu
    of c target_mu; c is an int wherever it is integral."""
    parts = partitions(n)
    if source == target:
        rows = {lam: {lam: 1} for lam in parts}
    elif "p" not in (source, target):  # composed through p
        rows = {lam: _convert(row, "p", target)
                for lam, row in _table(source, "p", n).items()}
    elif source == "h":  # Newton
        rows = {lam: _product(_h_in_p, lam) for lam in parts}
    elif target == "h":
        rows = {rho: _product(_p_in_h, rho) for rho in parts}
    elif source == "e":  # e = omega h
        rows = {lam: {rho: _epsilon(rho) * c for rho, c in row.items()}
                for lam, row in _table("h", "p", n).items()}
    elif target == "e":
        rows = {rho: {lam: _epsilon(rho) * c for lam, c in row.items()}
                for rho, row in _table("p", "h", n).items()}
    elif source == "s":  # Jacobi-Trudi
        rows = {lam: _convert(_jacobi_trudi(lam), "h", "p") for lam in parts}
    elif source == "m":  # Hall duality: [p_rho] m_lam = [h_lam] p_rho / z_rho
        dual = _table("p", "h", n)
        rows = {lam: {rho: Fraction(dual[rho][lam], zee(rho))
                      for rho in parts if lam in dual[rho]} for lam in parts}
    else:  # Hall duality: [b_lam] p_rho = z_rho [p_rho] b*_lam, b = m or s
        dual = _table(_DUAL[target], "p", n)
        rows = {rho: {lam: zee(rho) * dual[lam][rho]
                      for lam in parts if rho in dual[lam]} for rho in parts}
    return {lam: {mu: c.numerator if c.denominator == 1 else c
                  for mu, c in row.items() if c}
            for lam, row in rows.items()}


def _convert(terms, source, target):
    """The sum of c * (source_lam in the target basis) over the terms
    {lam: c}: the one loop of every basis change."""
    out = {}
    for lam, c in terms.items():
        for mu, d in _table(source, target, sum(lam))[lam].items():
            v = c if d == 1 else c * d
            prev = out.get(mu)
            out[mu] = v if prev is None else prev + v
    return out


# ---------------------------------------------------------------------------

def _qt(c):
    out = _coerce(c)
    if out is NotImplemented:
        raise TypeError(f"bad coefficient type {type(c)!r}")
    return out


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

    # -- conversions

    def to_p_dict(self):
        """Expansion in the power-sum basis as {partition: QtScalar}."""
        out = _convert(self.terms, self.basis, "p")
        return {k: v for k, v in out.items() if not v.is_zero()}

    @staticmethod
    def from_p_dict(coeffs, basis="p"):
        return SymFunc("p", coeffs).convert(basis)

    def convert(self, basis):
        if basis == self.basis:
            return self
        return SymFunc(basis, _convert(self.terms, self.basis, basis))

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

    def __repr__(self):
        return f"Poly({self.nx}, {self.ny}, {self.terms!r})"


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


# ---------------------------------------------------------------------------
# plethysm


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


def plethysm(f, scale_fn, nx=None, ny=None):
    """f[X g(q,t)] for scale_fn(r) = g(q^r, t^r): a SymFunc on the abstract
    alphabet, or a Poly when nx or ny gives finite alphabets."""
    if nx is None and ny is None:
        return plethysm_p_scale(f, scale_fn)
    return plethysm_expand(f, nx or 0, ny or 0, scale_fn)
