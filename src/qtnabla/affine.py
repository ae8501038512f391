"""Positive extended affine permutations in window notation: length,
transpositions, edge sets and the dimension statistic, standardization, the
triple-to-permutation map paff, the left-coset extremes and the double-coset
maximum read from descents, the affine-permutation power series, and the
paff sweep of verify-paff.

Windows are tuples (w_1..w_n) of integers with pairwise distinct residues
mod n; composition acts as functions, (uv)(i) = u(v(i)).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import gcd

from .scalar import ONE, Q, SeriesBuilder, fail
from .labels import (_dinv_k, alpha_composition, attack_path, compositions,
                     is_sorted_triple, iter_sorted_triples)


class AffinePermutation:
    """An extended affine permutation given by its window."""

    __slots__ = ("window", "_length")

    def __init__(self, window):
        window = tuple(int(v) for v in window)
        n = len(window)
        if n == 0:
            raise ValueError("empty window")
        if len({v % n for v in window}) != n:
            raise ValueError(f"residues not distinct mod {n}: {window}")
        self.window = window
        self._length = None

    @property
    def n(self):
        return len(self.window)

    def __call__(self, i):
        n = self.n
        r = (i - 1) % n
        return self.window[r] + (i - 1 - r)

    def __mul__(self, other):
        window = self.window
        n = len(window)
        if n != len(other.window):
            raise ValueError("sizes differ")
        out = []
        for v in other.window:
            r = (v - 1) % n
            out.append(window[r] + (v - 1 - r))
        return _unchecked(tuple(out))

    def inverse(self):
        n = len(self.window)
        window = [0] * n
        for i, w in enumerate(self.window, start=1):
            r = (w - 1) % n
            window[r] = i + (r + 1 - w)
        return _unchecked(tuple(window))

    def d_grade(self):
        n = self.n
        total = sum(self.window) - n * (n + 1) // 2
        if total % n:
            raise AssertionError("window sum incompatible with the lattice")
        return total // n

    def length(self):
        """Number of inversions (i, j), 1 <= i <= n, i < j, w(i) > w(j)."""
        if self._length is not None:
            return self._length
        window = self.window
        n = len(window)
        total = 0
        for p, wp in enumerate(window):
            for pp, wpp in enumerate(window):
                if pp == p:
                    continue
                diff = wp - wpp
                r0 = 0 if pp > p else 1
                if diff > r0 * n:
                    total += (diff + n - 1) // n - r0
        self._length = total
        return total

    def __eq__(self, other):
        return isinstance(other, AffinePermutation) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"AffinePermutation{self.window}"


def _unchecked(window):
    """The permutation of a tuple of ints whose residues are distinct by
    construction (a product, an inverse, a standardization, a coset
    extreme), built without checking them again."""
    w = object.__new__(AffinePermutation)
    w.window = window
    w._length = None
    return w


def transposition(n, a, b):
    """The affine transposition swapping a and b (and all their translates)."""
    if (a - b) % n == 0:
        raise ValueError("entries congruent mod n")
    window = []
    for i in range(1, n + 1):
        if (i - a) % n == 0:
            window.append(b + (i - a))
        elif (i - b) % n == 0:
            window.append(a + (i - b))
        else:
            window.append(i)
    return AffinePermutation(window)


def _values(w, count):
    """w(1), ..., w(count), read from the window."""
    window = w.window
    n = len(window)
    return [window[i % n] + i - i % n for i in range(count)]


def _edges(winv_values, n, m):
    """The edges of height < m of the w whose inverse takes the values
    winv_values on 1, ..., n + m - 1: for a < b, l(t_ab w) < l(w) exactly
    when w^{-1}(a) > w^{-1}(b) (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, ch. 8), so no length is computed."""
    return [(a, a + h) for a in range(1, n + 1) for h in range(1, m)
            if h % n and winv_values[a - 1] > winv_values[a + h - 1]]


def edges(w, m):
    """Canonical (a, b) pairs of height < m whose reflection shortens w."""
    return _edges(_values(w.inverse(), w.n + m - 1), w.n, m)


@lru_cache(maxsize=None)
def max_area(n, m):
    """Cells between the maximal (n, m)-path and the diagonal."""
    count = sum(1 for i in range(m) for j in range(n) if j * m >= (i + 1) * n)
    closed = ((n - 1) * (m - 1) + gcd(n, m) - 1) // 2
    if count != closed:
        raise AssertionError("closed form for the maximal area is wrong")
    return count


def dimv(w, m):
    return max_area(w.n, m) - len(edges(w, m))


def wvec(w, m):
    """Edge counts by conjugated class: entry j counts edges with
    w^{-1} t w = t_{i,j}, i < j, j normalized into 1..n."""
    n = w.n
    vals = _values(w.inverse(), n + m - 1)
    out = [0] * n
    for a, b in _edges(vals, n, m):
        # an edge has w^{-1}(a) > w^{-1}(b); the class is the larger's residue
        out[(vals[a - 1] - 1) % n] += 1
    return tuple(out)


def coarea_path(w, m):
    """The rational (n, m)-Dyck path data: its sorted coarea sequence."""
    return tuple(sorted(wvec(w, m)))


def rational_area_sequence(w, m):
    """Area sequence of the rational (n, m)-path with coarea sort(wvec).

    Row j of the (n, m) grid holds floor((j-1) m / n) cells under the
    diagonal; subtracting the sorted coarea row by row gives the areas.
    """
    n = w.n
    coarea = coarea_path(w, m)
    out = []
    for j in range(1, n + 1):
        cap = (j - 1) * m // n
        if coarea[j - 1] > cap:
            raise AssertionError("coarea exceeds the row capacity")
        out.append(cap - coarea[j - 1])
    return tuple(out)


def standardize(a, order="<"):
    """The permutation sorting a by the chosen order, ties left to right."""
    n = len(a)
    if order == "<":
        ranking = sorted(range(n), key=lambda i: (a[i], i))
    elif order == ">":
        ranking = sorted(range(n), key=lambda i: (-a[i], i))
    else:
        raise ValueError("order must be '<' or '>'")
    out = [0] * n
    for rank, i in enumerate(ranking, start=1):
        out[i] = rank
    return tuple(out)


def tau(mvec):
    """The window (n + m_1 n, n-1 + m_2 n, ..., 1 + m_n n)."""
    n = len(mvec)
    return _unchecked(tuple((n - i) + mvec[i] * n for i in range(n)))


def paff(m, a, b):
    """shuff_>(reversed b) . tau_m . shuff_<(a)^{-1} for a sorted triple."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    left = _unchecked(standardize(tuple(reversed(b)), ">"))
    right = _unchecked(standardize(a, "<")).inverse()
    return left * tau(m) * right


def left_coset_min_max(w):
    """Bruhat-minimal and maximal representatives of S_n . w.

    The coset is determined by the translation vector q_i = (w_i - r_i)/n;
    assigning residues 1..n along increasing (i - n q_i) gives the minimum,
    along decreasing gives the maximum.
    """
    n = w.n
    qs = []
    for i in range(1, n + 1):
        wi = w.window[i - 1]
        r = (wi - 1) % n + 1
        qs.append((wi - r) // n)
    order = sorted(range(n), key=lambda i: (i + 1) - n * qs[i])
    wmin = [0] * n
    for rank, i in enumerate(order, start=1):
        wmin[i] = rank + n * qs[i]
    wmax = [0] * n
    for rank, i in enumerate(order, start=1):
        wmax[i] = (n + 1 - rank) + n * qs[i]
    return _unchecked(tuple(wmin)), _unchecked(tuple(wmax))


def _block_steps(alpha):
    """The i with s_i in S_alpha: i and i + 1 lie in one block of alpha."""
    start = 1
    for size in alpha:
        yield from range(start, start + size - 1)
        start += size


def _coset_max_witness(w, alpha_left, alpha_right):
    """None when w is the strict maximum of S_alpha_left . w . S_alpha_right,
    else an element of it one longer than w: s_i w for the first s_i of
    S_alpha_left that is not a left descent of w, or w s_i for the first s_i
    of S_alpha_right that is not a right descent.

    For finite parabolic subgroups W_I, W_J the maximum of W_I w W_J is the
    one element with every s in I a left descent and every s in J a right
    descent (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 2; Billey,
    Konvalinka, Petersen, Slofstra and Tenner, Parabolic double cosets in
    Coxeter groups, 2018), and s_i is a left descent of w exactly when
    w^{-1}(i) > w^{-1}(i + 1), a right descent when w(i) > w(i + 1).  So no
    element of the coset is formed; the double_coset of tests/oracles.py
    lists them all."""
    n = w.n
    winv = w.inverse().window
    for i in _block_steps(alpha_left):
        if winv[i - 1] < winv[i]:
            return transposition(n, i, i + 1) * w
    window = w.window
    for i in _block_steps(alpha_right):
        if window[i - 1] < window[i]:
            return w * transposition(n, i, i + 1)
    return None


def iter_wplus_graded(n, d):
    for qs in compositions(d, n):
        for perm in permutations(range(1, n + 1)):
            yield _unchecked(tuple(perm[i] + n * qs[i] for i in range(n)))


def raths_series(n, k, degree):
    """(1/(1-q)^n) sum over w in W+_n of t^area q^dimv_kn, truncated at
    t-degree `degree`; area(w) is the d-grade.

    The sum runs over the kn-restricted w, those with w^{-1} kn-stable.
    No restriction is checked, because every w passes it:
    w^{-1}(i + kn) = w^{-1}(i) + kn.  The normalization (1-q)^gcd(n, m) of
    an m-restricted sum is (1-q)^n at m = kn.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = k * n
    builder = SeriesBuilder(0, 0, degree)
    for d in range(degree + 1):
        for w in iter_wplus_graded(n, d):
            builder.add((), d, dimv(w, m))
    return builder.build((ONE / (ONE - Q)) ** n).series(())


def verify_paff(n, k, degree, N):
    """Finite verification of the triple-to-permutation bijection claims.

    Checks, over sorted triples with |m| <= degree and labels <= N:
      (i)   paff lands on the strict maximum of its double coset, injectively
            within each label-multiset class; the maximum is read from the
            descents of w (_coset_max_witness);
      (ii)  dinv_k(m, a, b) = dimv_{kn}(paff(m, a, b));
      (iii) the attack path's area sequence is the coordinatewise difference
            of the edge-class vectors of the left-coset extremes.
    Claim (iii) reads w only through its translation vector, the
    (w_i - 1) // n, which fixes the left coset S_n . w, and the attack
    path reads only (m, a, k); so it is checked once per key (m, a,
    translation vector), and a repeat key has nothing new to compare.
    The fourth claim, that the GKM leading-form degree equals dimv_{kn}, is
    not compared per triple because it holds for every w: the degree is
    sum_{i<j} (k - refined count) = k*C(n, 2) - |E_kn(w)|, dimv_{kn}(w) is
    max_area(n, kn) - |E_kn(w)|, and max_area(n, kn) = k*C(n, 2). The tests
    pin that identity: the b_poly_degree of tests/oracles.py against dimv.
    k >= 1: at k = 0 claims (ii) and (iii) compare 0 with 0 on every triple.
    Returns a report dict; "ok" is False on the first counterexample.
    """
    if k < 1:
        raise ValueError("k must be positive")
    report = {"n": n, "k": k, "D": degree, "N": N, "ok": True,
              "triples": 0, "failures": []}

    seen = {}
    checked = set()
    for d in range(degree + 1):
        for m, a, b in iter_sorted_triples(n, N, d):
            report["triples"] += 1
            w = paff(m, a, b)
            at = {"triple": (m, a, b), "w": w.window}
            if w.d_grade() != d:
                return fail(report, "grade", at)
            val_dinv = _dinv_k(m, a, b, k)  # paff has checked it sorted
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
            key = (m, a, tuple((wi - 1) // n for wi in w.window))
            if key in checked:
                continue
            checked.add(key)
            wmin, wmax = left_coset_min_max(w)
            diff = tuple(x - y for x, y in zip(rational_area_sequence(wmin, k * n),
                                              rational_area_sequence(wmax, k * n)))
            if diff != attack_path(m, a, k).area_sequence:
                return fail(report, "area-difference",
                            {"triple": (m, a, b), "diff": diff})
    return report
