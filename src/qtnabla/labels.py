"""Labels, sorted triples, the dinv statistics, attack Dyck paths, and the
inversion-weighted label generating functions (xi and the chromatic one).

Sorting conventions: a triple (m, a, b) is sorted when m is weakly
decreasing, ties are broken by a increasing, then by b increasing.  All
pair indices in the public API are 1-based.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

from .scalar import ONE, Q, QtScalar
from .symfunc import Poly, plethysm_p_scale, poly_to_symfunc, sort_partition


def sort_columns(*cols):
    """Simultaneously sort parallel sequences by ascending column lex order."""
    if len({len(c) for c in cols}) > 1:
        raise ValueError("sequences must have equal length")
    rows = sorted(zip(*cols))
    return tuple(tuple(r[i] for r in rows) for i in range(len(cols)))


def sort_triple(m, a, b):
    """The Def-mab representative: m decreasing, ties by a, then b increasing."""
    if not (len(m) == len(a) == len(b)):
        raise ValueError("sequences must have equal length")
    rows = sorted(zip(m, a, b), key=lambda r: (-r[0], r[1], r[2]))
    return (tuple(r[0] for r in rows), tuple(r[1] for r in rows),
            tuple(r[2] for r in rows))


def _ascending(keys):
    return all(u <= v for u, v in zip(keys, keys[1:]))


def is_sorted_triple(m, a, b):
    """Is (m, a, b) its own sort_triple?  Adjacent columns compared under
    the same key, without sorting."""
    if not (len(m) == len(a) == len(b)):
        raise ValueError("sequences must have equal length")
    return _ascending([(-x, y, z) for x, y, z in zip(m, a, b)])


def is_sorted_pair(m, a):
    return _ascending([(-x, y) for x, y in zip(m, a)])


def alpha_composition(values):
    """Run lengths of the sorted sequence; entries may be ints or tuples."""
    vals = sorted(values)
    out = []
    for v in vals:
        if out and v == prev:
            out[-1] += 1
        else:
            out.append(1)
        prev = v
    return tuple(out)


def mu_partition(values):
    return sort_partition(alpha_composition(values))


# ---------------------------------------------------------------------------
# dinv


def dinv_k(m, a, b, k):
    """dinv of a sorted triple: pairwise max(m_j - m_i - 1 + k + deltas, 0)."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    n = len(m)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = m[j] - m[i] - 1 + k + (a[i] > a[j]) + (b[i] > b[j])
            if v > 0:
                total += v
    return total


def dinv_k_pair(m, a, k):
    """The b-free version (equivalently b constant)."""
    if not is_sorted_pair(m, a):
        raise ValueError("pair is not sorted")
    n = len(m)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = m[j] - m[i] - 1 + k + (a[i] > a[j])
            if v > 0:
                total += v
    return total


def attacks(m, a, i, j, k):
    """Does i k-attack j (1-based, i < j, sorted pair)?"""
    if not 1 <= i < j <= len(m):
        raise ValueError("need 1 <= i < j <= n")
    return m[j - 1] - m[i - 1] - 1 + k + (a[i - 1] > a[j - 1]) >= 0


class DyckPath:
    """A Dyck path stored as its strict-inversion set D(pi), 1-based pairs."""

    __slots__ = ("n", "dset", "area_sequence")

    def __init__(self, n, dset):
        dset = frozenset((int(i), int(j)) for i, j in dset)
        rows = {i: set() for i in range(1, n + 1)}
        for i, j in dset:
            if not 1 <= i < j <= n:
                raise AssertionError("D-set pair out of range")
            rows[j].add(i)
        area = []
        for j in range(1, n + 1):
            r = rows[j]
            if r and r != set(range(j - len(r), j)):
                raise AssertionError("D-set is not path-shaped")
            area.append(len(r))
        if area and area[0] != 0:
            raise AssertionError("area sequence must start at 0")
        for i in range(1, n):
            if area[i] > area[i - 1] + 1:
                raise AssertionError("area sequence rises by more than one")
        self.n = n
        self.dset = dset
        self.area_sequence = tuple(area)

    def __eq__(self, other):
        return isinstance(other, DyckPath) and (self.n, self.dset) == (other.n, other.dset)

    def __hash__(self):
        return hash((self.n, self.dset))

    def __repr__(self):
        return f"DyckPath(n={self.n}, area={self.area_sequence})"


def all_dyck_paths(n):
    """All Dyck paths of size n >= 1, generated from their area sequences."""
    def rec(prefix):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(0, prefix[-1] + 2):
            yield from rec(prefix + [v])

    if n < 1:
        return
    for area in rec([0]):
        dset = {(i, j) for j in range(1, n + 1)
                for i in range(j - area[j - 1], j)}
        yield DyckPath(n, dset)


def attack_path(m, a, k):
    """The Dyck path whose D-set is the set of k-attacking pairs."""
    if not is_sorted_pair(m, a):
        raise ValueError("pair is not sorted")
    n = len(m)
    dset = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if attacks(m, a, i, j, k)}
    return DyckPath(n, dset)


def inv_pi(path, b):
    """Inversions of the label b over the path's D-set."""
    if len(b) != path.n:
        raise ValueError("label length must match the path size")
    return sum(1 for i, j in path.dset if b[i - 1] > b[j - 1])


def xi_pi(path, N):
    """xi_pi[Y; q] = sum over labels b with entries <= N of q^{inv} Y_b."""
    n = path.n
    terms = {}
    for b in product(range(1, N + 1), repeat=n):
        exps = tuple(b.count(v) for v in range(1, N + 1))
        key = ((), exps)
        c = QtScalar.monomial(q=inv_pi(path, b))
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return Poly(0, N, terms)


def chromatic(path, N):
    """Stanley's chromatic symmetric function: proper labels only."""
    n = path.n
    terms = {}
    for b in product(range(1, N + 1), repeat=n):
        if any(b[i - 1] == b[j - 1] for i, j in path.dset):
            continue
        exps = tuple(b.count(v) for v in range(1, N + 1))
        key = ((), exps)
        c = QtScalar.monomial(q=inv_pi(path, b))
        prev = terms.get(key)
        terms[key] = c if prev is None else prev + c
    return Poly(0, N, terms)


def verify_xi(n):
    """xi_pi[Y; q] = (1-q)^n omega X_pi[Y/(1-q); q] in n variables, for every
    Dyck path of size n; stops at the first path where the two differ."""
    checked = 0
    failure = None
    for path in all_dyck_paths(n):
        lhs = xi_pi(path, n)
        krom = poly_to_symfunc(chromatic(path, n), alphabet="y")
        scaled = plethysm_p_scale(krom, lambda r: ONE / (ONE - Q ** r))
        rhs = scaled.omega().expand(n, "y").scale((ONE - Q) ** n)
        checked += 1
        if lhs != rhs:
            failure = {"area_sequence": list(path.area_sequence)}
            break
    return {"n": n, "paths": checked, "ok": failure is None, "failure": failure}


# ---------------------------------------------------------------------------
# enumeration of sorted tuples


def _sorted_m_vectors(n, total):
    """Weakly decreasing nonnegative n-vectors with the given sum."""
    out = []

    def rec(rest, slots, biggest, prefix):
        if slots == 0:
            if rest == 0:
                out.append(tuple(prefix))
            return
        for v in range(min(rest, biggest), -1, -1):
            if v * slots >= rest:
                prefix.append(v)
                rec(rest - v, slots - 1, v, prefix)
                prefix.pop()

    rec(total, n, total, [])
    return out


def iter_sorted_pairs(n, N, degree):
    """Sorted pairs (m, a) with |m| = degree and labels bounded by N."""
    for m in _sorted_m_vectors(n, degree):
        runs = _runs(m)
        choices = [combinations_with_replacement(range(1, N + 1), r) for r in runs]
        for parts in product(*choices):
            a = tuple(v for block in parts for v in block)
            yield m, a


def iter_sorted_triples(n, N, degree):
    """Sorted triples (m, a, b) with |m| = degree and labels bounded by N."""
    pairs = list(product(range(1, N + 1), repeat=2))
    for m in _sorted_m_vectors(n, degree):
        runs = _runs(m)
        choices = [combinations_with_replacement(pairs, r) for r in runs]
        for parts in product(*choices):
            a = tuple(p[0] for block in parts for p in block)
            b = tuple(p[1] for block in parts for p in block)
            yield m, a, b


def _runs(m):
    runs = []
    for v in m:
        if runs and v == prev:
            runs[-1] += 1
        else:
            runs.append(1)
        prev = v
    return runs
