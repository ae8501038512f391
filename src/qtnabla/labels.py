"""Labels, sorted triples, the dinv statistics, attack Dyck paths, and the
inversion-weighted label generating functions (xi and the chromatic one).
Each combinatorial family has one enumerator: weak compositions, sorted
pairs and triples here, and the weakly decreasing m-vectors in symfunc.

Every triple-weighted series goes through one block walk, triple_series.
A series gives its statistic as a pair weight: a function of m_i - m_j,
a_i, a_j, b_i and b_j for column i before column j, an int, or None to
leave the triple out.  The walk takes the columns under one m-value as
one block, works out each block's inner sum, and per m-difference its
weight against each column, once, and adds them as it descends; the
squarefree coefficient takes the same walk over label permutations only.

xi and the chromatic function walk n! label permutations, not N^n words, and
expand their tallies through fundamental_expansion, as the parking sum does.

Sorting conventions: a triple (m, a, b) is sorted when m is weakly
decreasing, ties are broken by a increasing, then by b increasing.  All
pair indices in the public API are 1-based.
"""

from __future__ import annotations

from itertools import (combinations, combinations_with_replacement, groupby,
                       permutations, product)
from operator import sub

from .scalar import ONE, Q, QtScalar, SeriesBuilder, compare
from .symfunc import (Poly, _sorted_m_vectors, plethysm_p_scale,
                      poly_to_symfunc, sort_partition)


def _ascending(keys):
    return all(u <= v for u, v in zip(keys, keys[1:]))


def is_sorted_triple(m, a, b):
    """Is (m, a, b) its own sort_triple?  Adjacent columns compared under
    the same key, without sorting."""
    if not (len(m) == len(a) == len(b)):
        raise ValueError("sequences must have equal length")
    return _ascending([(-x, y, z) for x, y, z in zip(m, a, b)])


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


def content(word, N):
    """The label content of a word over 1..N: how often each value occurs,
    the exponent vector of its monomial X_word."""
    return tuple(word.count(v) for v in range(1, N + 1))


# ---------------------------------------------------------------------------
# dinv


def dinv_k(m, a, b, k):
    """dinv of a sorted triple: pairwise max(m_j - m_i - 1 + k + deltas, 0).
    A sorted pair (m, a) is the sorted triple with b constant."""
    if not is_sorted_triple(m, a, b):
        raise ValueError("triple is not sorted")
    return _dinv_k(m, a, b, k)


def _dinv_k(m, a, b, k):
    """dinv_k of a triple the caller has already checked sorted."""
    n = len(m)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            v = m[j] - m[i] - 1 + k + (a[i] > a[j]) + (b[i] > b[j])
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
    if not is_sorted_triple(m, a, (1,) * len(m)):
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


def _label_sum(path, N, proper):
    """Sum over labels b with entries <= N of q^{inv} Y_b; proper keeps only
    those with distinct entries on every pair of the D-set.  The labels that
    standardize to sigma (equal entries read as increasing left to right)
    share its inv and are the monomials of F_D, D = {j : j+1 left of j};
    proper makes D strict also where j, j+1 sit on a pair, which suffices
    as a D-set holds every pair nested in one of its pairs."""
    n, dset = path.n, path.dset
    counts = {}  # (descent mask, inv, 0) -> number of permutations
    at = [0] * (n + 1)  # label -> its 1-based position
    for sigma in permutations(range(1, n + 1)):
        for p, v in enumerate(sigma, 1):
            at[v] = p
        d = 0
        for j in range(1, n):
            if at[j + 1] < at[j] or proper and (at[j], at[j + 1]) in dset:
                d |= 1 << (j - 1)
        key = (d, inv_pi(path, sigma), 0)
        counts[key] = counts.get(key, 0) + 1
    return Poly(0, N, {((), exps): c for exps, c
                       in fundamental_expansion(counts, n, N)})


def xi_pi(path, N):
    """xi_pi[Y; q] = sum over labels b with entries <= N of q^{inv} Y_b."""
    return _label_sum(path, N, False)


def chromatic(path, N):
    """Stanley's chromatic symmetric function: proper labels only."""
    return _label_sum(path, N, True)


def verify_xi(n):
    """xi_pi[Y; q] = (1-q)^n omega X_pi[Y/(1-q); q] in n variables, for every
    Dyck path of size n; stops at the first path where the two differ, and
    reports it with the first y-monomial where they do."""
    checked = 0
    failure = None
    for path in all_dyck_paths(n):
        lhs = xi_pi(path, n)
        krom = poly_to_symfunc(chromatic(path, n), alphabet="y")
        # omega X_pi[Y/(1-q)]: p_r picks up (-1)^(r-1) / (1 - q^r)
        scaled = plethysm_p_scale(krom,
                                  lambda r: (-1) ** (r - 1) / (ONE - Q ** r))
        rhs = scaled.scale((ONE - Q) ** n).expand(n, "y")
        checked += 1
        if lhs != rhs:
            failure = compare(lhs, rhs, area_sequence=list(path.area_sequence))
            break
    return {"n": n, "paths": checked, "ok": failure is None, "failure": failure}


# ---------------------------------------------------------------------------
# enumeration of sorted tuples


def compositions(total, slots):
    """Weak compositions of total into the given number of slots, in
    lexicographic order: each is read off its slots - 1 cuts, its partial
    sums, a weakly increasing choice from 0..total (stars and bars)."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), slots - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def partial_sum_mask(alpha):
    """S(alpha) as a bitmask, bit j-1 for each partial sum j of the weak
    composition alpha with 0 < j < |alpha|: x^alpha is a monomial of the
    fundamental quasi-symmetric F_D iff D lies inside S(alpha)."""
    n = sum(alpha)
    mask, partial = 0, 0
    for part in alpha[:-1]:
        partial += part
        if 0 < partial < n:
            mask |= 1 << (partial - 1)
    return mask


def fundamental_expansion(counts, n, N):
    """(alpha, coefficient) for each weak composition alpha of n into N
    parts, of tallies {(descent mask, q-deg, t-deg): number} that each count
    F_D once (bit j-1 for j in D).  x^alpha lies in F_D iff D is inside
    S(alpha), so the tallies are summed over the subsets of each S once."""
    # totals[S] = sum of the tallies of every D inside S
    totals = [{} for _ in range(1 << (n - 1))]
    for (d, qd, td), c in counts.items():
        totals[d][(qd, td)] = c
    del counts  # a caller that hands its tallies over frees them here
    for bit in range(n - 1):
        for s in range(len(totals)):
            if s >> bit & 1:
                into = totals[s]
                for qt, c in totals[s ^ 1 << bit].items():
                    into[qt] = into.get(qt, 0) + c
    coeffs = {}  # S -> its QtScalar, built once
    for exps in compositions(n, N):
        s = partial_sum_mask(exps)
        if s not in coeffs:
            # a tally is a polynomial with positive coefficients: canonical
            coeffs[s] = QtScalar(totals[s], _canonical=True)
        yield exps, coeffs[s]


def iter_sorted_pairs(n, N, degree):
    """Sorted pairs (m, a) with |m| = degree and labels bounded by N."""
    for m in _sorted_m_vectors(n, degree):
        runs = alpha_composition(m)[::-1]
        choices = [combinations_with_replacement(range(1, N + 1), r) for r in runs]
        for parts in product(*choices):
            a = tuple(v for block in parts for v in block)
            yield m, a


def iter_sorted_triples(n, N, degree):
    """Sorted triples (m, a, b) with |m| = degree and labels bounded by N."""
    yield from _sorted_triples_over(_sorted_m_vectors(n, degree), N)


def _sorted_triples_over(m_vectors, N):
    """Sorted triples (m, a, b) for the given weakly decreasing m-vectors,
    with labels bounded by N."""
    pairs = list(product(range(1, N + 1), repeat=2))
    for m in m_vectors:
        runs = alpha_composition(m)[::-1]
        choices = [combinations_with_replacement(pairs, r) for r in runs]
        for parts in product(*choices):
            a = tuple(p[0] for block in parts for p in block)
            b = tuple(p[1] for block in parts for p in block)
            yield m, a, b


def dinv_weight(k):
    """The pair weight of dinv_k: column i before column j adds
    max(m_j - m_i - 1 + k + [a_i > a_j] + [b_i > b_j], 0)."""
    def weight(delta, ai, aj, bi, bj):
        v = k - 1 - delta + (ai > aj) + (bi > bj)
        return v if v > 0 else 0

    return weight


def _total(weights):
    """The sum of a sequence of weights, or None when one of them is None."""
    return None if None in weights else sum(weights)


def _block_counts(n, N, D, weight, distinct, by_aut):
    """Yield (d, packed, q_exp, count) for d = 0..D: count sorted triples
    (m, a, b) with |m| = d, labels bounded by N, the contents and column
    multiplicities packed, and the q-exponent q_exp.

    A statistic is a pair weight: column i before column j adds
    weight(m_i - m_j, a_i, a_j, b_i, b_j), an int, or None to leave the
    triple out, and q_exp sums it over the pairs i < j.  packed holds the
    contents of a and b, and with by_aut the part counts of the
    multiplicity partition mu of the columns, as digits in base n + 1
    (_unpack reads them back).  With distinct, a and b run over the
    permutations of 1..n only (N = n).

    The walk goes by column blocks: a block is the multiset of (a, b)
    columns under one m-value, in sorted order.  Each block's inner pair
    sum, contents and multiplicities are worked out once, and so is, per
    m-difference, the weight it adds against each single column below it.
    For each m-vector the walk descends its blocks; at each step it sums
    the column weights of the blocks above, so a candidate block's cross
    sum with all of them is one lookup per column of its own, and it
    leaves a branch at its first None.  With distinct, a block takes an
    a-set from the unused labels and an injective b-row.
    """
    base = n + 1
    columns = list(product(range(1, N + 1), repeat=2))
    tables = {}  # m-difference -> [column i][column j] -> weight

    def table(delta):
        rows = tables.get(delta)
        if rows is None:
            rows = tables[delta] = [[weight(delta, a, a2, b, b2)
                                     for a2, b2 in columns]
                                    for a, b in columns]
        return rows

    block_columns = []  # block index -> its column indices
    blocks = {}  # column indices -> (index, inner sum, packed, label mask)

    def block(cols):
        got = blocks.get(cols)
        if got is None:
            same = table(0)
            inner = _total([same[c][c2] for i, c in enumerate(cols)
                            for c2 in cols[i + 1:]])
            packed = mask = 0
            for c in cols:
                a, b = columns[c]
                packed += base ** (a - 1) + base ** (N + b - 1)
                if distinct:
                    mask |= 1 << (a - 1) | 1 << (N + b - 1)
            if by_aut:
                for r in alpha_composition(cols):
                    packed += base ** (2 * N + r - 1)
            got = blocks[cols] = (len(block_columns), inner, packed, mask)
            block_columns.append(cols)
        return got

    choices = {}  # (run length, used label mask) -> the blocks that may go

    def candidates(run, used):
        got = choices.get((run, used))
        if got is None:
            if distinct:
                free_a = [v for v in range(1, n + 1) if not used >> (v - 1) & 1]
                free_b = [v for v in range(1, n + 1)
                          if not used >> (n + v - 1) & 1]
                tuples = (tuple((a - 1) * N + b - 1 for a, b in zip(aa, bb))
                          for aa in combinations(free_a, run)
                          for bb in permutations(free_b, run))
            else:
                tuples = combinations_with_replacement(range(len(columns)),
                                                       run)
            got = choices[run, used] = [blk for blk in map(block, tuples)
                                        if blk[1] is not None]
        return got

    column_sums = {}  # (block index, m-difference) -> weight per column

    def column_sum(index, delta):
        """The block's pair weights against each column c at m-difference
        delta, summed over the block."""
        got = column_sums.get((index, delta))
        if got is None:
            rows = table(delta)
            got = column_sums[index, delta] = list(map(
                _total, zip(*[rows[c] for c in block_columns[index]])))
        return got

    def descend(level, chosen, used, packed, q_exp):
        value, run = runs[level]
        over = [column_sum(index, above - value) for index, above in chosen]
        # the blocks above, summed per column: a candidate block reads its
        # cross sum with all of them off its own columns
        cross = over[0] if len(over) == 1 else [
            None if None in col else sum(col) for col in zip(*over)]
        for index, inner, bpacked, mask in candidates(run, used):
            s = q_exp + inner
            for c in block_columns[index] if cross else ():
                v = cross[c]
                if v is None:
                    break
                s += v
            else:
                if level == last:
                    key = (packed + bpacked, s)
                    tally[key] = tally.get(key, 0) + 1
                else:
                    descend(level + 1, chosen + [(index, value)],
                            used | mask, packed + bpacked, s)

    for d in range(D + 1):
        tally = {}
        for m in _sorted_m_vectors(n, d):
            runs = [(v, len(list(group))) for v, group in groupby(m)]
            last = len(runs) - 1
            descend(0, [], 0, 0, 0)
        for (packed, q_exp), count in tally.items():
            yield d, packed, q_exp, count


def _unpack(packed, n, N):
    """The (x content, y content) key and the multiplicity partition mu of a
    packed value of _block_counts."""
    digits = []
    for _ in range(2 * N + n):
        packed, r = divmod(packed, n + 1)
        digits.append(r)
    mu = tuple(r for r in range(n, 0, -1) for _ in range(digits[2 * N + r - 1]))
    return (tuple(digits[:N]), tuple(digits[N:2 * N])), mu


def triple_series(n, N, D, weight, scale, by_aut=True, distinct=False):
    """scale times the sum over sorted triples (m, a, b) with |m| <= D and
    labels bounded by N of t^{|m|} q^{q_exp} X_a Y_b, divided by aut_q(mu)
    when by_aut, where q_exp sums the pair weight over the column pairs and
    mu is the multiplicity partition of the columns; with distinct, only
    over the triples whose a and b are permutations of 1..n (N = n).  The
    walk is _block_counts."""
    builder = SeriesBuilder(N, N, D)
    keys = {}  # packed -> (key, mu)
    for d, packed, q_exp, count in _block_counts(n, N, D, weight, distinct,
                                                 by_aut):
        got = keys.get(packed)
        if got is None:
            got = keys[packed] = _unpack(packed, n, N)
        builder.add(got[0], d, q_exp, got[1], count)
    return builder.build(scale)
