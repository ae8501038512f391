"""The parking-function side: the PF/NPF dichotomy, the rotation operator,
the truncated signed enumeration with its rotation pairing, and the final
parking-function formula for powers of nabla on e_n.

The pairwise statistic here is the reverse-frame one from the involution
module, applied to (m, a). The parking sum runs over the n! standardized
label permutations rather than the N^n label words, carries each descent
set as a bitmask and expands the tallies through labels.fundamental_expansion
(shared with xi and the chromatic function). It reads the statistic a new
column adds from one packed integer: before the walk each column gets a
table row of its pair values with every later column, one bit slot per
(m, label), and the walk carries the sum of the rows placed so far. It
also carries one tally index that packs (descent mask, q-degree, t-degree)
into fixed bit fields, and the node with two labels left counts the last
label's column in its own loop, so each leaf is one increment of a flat
list at that index (a dict where that index space is sparse). The tests
keep the word enumeration and the route that rebuilt each descent set at
the leaves, with its column-by-column pair loop (tests/oracles.py), as
independent routes.

The cancellation analysis defines the A and the B set of the rotation
pairing once each, through pf and npf: the signed sum drops both, and the
five-condition search, which looks for their meet, tries the end labels
(a_1, a_n) of each m before it walks any full label word."""

from __future__ import annotations

from collections import defaultdict
from itertools import compress, product

from .scalar import SeriesBuilder, compare, t_series
from .involution import d_k_rev
from .labels import compositions, content, fundamental_expansion
from .macdonald import nabla_en
from .symfunc import Poly, poly_to_symfunc


def pf(m, a, i, k):
    """Parking function at i (1-based): the next column stays low, or steps
    by exactly k with a strictly larger label."""
    if not 1 <= i <= len(m) - 1:
        raise ValueError("need 1 <= i <= n-1")
    return m[i] <= m[i - 1] + k - 1 or (m[i] == m[i - 1] + k and a[i] > a[i - 1])


def npf(m, a, i, k):
    """Not a parking function at i: the complement of pf."""
    return not pf(m, a, i, k)


def rho(m, x):
    """The rotation: the last column moves to the front, its m bumped by one."""
    return ((m[-1] + 1,) + tuple(m[:-1]), (x[-1],) + tuple(x[:-1]))


def rho_inverse(m, x):
    if m[0] < 1:
        raise ValueError("rotation inverse needs m_1 >= 1")
    return (tuple(m[1:]) + (m[0] - 1,), tuple(x[1:]) + (x[0],))


def in_shuffle_set(l, m, a, k):
    """Membership in the dividing-line set: PF up to the seam, NPF after."""
    n = len(m)
    for i in range(1, n - l):
        if not pf(m, a, i, k):
            return False
    for i in range(n - l + 1, n):
        if not npf(m, a, i, k):
            return False
    return True


def parking_sum(n, k, N):
    """The parking-function polynomial: sum of X_a t^{|m|} q^{d_k(m, a)}.

    A label word a in [N]^n is standardized to a permutation sigma by
    reading equal labels with the larger m first, and on equal m the later
    column first. The PF step and the pairwise statistic compare labels
    strictly, so they see the same thing in a and in sigma, and the words
    with standardization sigma are the monomials of the fundamental
    quasi-symmetric F_D, where D holds each j whose successor j+1 is read
    before j. So the recursion runs over paths m and at most n! label
    permutations per path instead of N^n words, and counts (D, q-degree,
    t-degree) at the leaves, each as one index of a flat tally.

    The pairwise statistic is read from a packed table. Before the walk,
    each column (mi, ai) gets one integer delta[mi][ai] whose slot at
    (mv, av) holds d_k_rev of the pair (mi, ai), (mv, av): nonzero only at
    the 2k heights mi-k .. mi+k-1, and at most k. It depends on mv - mi
    alone, so d_k_rev fills the row of the column at height k, and every
    other row is that one moved by whole heights. The walk carries acc, the
    sum of delta over the placed columns, so the increment of a child
    (mv, av) is its slot of acc, one shift and one mask. A column leaves
    the slots of its own label empty, since that label is never placed
    again, so a slot sums at most n-1 pairs and holds at most (n-1)k,
    reached by n columns at height 0 with increasing labels; that bound
    sets the slot width.

    Columns are placed left to right, so when label v goes in at height mv
    each neighbour already placed decides its descent at once: v-1 is in D
    iff its height is at most mv, and v is in D iff the height of v+1 is
    above mv. Each descent bit is decided once, when the second label of
    its pair (j, j+1) goes in.

    The walk carries (D, q, t) as one tally index: q in the low field, t
    above it, D on top (bit j-1 for j). Both degrees are at most k C(n, 2),
    q as each pair adds at most k and t as the PF step bounds m_i by
    (i-1)k, so each field is w bits wide, w the bound's bit length, and an
    addition never carries out of its field. A child adds its slot of acc
    to the q field, its height to the t field and its descent bits to the
    mask. The node with two labels left places one, and counts each height
    of the last label's column as a leaf in the same loop, so a leaf is one
    increment of a flat list of 2^(n-1+2w) entries. Where that is more than
    8 times the number of leaves, as at n = 2 with k large, the tally is a
    dict of the reached indices instead. Its nonzero entries become the
    (D, q, t) tallies that labels.fundamental_expansion expands, as for xi
    and the chromatic function.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < 1:
        raise ValueError(f"the parking sum needs n >= 1, got n = {n}")
    heights = range((n - 1) * k + 1)  # every m a column can reach
    bits = ((n - 1) * k).bit_length()
    slot = (1 << bits) - 1

    def offset(mv, av):
        # the lowest bit of the slot of (mv, av): n slots per height
        return bits * (mv * n + av - 1)

    # label -> height -> the offset of its slot (label 0 is unused)
    shift = [[offset(mv, av) for mv in heights] for av in range(n + 1)]
    # a pair value depends on mv - mi, so the column at height k gives every
    # row: moving it by whole heights drops the slots that fall below m = 0,
    # and the slots above the top height are never read
    at_k = [0] + [sum(d_k_rev((k, mv), (ai, av), k) << offset(mv, av)
                      for mv in range(2 * k) for av in range(1, n + 1)
                      if av != ai)
                  for ai in range(1, n + 1)]
    delta = [[row << offset(mi, 1) >> offset(k, 1) for row in at_k]
             for mi in heights]
    # the tally index: q-degree in the low field, t-degree above it, the
    # descent mask on top; both degrees are at most k C(n, 2)
    width = (k * n * (n - 1) // 2).bit_length()
    t_low, d_low = width, 2 * width
    t_step = [mv << t_low for mv in heights]
    # placing v adds bit v-2 (v-1 in D) or bit v-1 (v in D) of the mask
    low_bit = [0, 0] + [1 << (d_low + v - 2) for v in range(2, n + 1)]
    high_bit = [0] + [1 << (d_low + v - 1) for v in range(1, n)] + [0]
    # index -> number of (m, sigma): a list, unless the index space is more
    # than 8 times the number of leaves, the (kn+1)^(n-1) k-parking
    # functions, as at n = 2 where it is about k times; there a dict of the
    # reached indices is cheaper to fill and to read back
    size = 1 << (d_low + n - 1)
    dense = size <= 8 * (k * n + 1) ** (n - 1)
    tally = [0] * size if dense else defaultdict(int)
    height = [-1] * (n + 2)  # label -> m of its column, -1 while unplaced

    def rec(index, acc, rest, left, mlast, alast):
        # rest is the sum of the unplaced labels, left their number (at
        # least two), and (mlast, alast) the last column placed
        top = mlast + k
        for mv in range(top + 1):
            deltas, t = delta[mv], t_step[mv]
            for av in range(alast + 1 if mv == top else 1, n + 1):
                if height[av] >= 0:
                    continue
                i = index + (acc >> shift[av][mv] & slot) + t
                if 0 <= height[av - 1] <= mv:
                    i += low_bit[av]
                if height[av + 1] > mv:
                    i += high_bit[av]
                height[av] = mv
                if left > 2:
                    rec(i, acc + deltas[av], rest - av, left - 1, mv, av)
                else:
                    # the last label bv: each height of its column is a
                    # leaf (below is -1 only for bv = 1, whose low bit is 0)
                    bv, after = rest - av, acc + deltas[av]
                    below, above = height[bv - 1], height[bv + 1]
                    low, high, col = low_bit[bv], high_bit[bv], shift[bv]
                    for mw in range(mv + k + 1 if bv > av else mv + k):
                        j = i + (after >> col[mw] & slot) + t_step[mw]
                        if below <= mw:
                            j += low
                        if mw < above:
                            j += high
                        tally[j] += 1
                height[av] = -1

    if n == 1:
        tally[0] = 1  # one column, at m = 0: no descent, q^0 t^0
    else:
        # a virtual last column (-k, 0): the first column is then forced to
        # m = 0 with any label, and its pairwise value with any column is
        # <= 0, so it adds nothing to acc
        rec(0, 0, n * (n + 1) // 2, n, -k, 0)
    field = (1 << width) - 1
    reached = (((i, tally[i]) for i in compress(range(size), tally))
               if dense else tally.items())
    counts = {(i >> d_low, i & field, i >> t_low & field): c
              for i, c in reached}
    del tally, reached  # free the tally before the expansion's subset sums
    expansion = fundamental_expansion(counts, n, N)
    del counts  # the expansion frees the tallies once it has regrouped them
    return Poly(N, 0, {(exps, ()): c for exps, c in expansion})


def nabla_en_expansion(n, k, N):
    """The Macdonald side: nabla^k e_n expanded over x_1..x_N."""
    return nabla_en(n, k).expand(N, "x")


def _parking_report(n, k, N, renders):
    """nabla^k e_n against the parking sum over x_1..x_N; each key in renders,
    such as nabla_schur, renders that side in that basis. Only agreeing sides
    render the parking side, and only differing ones keep first_discrepancy.
    A k below 1 fails before either side is built."""
    if k < 1:
        raise ValueError("k must be positive")
    sides = {"nabla": nabla_en_expansion(n, k, N),
             "parking": parking_sum(n, k, N)}
    report = compare(sides["nabla"], sides["parking"], n=n, k=k, N=N)
    if report["equal"]:
        del report["first_discrepancy"]
    for key in renders:
        side, basis = key.split("_")
        report[key] = str(poly_to_symfunc(sides[side], "x", basis[0])) \
            if report["equal"] or side == "nabla" else None
    return report


def verify_shuffle(n, k, N):
    """The parking sum against nabla^k e_n over x_1..x_N. The report renders
    nabla^k e_n in the Schur basis, and the parking sum in the monomial
    basis when the two agree."""
    return _parking_report(n, k, N, ("nabla_schur", "parking_monomial"))


def compute_parking(n, k, N):
    """The parking sum and nabla^k e_n over x_1..x_N, each rendered in the
    monomial and the Schur basis, and whether the two agree."""
    return _parking_report(n, k, N, ("nabla_monomial", "nabla_schur",
                                     "parking_monomial", "parking_schur"))


# ---------------------------------------------------------------------------
# cancellation analysis


def _in_a(l, m, a, k):
    """The A set of the pairing: (1A) l > 0, and (2A) PF at 1 for
    rho(m, a) when l < n."""
    return l > 0 and (l == len(m) or pf(*rho(m, a), 1, k))


def _in_b(l, m, a, k):
    """The B set of the pairing: (1B) l < n, (3B) m_1 > 0, and (2B) NPF at
    n-1 for rho^{-1}(m, a) when l > 0."""
    n = len(m)
    return l < n and m[0] > 0 and \
        (l == 0 or npf(*rho_inverse(m, a), n - 1, k))


def five_condition_witness(n, k, degree, N):
    """The first (l, m, a) of the dividing-line set, with |m| <= degree and
    labels in 1..N, that lies in both the A and the B set, in the order m,
    then a, then l; None when the five conditions never hold together.

    For 0 < l < n, (2A) and (2B) read only the first and the last column:
    with d = m_1 - m_n, (2A) holds iff d <= k, or d = k + 1 and a_1 > a_n,
    and (2B) iff d >= k + 2, or d = k + 1 and a_1 <= a_n. So for each m the
    search tries the N^2 end labels (a_1, a_n) first, once per (m_1, m_n),
    and walks every label word and every l only when some end pair meets
    (2A), (2B) and (3B).
    """
    if n < 2:
        return None  # (1A) and (1B) need 0 < l < n
    labels = range(1, N + 1)
    ends = {}  # (m_1, m_n) -> whether some end pair lies in both sets
    for m in (m for d in range(degree + 1) for m in compositions(d, n)):
        key = m[0], m[-1]
        if key not in ends:  # for 0 < l < n both sets read only the ends
            ends[key] = any(_in_a(1, m, w, k) and _in_b(1, m, w, k)
                            for w in ((a1,) + (1,) * (n - 2) + (an,)
                                      for a1, an in product(labels, repeat=2)))
        if not ends[key]:
            continue
        for a in product(labels, repeat=n):
            for l in range(1, n):
                if in_shuffle_set(l, m, a, k) and _in_a(l, m, a, k) \
                        and _in_b(l, m, a, k):
                    return (l, m, a)
    return None


def signed_truncated_sum(n, k, degree, N):
    """The signed dividing-line sum with the A and the B set removed, as a
    MonomialSeries through t-degree degree; exact through t-degree
    (degree - 1)."""
    builder = SeriesBuilder(N, 0, degree)
    for m in (m for d in range(degree + 1) for m in compositions(d, n)):
        lines = range(min(n, degree - sum(m)) + 1)  # weight |m| + l <= degree
        for a in product(range(1, N + 1), repeat=n):
            for l in lines:
                if in_shuffle_set(l, m, a, k) and not _in_a(l, m, a, k) \
                        and not _in_b(l, m, a, k):
                    builder.add((content(a, N), ()), sum(m) + l,
                                d_k_rev(m, a, k), count=(-1) ** l)
    return builder.build()


def cancellation_check(n, k, degree, N):
    """(i) the five-condition set is empty; (ii) after removing rho-paired
    terms, the signed truncated sum equals the parking sum through
    t-degree (degree - 1)."""
    params = {"n": n, "k": k, "D": degree, "N": N, "witness": None}
    witness = five_condition_witness(n, k, degree, N)
    if witness is not None:
        return {**params, "ok": False, "first_discrepancy": None,
                "witness": {"l": witness[0], "m": list(witness[1]),
                            "a": list(witness[2])}}
    lhs = signed_truncated_sum(n, k, degree, N).truncate(degree - 1)
    rhs = t_series(parking_sum(n, k, N), degree - 1)
    report = compare(lhs, rhs, **params)
    report["ok"] = report.pop("equal")
    return report
