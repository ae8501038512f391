"""The sign-reversing involution machinery behind the triangularity proof:
quadruples with a dividing line, the reverse-frame pairwise statistic, the
move map and its involution, the row diagram, and the dominance/fixed-point
verification against the plethystically substituted Macdonald side.

Quadruple convention: entries are (a_i, m_i, b_i) columns with a dividing
line after position l; positions 1..l are sorted in reverse order, l+1..n
forward, under the key (a ascending, m descending on ties, b ascending).
"""

from __future__ import annotations

from bisect import bisect_right

from .scalar import ONE, Q, QtScalar, SeriesBuilder, compare, fail
from .labels import alpha_composition, content, mu_partition
from .macdonald import _cauchy_outer_product, check_degree, eigenvalue, nstat
from .symfunc import conjugate, dominance_leq, partitions, plethysm_p_scale


class VanQuadruple:
    """(l, a, m, b) with the dividing line after position l; a value, equal
    and hashed by its four fields."""

    __slots__ = ("l", "a", "m", "b")

    def __init__(self, l, a, m, b):
        self.l, self.a, self.m, self.b = l, a, m, b

    def __repr__(self):
        return (f"VanQuadruple(l={self.l!r}, a={self.a!r}, m={self.m!r}, "
                f"b={self.b!r})")

    def __eq__(self, other):
        if other.__class__ is not VanQuadruple:
            return NotImplemented
        return (self.l, self.a, self.m, self.b) == \
            (other.l, other.a, other.m, other.b)

    def __hash__(self):
        return hash((self.l, self.a, self.m, self.b))

    @property
    def n(self):
        return len(self.a)

    def columns(self):
        return list(zip(self.a, self.m, self.b))


def _key(col):
    a, m, b = col
    return (a, -m, b)


def _reversed_key(col):
    a, m, b = col
    return (-a, m, -b)


def _from_columns(l, cols):
    """The quadruple with these (a, m, b) columns; no columns give n = 0."""
    return VanQuadruple(l, *(tuple(zip(*cols)) or ((), (), ())))


def attacks_rev(mi, mj, k):
    """Position i attacks position j (i < j) when m_i lies in
    {m_j - k + 1, ..., m_j + k}."""
    return mj - k + 1 <= mi <= mj + k


def d_k_rev(m, b, k):
    """Sum of the positive above-diagonal entries of the pairwise table."""
    n = len(m)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if m[i] > m[j]:
                v = k + m[j] - m[i] + (1 if b[i] > b[j] else 0)
            else:
                v = k - 1 + m[i] - m[j] + (1 if b[i] < b[j] else 0)
            if v > 0:
                total += v
    return total


def enumerate_van(n, k, degree, N, l_values=None):
    """All quadruples with |m| <= degree and labels bounded by N, and with
    the dividing line in l_values when that is given.

    Columns are appended in the sorted order of each side, and the attack
    constraint (equal b with nearby m) is enforced incrementally, which
    prunes the search long before full sequences exist: attacked[b][m]
    counts the placed columns with label b that attack a later m.
    """
    left_pool = sorted(((a, m, b) for a in range(1, N + 1)
                        for m in range(1, degree + 1)
                        for b in range(1, N + 1)), key=_key, reverse=True)
    right_pool = sorted(((a, m, b) for a in range(1, N + 1)
                         for m in range(degree + 1)
                         for b in range(1, N + 1)), key=_key)
    attacked = [[0] * (degree + 1) for _ in range(N + 1)]

    def mark(col, step):
        # column (m_i, b) attacks m in m_i - k .. m_i + k - 1 (attacks_rev)
        _, mi, b = col
        row = attacked[b]
        for m in range(max(mi - k, 0), min(mi + k - 1, degree) + 1):
            row[m] += step

    def rec(l, acc, budget, start):
        pos = len(acc)
        if pos == n:
            yield _from_columns(l, acc)
            return
        on_left = pos < l
        pool = left_pool if on_left else right_pool
        # each remaining left slot needs m >= 1
        reserve = l - pos - 1 if on_left else 0
        if pos == l:
            start = 0
        for idx in range(start, len(pool)):
            col = pool[idx]
            if col[1] + reserve > budget or attacked[col[2]][col[1]]:
                continue
            acc.append(col)
            mark(col, 1)
            yield from rec(l, acc, budget - col[1], idx)
            mark(col, -1)
            acc.pop()

    for l in (range(n + 1) if l_values is None else l_values):
        yield from rec(l, [], degree, 0)


def _blocks(m, b, mj, bj, k):
    """Either pairwise entry of columns (m, b) and (mj, bj) is positive.  The
    two entries differ by one, the larger being the one that puts the column
    of larger m first; when the m's tie it is k - 1 + (b != bj)."""
    if m == mj:
        return k + (b != bj) > 1
    if m < mj:
        m, b, mj, bj = mj, bj, m, b
    return k + mj - m + (b > bj) > 0


def _landing(cols, l, i, k):
    """The quadruple with column i (0-based) of cols moved across the line
    after position l, or None when it leaves the set.  The right side
    ascends under the key and the left side descends, so the insertion
    keeps both sorted; since cols lies in the set, the move can only fail
    by an attack on the moved column at its new place, or by m = 0 on the
    left."""
    col = cols[i]
    rest = cols[:i] + cols[i + 1:]
    if i < l:
        l -= 1
        p = bisect_right(rest, _key(col), lo=l, key=_key)
    elif col[1]:
        p = bisect_right(rest, _reversed_key(col), hi=l, key=_reversed_key)
        l += 1
    else:
        return None
    _, m, b = col
    for j, (_, mj, bj) in enumerate(rest):
        if bj == b and (attacks_rev(mj, m, k) if j < p
                        else attacks_rev(m, mj, k)):
            return None
    rest.insert(p, col)
    return _from_columns(l, rest)


def iota(quad, k):
    """The involution: move the movable column of smallest sigma rank, the
    rank of its key among all columns.  A column is movable when no
    sigma-earlier column blocks it and its move stays in the set."""
    cols = quad.columns()
    keys = [_key(col) for col in cols]
    earlier = []
    for i in sorted(range(len(cols)), key=keys.__getitem__):
        _, m, b = cols[i]
        for mj, bj in earlier:
            if _blocks(m, b, mj, bj, k):
                break
        else:
            out = _landing(cols, quad.l, i, k)
            if out is not None:
                return out
        earlier.append((m, b))
    return quad


def t_diagram(quad):
    """Rows indexed by the distinct a-values ascending; each row lists the
    (m, b) pairs with that a-value, ordered by m descending then b."""
    rows = {}
    for a, m, b in quad.columns():
        rows.setdefault(a, []).append((m, b))
    out = []
    for a in sorted(rows):
        out.append(tuple(sorted(rows[a], key=lambda mb: (-mb[0], mb[1]))))
    return tuple(out)


def canonical_fixed_point(lam, k):
    """The unique fixed point with row shape lam and column shape lam'."""
    a, m, b = [], [], []
    for row, part in enumerate(lam, start=1):
        for col in range(1, part + 1):
            a.append(row)
            m.append((row - 1) * k)
            b.append(col)
    return VanQuadruple(0, tuple(a), tuple(m), tuple(b))


# ---------------------------------------------------------------------------
# verification


def macdonald_substituted_series(n, k, N, D):
    """The Macdonald side with X -> X(t-1), Y -> Y(q-1), t-expanded."""
    return _cauchy_outer_product(
        n, k, N, D,
        lambda h: plethysm_p_scale(h, lambda r: QtScalar.monomial(t=r) - ONE),
        lambda h: plethysm_p_scale(h, lambda r: Q ** r - ONE))


def signed_quadruple_series(n, k, N, D):
    """sum over the quadruple set of (-1)^l t^{|m|} q^{d_k} X_a Y_b."""
    builder = SeriesBuilder(N, N, D)
    for quad in enumerate_van(n, k, D, N):
        builder.add((content(quad.a, N), content(quad.b, N)), sum(quad.m),
                    d_k_rev(quad.m, quad.b, k), count=(-1) ** quad.l)
    return builder.build()


def verify_vanishing(n, k, degree, N):
    """The full fixed-point and cancellation report.

    Checks: iota is an involution; non-fixed orbits preserve the statistic
    and |m| and flip the sign; fixed points satisfy the dominance property
    and the diagram bounds; the conjugate-shape fixed point is unique with
    the predicted weight; and the signed sum matches the substituted
    Macdonald side up to t-degree (degree - 1).
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_degree(n)
    report = {"n": n, "k": k, "D": degree, "N": N, "ok": True,
              "failures": [], "fixed_points": []}

    census = {}
    by_composition = {}
    for quad in enumerate_van(n, k, degree, N):
        image = iota(quad, k)
        if image == quad:
            lam = mu_partition(quad.a)
            mu = mu_partition(quad.b)
            census.setdefault((lam, mu), []).append(quad)
            alab = alpha_composition(quad.a)
            blab = alpha_composition(quad.b)
            by_composition.setdefault((alab, blab), []).append(quad)
            if not dominance_leq(lam, conjugate(mu)):
                fail(report, "dominance", {"quad": quad})
            diagram = t_diagram(quad)
            for r, row in enumerate(diagram, start=1):
                if any(mval > (r - 1) * k for mval, _ in row):
                    fail(report, "m-bound", {"quad": quad, "row": r})
            # b-value occurrences per row, tracked on the quadruple itself so
            # the dividing-line side of each occurrence is visible
            values = sorted(set(quad.a))
            row_of = {v: r for r, v in enumerate(values, start=1)}
            occ = {}
            for pos, (av, mv, bv) in enumerate(quad.columns(), start=1):
                occ.setdefault(bv, []).append((row_of[av], pos))
            for bval, hits in occ.items():
                for r in range(1, len(diagram) + 1):
                    inside = [(row, pos) for row, pos in hits if row <= r]
                    at = {"quad": quad, "b": bval, "row": r}
                    if len(inside) > r:
                        fail(report, "b-count", at)
                    elif len(inside) == r and r > 0:
                        if len({row for row, _ in inside}) != r:
                            fail(report, "b-rows", at)
                        if any(pos <= quad.l for _, pos in inside):
                            fail(report, "b-side", at)
        else:
            if iota(image, k) != quad:
                fail(report, "involution", {"quad": quad, "image": image})
            if sum(image.m) != sum(quad.m):
                fail(report, "t-weight", {"quad": quad, "image": image})
            if d_k_rev(image.m, image.b, k) != d_k_rev(quad.m, quad.b, k):
                fail(report, "q-weight", {"quad": quad, "image": image})
            if (-1) ** image.l != -((-1) ** quad.l):
                fail(report, "sign", {"quad": quad, "image": image})
        if report["failures"]:
            return report

    for (lam, mu), quads in sorted(census.items()):
        report["fixed_points"].append(
            {"lambda": list(lam), "mu": list(mu), "count": len(quads)})

    # uniqueness is graded by the exact compositions alpha(a) = lam,
    # alpha(b) = lam', at the normalized labels {1..len(lam)} x {1..lam_1}
    for lam in partitions(n):
        if k * nstat(lam) > degree \
                or len(lam) > N or (lam and lam[0] > N):
            continue  # the fixed point falls outside the truncation
        cell = by_composition.get((lam, conjugate(lam)), [])
        normalized = [q for q in cell
                      if set(q.a) == set(range(1, len(lam) + 1))
                      and set(q.b) == set(range(1, lam[0] + 1))]
        if len(normalized) != 1:
            return fail(report, "uniqueness",
                        {"lambda": lam, "count": len(normalized)})
        quad = normalized[0]
        if quad != canonical_fixed_point(lam, k):
            return fail(report, "canonical-form",
                        {"lambda": lam, "quad": quad})
        weight = QtScalar.monomial(q=d_k_rev(quad.m, quad.b, k),
                                   t=sum(quad.m))
        if weight != eigenvalue(lam, k) or quad.l != 0:
            return fail(report, "weight",
                        {"lambda": lam, "weight": str(weight)})

    if degree >= 1:  # below t-degree 1 there is no signed sum to compare
        signed = compare(
            signed_quadruple_series(n, k, N, degree).truncate(degree - 1),
            macdonald_substituted_series(n, k, N, degree).truncate(degree - 1),
            sides=True)
        report.update(lhs=signed["lhs"], rhs=signed["rhs"])
        if not signed["equal"]:
            fail(report, "signed-sum", signed["first_discrepancy"])
    report["equal"] = report["ok"]
    return report
