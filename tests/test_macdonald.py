from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from qtnabla.scalar import ONE, Q, QtScalar, T, ZERO
from qtnabla.macdonald import (
    MacdonaldCache, _build_htilde, _hhl_htilde, _htilde_inverse_matrix,
    _validate_htilde, cauchy_macdonald_series, cells, eigenvalue,
    from_htilde_dict, htilde_norm, integral_J, macdonald_P, modified_macdonald,
    nabla_power, nstat, to_htilde_dict, w_denominator,
)
from qtnabla.symfunc import SymFunc, conjugate, partitions

from oracles import htilde_inverse_by_elimination, to_htilde_dict_by_elimination


def test_nstat():
    assert nstat((5,)) == 0
    assert nstat((1, 1, 1, 1)) == 6
    assert nstat((4, 3, 1)) == 0 * 4 + 1 * 3 + 2 * 1


def test_cells_arm_leg():
    assert sorted(cells((2, 1))) == [(0, 0), (0, 0), (1, 1)]
    assert sorted(cells((1,))) == [(0, 0)]
    assert sorted(cells((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# independent oracle: Gram-Schmidt re-run in the power-sum basis, with its own
# brute-force monomial-to-power-sum conversion over explicit variables


def _brute_expand_p(rho, nvars):
    out = {}
    base = {(0,) * nvars: 1}
    out[()] = base
    poly = {(0,) * nvars: 1}
    for r in rho:
        pr = {}
        for i in range(nvars):
            e = [0] * nvars
            e[i] = r
            pr[tuple(e)] = 1
        new = {}
        for ea, ca in poly.items():
            for eb, cb in pr.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                new[key] = new.get(key, 0) + ca * cb
        poly = new
    return poly


def _brute_expand_m(lam, nvars):
    from qtnabla.symfunc import distinct_permutations
    padded = tuple(lam) + (0,) * (nvars - len(lam))
    return {e: 1 for e in distinct_permutations(padded)}


def _brute_m_in_p(lam):
    """Solve m_lam = sum c_rho p_rho by linear algebra over monomials."""
    n = sum(lam)
    rhos = list(partitions(n))
    target = _brute_expand_m(lam, n)
    cols = [_brute_expand_p(rho, n) for rho in rhos]
    keys = sorted({k for col in cols for k in col} | set(target))
    # Gaussian elimination over Fractions
    rows = [[Fraction(col.get(k, 0)) for col in cols] + [Fraction(target.get(k, 0))]
            for k in keys]
    ncols = len(rhos)
    lead = 0
    for col in range(ncols):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        pv = rows[lead][col]
        rows[lead] = [v / pv for v in rows[lead]]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[lead])]
        lead += 1
    sol = {}
    for r in range(len(rows)):
        nz = [c for c in range(ncols) if rows[r][c] != 0]
        if len(nz) == 1:
            sol[rhos[nz[0]]] = rows[r][ncols]
        elif not nz and rows[r][ncols] != 0:
            raise AssertionError("inconsistent system")
    return {rho: sol.get(rho, Fraction(0)) for rho in rhos}


def _oracle_htilde(lam):
    """H-tilde_lam computed entirely in power-sum coordinates."""
    n = sum(lam)
    rhos = list(partitions(n))

    def zee_w(rho):
        w = QtScalar.from_int(1)
        mult = {}
        for part in rho:
            w = w * part * (ONE - Q ** part) / (ONE - T ** part)
            mult[part] = mult.get(part, 0) + 1
        for m in mult.values():
            for j in range(2, m + 1):
                w = w * j
        return w

    def inner(a, b):
        out = ZERO
        for rho in rhos:
            ca, cb = a.get(rho), b.get(rho)
            if ca is not None and cb is not None:
                out = out + ca * cb * zee_w(rho)
        return out

    m_in_p = {mu: {rho: QtScalar.from_fraction(c) for rho, c in _brute_m_in_p(mu).items() if c}
              for mu in rhos}
    P = {}
    for mu in reversed(rhos):  # ascending lex, smallest partition first
        f = dict(m_in_p[mu])
        for nu, pnu in P.items():
            c = inner(f, pnu) / inner(pnu, pnu)
            for rho, v in pnu.items():
                f[rho] = f.get(rho, ZERO) - c * v
        P[mu] = {rho: v for rho, v in f.items() if not v.is_zero()}
    # integral form and the plethystic transform
    scale = ONE
    for a, l in cells(lam):
        scale = scale * (ONE - Q ** a * T ** (l + 1))
    out = {}
    for rho, v in P[lam].items():
        c = (v * scale).subs_t_inverse()
        for r in rho:
            c = c / (ONE - T ** (-r))
        out[rho] = c * QtScalar.monomial(t=nstat(lam))
    return out


@pytest.mark.parametrize("lam,expected", [
    ((2,), {(2,): (ONE - Q) / 2, (1, 1): (ONE + Q) / 2}),
    ((1, 1), {(2,): (ONE - T) / 2, (1, 1): (ONE + T) / 2}),
])
def test_oracle_htilde_degree2(lam, expected):
    got = _oracle_htilde(lam)
    assert {k: v for k, v in got.items() if not v.is_zero()} == \
        {k: v for k, v in expected.items() if not v.is_zero()}


def test_htilde_degree2_against_oracle_values():
    # frozen from the oracle: H~_(2) = s_2 + q s_11, H~_(11) = s_2 + t s_11
    h2 = modified_macdonald((2,)).convert("s")
    assert h2.terms == {(2,): ONE, (1, 1): Q}
    h11 = modified_macdonald((1, 1)).convert("s")
    assert h11.terms == {(2,): ONE, (1, 1): T}


def test_htilde_matches_oracle_to_degree_4():
    for n in range(1, 5):
        for lam in partitions(n):
            oracle = _oracle_htilde(lam)
            main = modified_macdonald(lam).to_p_dict()
            assert {k: v for k, v in oracle.items() if not v.is_zero()} == main, lam


def test_htilde_degree1():
    assert modified_macdonald((1,)).convert("s").terms == {(1,): ONE}


def test_gram_schmidt_unitriangular():
    from qtnabla.symfunc import dominance_leq
    for n in range(1, 6):
        for lam in partitions(n):
            P = macdonald_P(lam)
            assert P.terms[lam] == ONE
            for mu in P.terms:
                assert dominance_leq(mu, lam), (lam, mu)
    # a dominance-incomparable pair leaves no trace: P_(3,3) has no m_(4,1,1)
    assert (4, 1, 1) not in macdonald_P((3, 3)).terms


def test_hhl_matches_gram_schmidt():
    # the served HHL tables against the Gram-Schmidt route, term for term
    for n in range(6):
        for lam in partitions(n):
            assert _hhl_htilde(lam).terms == _build_htilde(lam).terms, lam


def test_hhl_at_the_degree_cap():
    # every partition of 7, and (4, 4) of the cap degree 8, pass validation
    # and satisfy H~_lam(q, t) = H~_lam'(t, q)
    cache = MacdonaldCache()
    for lam in partitions(7) + ((4, 4),):
        h = cache.get(lam)
        swapped = {mu: c.swap_qt() for mu, c in h.terms.items()}
        assert swapped == cache.get(conjugate(lam)).terms, lam


def test_validate_rejects_one_changed_coefficient():
    for n in range(1, 5):
        for lam in partitions(n):
            table = _hhl_htilde(lam)
            _validate_htilde(lam, table)
            for mu in partitions(n):
                terms = dict(table.terms)
                terms[mu] = terms.get(mu, ZERO) + Q
                with pytest.raises(AssertionError):
                    _validate_htilde(lam, SymFunc("m", terms))


def test_hall_littlewood_specialization():
    # at q = 0 the Gram-Schmidt basis degenerates to Hall-Littlewood:
    # P_(2) = m_2 + (1-t) m_11
    P = macdonald_P((2,))
    c = P.terms[(1, 1)]
    assert c.t_expand(3) == ((ONE + Q) * (ONE - T) / (ONE - Q * T)).t_expand(3)


def test_sign_character_pairing():
    for n in range(1, 6):
        for lam in partitions(n):
            got = modified_macdonald(lam).hall_inner(SymFunc.s((1,) * n))
            assert got == QtScalar.monomial(q=nstat(conjugate(lam)), t=nstat(lam))


def test_t_zero_specialization():
    # <H~_lam(q,0), s_1^n> is q^binom(n,2) for the row, zero otherwise
    for n in range(1, 6):
        for lam in partitions(n):
            val = modified_macdonald(lam).hall_inner(SymFunc.s((1,) * n))
            at_t0 = val.t_expand(0)[0]
            if lam == (n,):
                assert at_t0 == QtScalar.monomial(q=n * (n - 1) // 2)
            else:
                assert at_t0 == ZERO


def test_qt_conjugation_symmetry():
    # H~_lam(X; q, t) = H~_lam'(X; t, q), brute force through degree 5
    for n in range(1, 6):
        for lam in partitions(n):
            swapped = SymFunc("m", {mu: c.swap_qt()
                                    for mu, c in modified_macdonald(lam).terms.items()})
            assert swapped == modified_macdonald(conjugate(lam)), lam


def test_degree_cap():
    cache = MacdonaldCache(max_degree=3)
    with pytest.raises(ValueError):
        cache.get((4,))


def test_nabla_eigen_property():
    for n in range(1, 5):
        for lam in partitions(n):
            h = modified_macdonald(lam)
            assert nabla_power(h, 1) == h.scale(eigenvalue(lam, 1))


def test_nabla_on_e1_and_composition():
    e1 = SymFunc.e(1)
    for k in (0, 1, 3):
        assert nabla_power(e1, k) == e1.convert("m")
    f = SymFunc.e(3)
    assert nabla_power(f, 0) == f.convert("m")
    assert nabla_power(nabla_power(f, 2), 1) == nabla_power(f, 3)
    assert nabla_power(nabla_power(f, 2), -2) == f.convert("m")


def test_nabla_e2():
    out = nabla_power(SymFunc.e(2), 1).convert("s")
    assert out.terms == {(2,): ONE, (1, 1): Q + T}


def test_to_htilde_roundtrip():
    for n in range(1, 5):
        for lam in partitions(n):
            f = SymFunc.s(lam)
            coeffs = to_htilde_dict(f)
            back = SymFunc.zero("m")
            for mu, c in coeffs.items():
                back = back + modified_macdonald(mu).scale(c)
            assert back == f


def _bits(f):
    """Every coefficient's canonical numerator and denominator."""
    return {lam: (c.num, c.den) for lam, c in f.items()}


def test_star_pairing_matches_elimination_oracle():
    for n in range(6):
        for mu in partitions(n):
            for f in (SymFunc.m(mu), SymFunc.s(mu)):
                assert _bits(to_htilde_dict(f)) == \
                    _bits(to_htilde_dict_by_elimination(f)), (n, mu, f.basis)
        if n:
            coeffs = to_htilde_dict_by_elimination(SymFunc.e(n))
            for k in (1, 2, -1):
                want = from_htilde_dict({lam: c * eigenvalue(lam, k)
                                         for lam, c in coeffs.items()})
                got = nabla_power(SymFunc.e(n), k)
                assert _bits(got.terms) == _bits(want.terms), (n, k)
    for n in range(4):
        assert _htilde_inverse_matrix(n) == htilde_inverse_by_elimination(n)


def test_htilde_is_star_orthogonal():
    for n in range(5):
        for lam in partitions(n):
            h = modified_macdonald(lam)
            for mu in partitions(n):
                want = htilde_norm(lam) if mu == lam else ZERO
                assert h.star_inner(modified_macdonald(mu)) == want, (lam, mu)


def _direct_cauchy_expand(n, N, D):
    """e_n[XY/((1-q)(1-t))] via raw plethysm, independent of the H-tilde route."""
    from qtnabla.symfunc import AlphabetExpr, plethysm
    poly = plethysm(SymFunc.e(n), AlphabetExpr(nx=N, ny=N, scale="1/((1-q)(1-t))"))
    table = {}
    for (xe, ye), c in poly.terms.items():
        table[(xe, ye)] = c.t_expand(D)
    return table


def test_cauchy_series_k0_matches_direct_plethysm():
    for n in (1, 2, 3):
        series = cauchy_macdonald_series(n, 0, 2, 4)
        direct = _direct_cauchy_expand(n, 2, 4)
        assert set(series.table) == set(direct)
        for key, ts in series.table.items():
            assert ts == direct[key], (n, key)


def test_cauchy_series_n1():
    series = cauchy_macdonald_series(1, 4, 1, 3)
    ts = series.series(((1,), (1,)))
    assert ts == (ONE / ((ONE - Q) * (ONE - T))).t_expand(3)
    assert list(series.table) == [((1,), (1,))]


def test_w_denominator_unit_in_t():
    for n in range(1, 5):
        for lam in partitions(n):
            w = w_denominator(lam)
            assert w.t_expand(0)[0] != ZERO


def test_disk_cache_roundtrip(tmp_path):
    cache = MacdonaldCache(directory=str(tmp_path))
    first = cache.get((2, 1))
    cache.store((2, 1))
    fresh = MacdonaldCache(directory=str(tmp_path))
    assert fresh._load((2, 1)) is not None
    assert fresh.get((2, 1)) == first


def test_disk_cache_rejects_corrupt_table(tmp_path):
    cache = MacdonaldCache(directory=str(tmp_path))
    cache.store((2,))
    path = cache._path((2,))
    import json
    data = json.loads(open(path).read())
    data["terms"][0]["num"] = [[0, 0, 7]]
    open(path, "w").write(json.dumps(data))
    fresh = MacdonaldCache(directory=str(tmp_path))
    assert fresh.get((2,)) == modified_macdonald((2,))
    rewritten = MacdonaldCache(directory=str(tmp_path))._load((2,))
    assert rewritten.terms == modified_macdonald((2,)).terms


def test_disk_cache_rebuilds_table_that_passes_the_pairing(tmp_path, child_env):
    # m[3] + 2 and m[2,1] + 1 leave <H~_(2,1), e_3> unchanged, so only the
    # comparison with the recomputed table catches the edit
    import json
    import subprocess
    import sys
    env = dict(child_env, QTNABLA_CACHE_DIR=str(tmp_path))
    argv = [sys.executable, "-m", "qtnabla.cli", "compute", "macdonald",
            "--lambda", "2,1"]
    first = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert first.returncode == 0
    path = tmp_path / "htilde_2_1.json"
    good = path.read_text()
    data = json.loads(good)
    for entry in data["terms"]:
        if entry["mu"] == [3]:
            entry["num"] = [[0, 0, 3]]
        elif entry["mu"] == [2, 1]:
            assert [0, 0, 1] in entry["num"]
            entry["num"][entry["num"].index([0, 0, 1])] = [0, 0, 2]
    path.write_text(json.dumps(data))
    second = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (second.returncode, second.stdout) == (0, first.stdout)
    assert path.read_text() == good


@pytest.mark.parametrize("content", [
    '{"lam": [2, 1]}',
    '[]',
    '{"terms": [{"mu": [3]}]}',
    '{"terms": [{"mu": [3], "num": [[0, 0]], "den": [[0, 0, 1]]}]}',
    '{"terms": [{"mu": [3], "num": [[0, 0, "1"]], "den": [[0, 0, 1]]}]}',
    '{"terms": [{"mu": [3], "num": [[0, 0, 1]], "den": []}]}',
])
def test_disk_cache_rebuilds_malformed_file(tmp_path, content):
    cache = MacdonaldCache(directory=str(tmp_path))
    path = cache._path((2, 1))
    open(path, "w").write(content)
    assert cache.get((2, 1)) == modified_macdonald((2, 1))
    assert MacdonaldCache(directory=str(tmp_path))._load((2, 1)) is not None


def test_summed_k0_series_matches_product():
    # the alternating sum over ranks of the k = 0 Cauchy series (that is,
    # the rank generating function with each degree-n slice weighted by
    # (-1)^n) reproduces the product of (1 - x_a y_b t^m q^r) exactly
    # within the truncation box; this pits the Gram-Schmidt route against
    # the bundle-style product with no shared code path
    from qtnabla.bundles import product_side_expansion
    N, tdeg, qdeg, max_total = 2, 2, 3, 2
    summed = {((0,) * N, (0,) * N, 0, 0): Fraction(1)}
    for n in (1, 2):
        series = cauchy_macdonald_series(n, 0, N, tdeg)
        sign = (-1) ** n
        for (xe, ye), ts in series.table.items():
            for td in range(tdeg + 1):
                c = ts[td]
                if not c.is_zero():
                    for (qd, _), frac in c.qt_expand(qdeg, 0).items():
                        key = (xe, ye, td, qd)
                        val = summed.get(key, 0) + sign * frac
                        if val:
                            summed[key] = val
                        else:
                            summed.pop(key, None)
    finite_product = product_side_expansion(max_total, N, tdeg, qdeg)
    assert summed == {k: Fraction(v) for k, v in finite_product.items()}
