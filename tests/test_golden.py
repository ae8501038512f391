"""Golden-report gate: every subcommand's report, byte for byte.

Each case runs the CLI in-process and compares its stdout with a recorded
file under tests/golden/.  A refactor that must leave the reports unchanged
passes this gate unedited.  After a deliberate change to a report, rewrite
the files with ``PYTHONPATH=src python tests/test_golden.py`` and review the
diff.
"""

import contextlib
import io
import json
import pathlib
import sys
from types import SimpleNamespace

import pytest

from qtnabla import affine, bundles, involution, omega
from qtnabla.cli import main
from qtnabla.scalar import Q, MonomialSeries, TSeries

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "verify-main.json": ("verify-main", "--n", "2", "--k", "1", "--N", "2",
                         "--D", "2", "--format", "json"),
    "verify-main.txt": ("verify-main", "--n", "1", "--k", "5", "--N", "1",
                        "--D", "3", "--format", "text"),
    "verify-shuffle.json": ("verify-shuffle", "--n", "3", "--k", "1",
                            "--format", "json"),
    # the parking sum over fewer letters than labels, and over more
    "verify-shuffle-n5-k1-N3.json": ("verify-shuffle", "--n", "5", "--k", "1",
                                     "--N", "3", "--format", "json"),
    "compute-parking-n4-k2-N5.json": ("compute", "parking", "--n", "4",
                                      "--k", "2", "--N", "5",
                                      "--format", "json"),
    "verify-fulltwist.json": ("verify-fulltwist", "--n", "2", "--k", "1",
                              "--D", "3", "--hilbert", "--format", "json"),
    # without --hilbert the report has no "hilbert" entry
    "verify-fulltwist-no-hilbert.json": (
        "verify-fulltwist", "--n", "2", "--k", "1", "--D", "3",
        "--format", "json"),
    "verify-involution.json": ("verify-involution", "--n", "2", "--k", "1",
                               "--N", "2", "--D", "2", "--format", "json"),
    # N < n: the Macdonald side drops the partitions of length > N and
    # spreads each remaining one over its distinct permutations
    "verify-main-short-alphabet.json": (
        "verify-main", "--n", "3", "--k", "1", "--N", "2", "--D", "3",
        "--format", "json"),
    "verify-involution-short-alphabet.json": (
        "verify-involution", "--n", "3", "--k", "2", "--N", "2", "--D", "3",
        "--format", "json"),
    "verify-paff.json": ("verify-paff", "--n", "2", "--k", "1", "--N", "2",
                         "--D", "2", "--format", "json"),
    # the size the cold CLI benchmark runs
    "verify-paff-n3-k1-N3-D3.json": ("verify-paff", "--n", "3", "--k", "1",
                                     "--N", "3", "--D", "3",
                                     "--format", "json"),
    "verify-bundles.json": ("verify-bundles", "--n", "2", "--k", "1",
                            "--N", "2", "--D", "2", "--mmax", "1",
                            "--lmax", "2", "--qdegree", "3",
                            "--format", "json"),
    # the text format renders the nested dicts of this report as JSON
    "verify-bundles.txt": ("verify-bundles", "--n", "2", "--k", "1",
                           "--N", "2", "--D", "2", "--mmax", "1",
                           "--lmax", "2", "--qdegree", "3",
                           "--format", "text"),
    "verify-xi.json": ("verify-xi", "--n", "3", "--format", "json"),
    # the sizes the cold CLI benchmark runs
    "verify-fulltwist-n3-k2-D5.json": (
        "verify-fulltwist", "--n", "3", "--k", "2", "--D", "5", "--hilbert",
        "--format", "json"),
    "verify-xi-n4.json": ("verify-xi", "--n", "4", "--format", "json"),
    "verify-involution-n3-k1-N3-D4.json": (
        "verify-involution", "--n", "3", "--k", "1", "--N", "3", "--D", "4",
        "--format", "json"),
    "verify-bundles-n2-k1-N3-D4.json": (
        "verify-bundles", "--n", "2", "--k", "1", "--N", "3", "--D", "4",
        "--primes", "2,3", "--format", "json"),
    "compute-macdonald.json": ("compute", "macdonald", "--lambda", "2",
                               "--format", "json"),
    "compute-nabla.json": ("compute", "nabla", "--n", "2", "--k", "1",
                           "--format", "json"),
    "compute-nabla.txt": ("compute", "nabla", "--n", "2", "--k", "1",
                          "--format", "text"),
    # the bench's largest case, a k above 1, and k = 0 (nabla^0 e_n = e_n)
    "compute-nabla-n5-k1.json": ("compute", "nabla", "--n", "5", "--k", "1",
                                 "--format", "json"),
    "compute-nabla-n4-k2.json": ("compute", "nabla", "--n", "4", "--k", "2",
                                 "--format", "json"),
    "compute-nabla-n3-k0.json": ("compute", "nabla", "--n", "3", "--k", "0",
                                 "--format", "json"),
    "compute-parking.json": ("compute", "parking", "--n", "2", "--k", "1",
                             "--format", "json"),
    "compute-omega.json": ("compute", "omega", "--n", "1", "--k", "1",
                           "--N", "1", "--D", "1", "--format", "json"),
}


def _report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, out = _report(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", ["verify-main-short-alphabet.json",
                                  "verify-main.txt"])
def test_out_file_holds_the_stdout_bytes(name, tmp_path):
    target = tmp_path / name
    assert _report((*CASES[name], "--out", str(target))) == (0, b"")
    assert target.read_bytes() == _report(CASES[name])[1] == \
        (GOLDEN / name).read_bytes()


# Counterexample reports: one route is perturbed by +q in a single
# coefficient, so each verifier must report that coefficient.

KEY = ((1, 1), (1, 1))


def _bump(series, j):
    coeffs = list(series.coeffs)
    coeffs[j] = coeffs[j] + Q
    return TSeries(series.degree, coeffs)


def _bump_key(series, j):
    table = dict(series.table)
    table[KEY] = _bump(series.series(KEY), j)
    return MonomialSeries(series.nx, series.ny, series.degree, table)


def test_verify_main_counterexample(monkeypatch):
    real = omega.omega_series
    monkeypatch.setattr(omega, "omega_series",
                        lambda *size: _bump_key(real(*size), 1))
    rep = omega.verify_main(2, 1, 2, 2)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "x_exp": [1, 1], "y_exp": [1, 1], "t_deg": 1,
        "lhs": "q + 3", "rhs": "q^3 - 2 q^2 + 2 q + 3"}
    code, out = _report(("verify-main", "--n", "2", "--k", "1", "--N", "2",
                         "--D", "2"))
    assert code == 1
    assert out.decode() == (
        "verify-main: FAIL\n  D = 2\n  N = 2\n  equal = false\n"
        '  first_discrepancy = {"lhs": "q + 3", '
        '"rhs": "q^3 - 2 q^2 + 2 q + 3", "t_deg": 1, "x_exp": [1, 1], '
        '"y_exp": [1, 1]}\n  k = 1\n  n = 2\n')


def test_verify_fulltwist_counterexample(monkeypatch):
    real = omega.fulltwist_extraction
    monkeypatch.setattr(omega, "fulltwist_extraction",
                        lambda n, k, d: _bump(real(n, k, d), 1))
    rep = omega.verify_fulltwist(2, 1, 3)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "t_deg": 1, "lhs": "(2)/(q^2 - 2 q + 1)",
        "rhs": "(q^3 - 2 q^2 + q + 2)/(q^2 - 2 q + 1)"}


def test_verify_hilbert_counterexample(monkeypatch):
    real = affine.raths_series
    monkeypatch.setattr(affine, "raths_series",
                        lambda n, m, d: _bump(real(n, m, d), 1))
    rep = omega.verify_hilbert(2, 1, 3)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "t_deg": 1, "lhs": "(q + 3)/(q^2 - 2 q + 1)",
        "rhs": "(q^3 - 2 q^2 + 2 q + 3)/(q^2 - 2 q + 1)"}


def test_verify_bundle_series_counterexample(monkeypatch):
    real = bundles.bundle_side_series
    monkeypatch.setattr(bundles, "bundle_side_series",
                        lambda n, k, N, d: _bump_key(real(n, k, N, d), 1))
    rep = bundles.verify_bundle_series(2, 1, 2, 2)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "x_exp": [1, 1], "y_exp": [1, 1], "t_deg": 1,
        "lhs": "(q^3 - 2 q^2 + 2 q + 3)/(q^2 - 2 q + 1)",
        "rhs": "(q + 3)/(q^2 - 2 q + 1)"}


def test_verify_vanishing_counterexample(monkeypatch):
    real = involution.signed_quadruple_series
    monkeypatch.setattr(involution, "signed_quadruple_series",
                        lambda n, k, N, d: _bump_key(real(n, k, N, d), 1))
    rep = involution.verify_vanishing(2, 1, 2, 2)
    assert rep["ok"] is False and rep["equal"] is False
    assert rep["failures"] == [{
        "kind": "signed-sum", "x_exp": [1, 1], "y_exp": [1, 1], "t_deg": 1,
        "lhs": "1", "rhs": "-q + 1"}]


def test_verify_vanishing_q_weight_counterexample(monkeypatch):
    # the statistic read off the first column no longer survives the move
    real = involution.d_k_rev
    monkeypatch.setattr(involution, "d_k_rev",
                        lambda m, b, k: real(m, b, k) + m[0])
    rep = involution.verify_vanishing(2, 1, 2, 2)
    quad = involution.VanQuadruple(0, (1, 2), (0, 2), (1, 1))
    image = involution.VanQuadruple(1, (2, 1), (2, 0), (1, 1))
    assert rep == {"n": 2, "k": 1, "D": 2, "N": 2, "ok": False,
                   "failures": [{"kind": "q-weight", "quad": quad,
                                 "image": image}],
                   "fixed_points": []}
    code, out = _report(("verify-involution", "--n", "2", "--k", "1",
                         "--N", "2", "--D", "2"))
    assert code == 1
    assert out.decode() == (
        "verify-involution: FAIL\n  D = 2\n  N = 2\n"
        '  failures = [{"image": "VanQuadruple(l=1, a=(2, 1), m=(2, 0), '
        'b=(1, 1))", "kind": "q-weight", "quad": "VanQuadruple(l=0, '
        'a=(1, 2), m=(0, 2), b=(1, 1))"}]\n'
        "  fixed_points = []\n  k = 1\n  n = 2\n  ok = false\n")


def test_verify_vanishing_involution_counterexample(monkeypatch):
    # iota fixes every quadruple with a nonempty left side, so the first
    # moved quadruple does not come back
    real = involution.iota
    monkeypatch.setattr(involution, "iota",
                        lambda quad, k: real(quad, k) if quad.l == 0 else quad)
    rep = involution.verify_vanishing(2, 1, 2, 2)
    assert rep["ok"] is False and rep["fixed_points"] == []
    assert rep["failures"] == [{
        "kind": "involution",
        "quad": involution.VanQuadruple(0, (1, 1), (2, 0), (1, 1)),
        "image": involution.VanQuadruple(1, (1, 1), (2, 0), (1, 1))}]
    code, out = _report(("verify-involution", "--n", "2", "--k", "1",
                         "--N", "2", "--D", "2", "--format", "json"))
    assert code == 1
    assert json.loads(out)["failures"] == [{
        "image": "VanQuadruple(l=1, a=(1, 1), m=(2, 0), b=(1, 1))",
        "kind": "involution",
        "quad": "VanQuadruple(l=0, a=(1, 1), m=(2, 0), b=(1, 1))"}]


def test_verify_vanishing_dominance_counterexample(monkeypatch):
    monkeypatch.setattr(involution, "dominance_leq", lambda lam, mu: False)
    rep = involution.verify_vanishing(2, 1, 2, 2)
    assert rep["ok"] is False and rep["failures"] == [{
        "kind": "dominance",
        "quad": involution.VanQuadruple(0, (1, 1), (0, 0), (1, 2))}]
    assert str(rep["failures"][0]["quad"]) == \
        "VanQuadruple(l=0, a=(1, 1), m=(0, 0), b=(1, 2))"


def test_verify_xi_factoring_counterexample(monkeypatch):
    real = omega.omega_via_xi
    monkeypatch.setattr(omega, "omega_via_xi",
                        lambda *size: _bump_key(real(*size), 1))
    rep = omega.verify_xi_factoring(2, 1, 2, 2)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "x_exp": [1, 1], "y_exp": [1, 1], "t_deg": 1,
        "lhs": "(q + 3)/(q^2 - 2 q + 1)",
        "rhs": "(q^3 - 2 q^2 + 2 q + 3)/(q^2 - 2 q + 1)"}


def test_verify_sub_y_counterexample(monkeypatch):
    real = omega.omega_sub_y_via_plethysm
    monkeypatch.setattr(omega, "omega_sub_y_via_plethysm",
                        lambda *size: _bump_key(real(*size), 1))
    rep = omega.verify_sub_y(2, 1, 2, 2)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "x_exp": [1, 1], "y_exp": [1, 1], "t_deg": 1,
        "lhs": "q + 3", "rhs": "2 q + 3"}


# Counterexample sweeps: one route is off by one, so each sweep stops at its
# first case with one failure of the named kind.

def test_verify_paff_counterexample(monkeypatch):
    real = affine.dimv
    monkeypatch.setattr(affine, "dimv", lambda w, m: real(w, m) + 1)
    rep = affine.verify_paff(2, 1, 2, 2)
    assert rep["ok"] is False and rep["triples"] == 1
    assert rep["failures"] == [{
        "kind": "dinv-dimv", "triple": ((0, 0), (1, 1), (1, 1)),
        "w": (2, 1), "dinv": 0, "dimv": 1}]


def test_verify_paff_coset_max_counterexample(monkeypatch):
    # the labels (1, 2) read as one block: the first triple with a = (1, 2)
    # whose w has no descent at s_1 fails, and w s_1 is the longer element
    real = affine.alpha_composition
    monkeypatch.setattr(affine, "alpha_composition",
                        lambda values: (2,) if values == (1, 2) else real(values))
    rep = affine.verify_paff(2, 1, 2, 2)
    assert rep["ok"] is False and rep["triples"] == 6
    assert rep["failures"] == [{
        "kind": "coset-max", "triple": ((0, 0), (1, 2), (2, 1)),
        "w": (1, 2), "v": (2, 1)}]


def test_verify_paff_area_difference_counterexample(monkeypatch):
    real = affine.attack_path
    monkeypatch.setattr(affine, "attack_path", lambda m, a, k: SimpleNamespace(
        area_sequence=tuple(x + 1 for x in real(m, a, k).area_sequence)))
    rep = affine.verify_paff(2, 1, 2, 2)
    assert rep["ok"] is False and rep["triples"] == 1
    assert rep["failures"] == [{
        "kind": "area-difference", "triple": ((0, 0), (1, 1), (1, 1)),
        "diff": (0, 1)}]


def test_verify_bundle_counts_counterexample(monkeypatch):
    real = bundles.aut_count
    monkeypatch.setattr(bundles, "aut_count",
                        lambda m, a, b, q: real(m, a, b, q=q) + 1)
    rep = bundles.verify_bundle_counts(2, 1, 2, (2, 3), (0, 1))
    assert rep == {"ok": False, "cases": 1, "failures": [{
        "kind": "oracle", "triple": ((0,), (1,), (1,)), "p": 2, "k": 0,
        "oracle": (1, 1), "formula": (2, 1)}]}


def test_verify_product_identity_counterexample(monkeypatch):
    real = bundles.product_side_expansion
    key = ((0, 1), (0, 1), 0, 0)

    def bumped(*args):
        out = dict(real(*args))
        out[key] = out.get(key, 0) + 1
        return out

    monkeypatch.setattr(bundles, "product_side_expansion", bumped)
    rep = bundles.verify_product_identity(2, 2, 2, 3)
    assert rep["equal"] is False
    assert rep["first_discrepancy"] == {
        "x_exp": [0, 1], "y_exp": [0, 1], "t_deg": 0,
        "lhs": "-q^3 - q^2 - q - 1", "rhs": "-q^3 - q^2 - q"}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _report(argv)
        if code != 0:
            sys.exit(f"{name}: exit status {code}")
        (GOLDEN / name).write_bytes(out)
