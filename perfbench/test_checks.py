"""Tests of the benchmark's output checkers (checks.py).

They build small reports with the package itself, check that each passes,
then change one coefficient and check that it is rejected.  They run in
seconds and run none of the timed workloads.
"""

import json

import pytest

import checks
from qtnabla import cli
from qtnabla.bundles import verify_bundle_counts
from qtnabla.omega import verify_xi_factoring
from qtnabla.scalar import QtScalar
from qtnabla.shuffle import parking_sum
from qtnabla.symfunc import Poly


def test_catalan():
    assert [checks.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_parking_count():
    assert checks.parking_count(3, 1) == 16
    assert checks.parking_count(4, 1) == 125
    assert checks.parking_count(3, 2) == 49
    assert checks.parking_count(6, 1) == 16807


def test_multinomial():
    assert checks.multinomial([1, 1, 1]) == 6
    assert checks.multinomial([2, 1]) == 3
    assert checks.multinomial([2, 2]) == 6
    assert checks.multinomial([3, 2, 1]) == 60


def test_content_count():
    # nabla e_3 at q = t = 1 is m[3] + 6 m[2,1] + 16 m[1,1,1]
    assert [checks.content_count(3, 1, p) for p in ([3], [2, 1], [1, 1, 1])] == [1, 6, 16]
    assert checks.content_count(5, 2, [1] * 5) == checks.parking_count(5, 2)


def test_hook_count():
    assert checks.hook_count((2, 1)) == 2
    assert checks.hook_count((3, 2)) == 5
    assert checks.hook_count((2, 2, 1)) == 5
    assert sum(checks.hook_count(lam) ** 2 for lam in checks.partitions(5)) == 120


def test_qt_swap_on_raw_dicts():
    q, t = {(1, 0): 1}, {(0, 1): 1}
    assert checks.swap_qt({(2, 1): 3, (0, 0): -1}) == {(1, 2): 3, (0, 0): -1}
    assert checks.is_qt_symmetric({(1, 0): 1, (0, 1): 1}, {(0, 0): 1})
    assert checks.is_qt_symmetric({(1, 0): 1, (0, 1): 1}, {(1, 1): 2})
    assert not checks.is_qt_symmetric(q, {(0, 0): 1})
    assert not checks.is_qt_symmetric(q, t)


def test_parsers_read_back_the_package_rendering():
    for num, den in [({(2, 1): 3, (0, 0): -1}, {(0, 0): 1}),
                     ({(1, 0): -1}, {(0, 0): 1}),
                     ({(0, 3): 2, (1, 1): 1}, {(1, 0): 1, (0, 0): 1})]:
        value = QtScalar(num, den)
        assert checks.pd_parse(str(value).split(")/(")[0].strip("()")) == value.num
    parsed = checks.symfunc_parse("s[3] + (q + t) s[2,1] + q t s[1,1,1]")
    assert parsed == {(3,): ({(0, 0): 1}, {(0, 0): 1}),
                      (2, 1): ({(1, 0): 1, (0, 1): 1}, {(0, 0): 1}),
                      (1, 1, 1): ({(1, 1): 1}, {(0, 0): 1})}
    assert checks.symfunc_parse("((1)/(q + 1)) m[1]") == {
        (1,): ({(0, 0): 1}, {(1, 0): 1, (0, 0): 1})}


def _changed(poly, key, qt_exp, delta):
    terms = dict(poly.terms)
    coeff = terms[key]
    num = dict(coeff.num)
    num[qt_exp] = num.get(qt_exp, 0) + delta
    terms[key] = QtScalar(num, coeff.den)
    return Poly(poly.nx, poly.ny, terms)


def test_parking_checker_rejects_one_changed_coefficient():
    poly = parking_sum(3, 1, 3)
    assert checks.check_parking_poly(poly, 3, 1) == []
    square = ((1, 1, 1), ())
    # off the diagonal: breaks q <-> t symmetry and the q = t = 1 count
    assert checks.check_parking_poly(_changed(poly, square, (2, 0), 1), 3, 1)
    # on the diagonal, at t^0: breaks the multinomial and the squarefree count
    assert checks.check_parking_poly(_changed(poly, square, (0, 0), 1), 3, 1)
    # on the diagonal, away from t^0 and from the squarefree monomial
    assert checks.check_parking_poly(_changed(poly, ((2, 1, 0), ()), (1, 1), 1), 3, 1)


def _cli_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    return out.read_text()


CLI_SMALL = [
    ("verify-main", "--n", "2", "--k", "1", "--N", "2", "--D", "2"),
    ("verify-shuffle", "--n", "3", "--k", "1"),
    ("verify-fulltwist", "--n", "2", "--k", "1", "--D", "2", "--hilbert"),
    ("verify-involution", "--n", "2", "--k", "1", "--N", "2", "--D", "2"),
    ("verify-paff", "--n", "2", "--k", "1", "--N", "2", "--D", "2"),
    ("verify-xi", "--n", "3"),
    ("compute", "macdonald", "--lambda", "2,1"),
    ("compute", "nabla", "--n", "3", "--k", "1"),
    ("compute", "parking", "--n", "2", "--k", "1"),
]


def _change_one_coefficient(argv, report):
    """The report with one coefficient (or the path count) changed."""
    if "lhs" in report:
        report["lhs"][0]["q_num"][0] += 1
    elif argv[0] == "verify-xi":
        report["paths"] += 1
    elif argv[0] == "verify-paff":
        report["triples"] = 0
    elif argv[0] == "verify-shuffle":
        report["parking_monomial"] = report["parking_monomial"].replace("m[3]", "2 m[3]", 1)
    elif argv[1] == "macdonald":
        report["schur"] = report["schur"].replace("(q + t)", "(q + 2 t)", 1)
    elif argv[1] == "nabla":
        report["monomial"] = report["monomial"].replace("(q^2 + q t", "(q^2 + 2 q t", 1)
    elif argv[1] == "parking":
        for key in ("parking_monomial", "nabla_monomial"):
            report[key] = report[key].replace("(q + t + 1)", "(q + t + 2)", 1)
    return report


@pytest.mark.parametrize("argv", CLI_SMALL, ids=lambda a: "-".join(a[:2]))
def test_cli_checker_rejects_one_changed_coefficient(tmp_path, argv):
    text = _cli_report(tmp_path, *argv)
    assert checks.check_cli(list(argv), text) == []
    changed = json.dumps(_change_one_coefficient(argv, json.loads(text)))
    assert changed != json.dumps(json.loads(text))
    assert checks.check_cli(list(argv), changed)


def test_cli_checker_rejects_a_wrong_eigenvalue():
    good = "s[3] + (q + t) s[2,1] + q t s[1,1,1]"
    assert checks.check_htilde_schur(good, (2, 1)) == []
    assert checks.check_htilde_schur(good.replace("q t s", "q^2 t s"), (2, 1))


def test_cli_checker_rejects_unparsable_output():
    argv = ["compute", "nabla", "--n", "3"]
    assert checks.check_cli(argv, "not json")
    assert checks.check_cli(argv, json.dumps({"command": "compute-nabla",
                                              "equal": True, "monomial": "m[3"}))


def test_library_checker_rejects_one_changed_coefficient():
    report = verify_xi_factoring(2, 1, 2, 2)
    assert checks.check_library("verify_xi_factoring", (2, 1, 2, 2), report) == []
    report["rhs"][0]["q_num"][0] += 1
    assert checks.check_library("verify_xi_factoring", (2, 1, 2, 2), report)


def test_library_checker_needs_bundle_cases():
    report = verify_bundle_counts(1, 1, 1, (2,), (0,))
    assert report["cases"] > 0
    assert checks.check_library("verify_bundle_counts", (), report) == []
    assert checks.check_library("verify_bundle_counts", (), {**report, "cases": 0})
