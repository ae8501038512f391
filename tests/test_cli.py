import json
import subprocess
import sys
from itertools import product

from qtnabla.cli import main


def run_cli(*argv):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_verify_main_trivial():
    code, out = run_cli("verify-main", "--n", "1", "--k", "5", "--N", "1",
                        "--D", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_main_json_deterministic(tmp_path):
    argv = ("verify-main", "--n", "2", "--k", "1", "--N", "2", "--D", "2",
            "--format", "json")
    code1, out1 = run_cli(*argv)
    code2, out2 = run_cli(*argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["equal"] is True
    assert report["first_discrepancy"] is None
    assert all(set(entry) == {"x_exp", "y_exp", "t_deg", "q_num", "q_den"}
               for entry in report["lhs"])


def test_verify_shuffle():
    code, out = run_cli("verify-shuffle", "--n", "3", "--k", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_fulltwist_with_hilbert():
    code, out = run_cli("verify-fulltwist", "--n", "2", "--k", "1", "--D", "3",
                        "--hilbert")
    assert code == 0


def test_t_degree_alias():
    code, _ = run_cli("verify-fulltwist", "--n", "2", "--k", "1",
                      "--t-degree", "2")
    assert code == 0


def test_verify_involution():
    code, out = run_cli("verify-involution", "--n", "2", "--k", "1",
                        "--N", "2", "--D", "2")
    assert code == 0


def test_verify_paff():
    code, out = run_cli("verify-paff", "--n", "2", "--k", "1", "--N", "2",
                        "--D", "2")
    assert code == 0


def test_verify_bundles():
    code, out = run_cli("verify-bundles", "--n", "2", "--k", "1", "--N", "2",
                        "--D", "2", "--mmax", "1", "--lmax", "2",
                        "--qdegree", "3")
    assert code == 0


def test_verify_xi():
    code, out = run_cli("verify-xi", "--n", "3")
    assert code == 0


def test_compute_macdonald():
    code, out = run_cli("compute", "macdonald", "--lambda", "2")
    assert code == 0
    assert "s[2] + q s[1,1]" in out


def test_compute_nabla():
    code, out = run_cli("compute", "nabla", "--n", "2", "--k", "1")
    assert code == 0
    assert "s[2] + (q + t) s[1,1]" in out


def test_compute_parking():
    code, out = run_cli("compute", "parking", "--n", "2", "--k", "1")
    assert code == 0
    assert "m[2] + (q + t + 1) m[1,1]" in out


def test_compute_omega_json():
    code, out = run_cli("compute", "omega", "--n", "1", "--k", "1", "--N", "1",
                        "--D", "1", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["series"]


def test_config_errors(capsys):
    code, _ = run_cli("verify-main", "--n", "0", "--k", "1", "--N", "1",
                      "--D", "1")
    assert code == 2
    code, _ = run_cli("compute", "macdonald")
    assert code == 2
    code = main(["no-such-command"])
    assert code == 2
    capsys.readouterr()
    for argv in (("verify-shuffle", "--n", "0"),
                 ("verify-xi", "--n", "0"),
                 ("verify-fulltwist", "--n", "0"),
                 ("verify-involution", "--n", "0"),
                 ("verify-paff", "--n", "0"),
                 ("verify-bundles", "--n", "0"),
                 ("verify-shuffle", "--n", "2", "--N", "0"),
                 ("verify-shuffle", "--n", "2", "--k", "-1"),
                 ("verify-involution", "--n", "2", "--D", "-1"),
                 ("compute", "parking", "--n", "0"),
                 ("verify-main", "--n", "2", "--k", "0", "--D", "0"),
                 ("verify-involution", "--n", "2", "--k", "0", "--D", "0"),
                 ("verify-bundles", "--n", "1", "--D", "1", "--mmax", "-1"),
                 ("verify-bundles", "--n", "1", "--D", "1", "--lmax", "0"),
                 ("verify-bundles", "--n", "1", "--D", "1",
                  "--qdegree", "-1"),
                 ("verify-bundles", "--n", "1", "--D", "0")):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    for lam in ("", ","):
        code, out = run_cli("compute", "macdonald", "--lambda", lam)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), lam
        assert "not a partition" in err, (lam, err)
    for primes in ("4", "1", "2,2", "3,2,3"):
        code, out = run_cli("verify-bundles", "--n", "1", "--D", "1",
                            "--primes", primes)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), primes
        assert err.startswith("error: --primes ") and err.count("\n") == 1, err
    # k = 0 stays a valid input where the series is defined
    assert run_cli("compute", "omega", "--n", "2", "--k", "0", "--D", "1")[0] == 0


def test_schur_report_keeps_only_rows_that_N_variables_determine():
    """With --N below --n, the s_lam with more than N rows vanish on the
    alphabet; the report used to print wrong coefficients for them."""
    code, out = run_cli("compute", "parking", "--n", "3", "--N", "2",
                        "--format", "json")
    assert code == 0
    report = json.loads(out)
    full = "s[3] + (q^2 + q t + q + t^2 + t) s[2,1]"
    assert report["nabla_schur"] == report["parking_schur"] == full
    code, out = run_cli("compute", "nabla", "--n", "3", "--format", "json")
    assert json.loads(out)["schur"].startswith(full + " + ")
    code, out = run_cli("verify-shuffle", "--n", "2", "--N", "1",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["nabla_schur"] == "s[2]"


def test_bundle_cap_fails_before_the_oracle(monkeypatch, capsys):
    import qtnabla.bundles as bundles

    def never(*args):
        raise AssertionError("the oracle ran before the cap check")
    monkeypatch.setattr(bundles, "_det_mod", never)
    code, out = run_cli("verify-bundles", "--n", "3", "--k", "1", "--N", "3",
                        "--D", "4", "--primes", "2,3")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        "error: endomorphism dimension 11 over F_3 exceeds the cap\n"


def test_failed_self_check_exits_three(monkeypatch, capsys):
    import qtnabla.affine as affine
    import qtnabla.macdonald as macdonald

    def coarea_check(w, m):
        raise AssertionError("coarea exceeds the row capacity")
    monkeypatch.setattr(affine, "rational_area_sequence", coarea_check)
    code, out = run_cli("verify-paff", "--n", "2", "--N", "2", "--D", "1")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == \
        "internal error: coarea exceeds the row capacity\n"

    def pairing_check(lam, f):
        raise AssertionError(f"H~_{lam} fails the sign-character pairing")
    monkeypatch.setattr(macdonald, "_validate_htilde", pairing_check)
    monkeypatch.setattr(macdonald, "DEFAULT_CACHE",
                        macdonald.MacdonaldCache(directory=""))
    code, out = run_cli("compute", "macdonald", "--lambda", "2,1")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == \
        "internal error: H~_(2, 1) fails the sign-character pairing\n"


def test_options_a_command_ignores_are_rejected(capsys):
    for argv in (("verify-xi", "--n", "2", "--k", "7"),
                 ("compute", "macdonald", "--lambda", "2,1", "--n", "3"),
                 ("compute", "macdonald", "--lambda", "2,1", "--k", "2"),
                 ("compute", "macdonald", "--lambda", "2,1", "--N", "2"),
                 ("compute", "macdonald", "--lambda", "2,1", "--D", "2"),
                 ("compute", "nabla", "--n", "2", "--N", "2"),
                 ("compute", "nabla", "--n", "2", "--D", "2"),
                 ("compute", "parking", "--n", "2", "--D", "2")):
        assert run_cli(*argv) == (2, ""), argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv


def test_N_defaults_to_n():
    for argv in (("verify-main", "--D", "2"),
                 ("verify-involution", "--D", "2"),
                 ("verify-paff", "--D", "2"),
                 ("verify-bundles", "--D", "2", "--mmax", "1", "--lmax", "2",
                  "--qdegree", "3")):
        code, out = run_cli(*argv, "--n", "2", "--k", "1", "--format", "json")
        assert code == 0, argv
        with_N = run_cli(*argv, "--n", "2", "--k", "1", "--N", "2",
                         "--format", "json")
        assert (code, out) == with_N, argv


def test_failing_report_exits_one(capsys):
    from qtnabla.cli import _emit
    import argparse
    args = argparse.Namespace(format="json", out=None)
    bad = {"command": "verify-main", "equal": False,
           "first_discrepancy": {"t_deg": 0, "lhs": "1", "rhs": "q"}}
    assert _emit(bad, args) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["first_discrepancy"]["rhs"] == "q"


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli("verify-shuffle", "--n", "2", "--k", "1",
                        "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["equal"] is True


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "qtnabla.cli", "verify-shuffle", "--n", "2"],
        env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0


def _fuzz_grid():
    """Every subcommand over small, zero, negative and odd option values."""
    small = (-1, 0, 1, 2)
    for n, k, N, D in product(small, small, (0, 1, 2), (-1, 0, 1)):
        sizes = ("--n", str(n), "--k", str(k), "--N", str(N), "--D", str(D))
        for command in ("verify-main", "verify-involution", "verify-paff",
                        "verify-bundles"):
            yield (command, *sizes)
        yield ("compute", "omega", *sizes)
        if D == 0:
            yield ("verify-shuffle", *sizes[:6])
            yield ("compute", "parking", *sizes[:6])
        if N == 1:
            yield ("verify-fulltwist", *sizes[:4], *sizes[6:])
            yield ("verify-fulltwist", *sizes[:4], *sizes[6:], "--hilbert")
        if N == 1 and D == 0:
            yield ("compute", "nabla", *sizes[:4])
            if k == 1:
                yield ("verify-xi", *sizes[:2])
    for lam in ("", ",", "0", "-1", "1,2", "2,,1", "a", "2.5", "9", "1",
                "2,1", "1,1,1"):
        yield ("compute", "macdonald", "--lambda", lam)
    for primes in ("", ",", "2,", "0", "-2", "1", "4", "a", "2,2", "3,2,3",
                   "7", "2", "3,2"):
        yield ("verify-bundles", "--n", "1", "--D", "1", "--primes", primes)


def test_cli_fuzz_grid_exits_zero_or_two(capsys):
    """No input on the grid raises, reports a counterexample or fails a
    self-check; bad input exits 2 with one error line or the usage message."""
    seen = set()
    for argv in _fuzz_grid():
        code, _ = run_cli(*argv)
        err = capsys.readouterr().err
        seen.add(code)
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert ((err.startswith("error: ") and err.count("\n") == 1)
                    or err.startswith("usage: ")), (argv, err)
        else:
            assert err == "", (argv, err)
    assert seen == {0, 2}
