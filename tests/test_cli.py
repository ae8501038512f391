import argparse
import importlib
import inspect
import json
import os
import subprocess
import sys
from itertools import product

from qtnabla.cli import COMMANDS, OPTIONS, build_parser, main


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
    for lam in ("", ",", "3,,2", "2,1,", "a", "2.5"):
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
    # each k is checked over the primes above it, so --k needs one
    for k, primes in (("3", "2"), ("2", "2"), ("3", "2,3")):
        code, out = run_cli("verify-bundles", "--n", "3", "--k", k, "--N", "2",
                            "--D", "3", "--primes", primes)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), (k, primes)
        assert err.startswith("error: --k ") and "--primes" in err \
            and err.count("\n") == 1, err
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


def test_degree_cap_fails_before_the_macdonald_walk(monkeypatch, capsys):
    """A degree above the H~ cap exits 2 before any partition of n is
    listed or any per-lambda series is formed."""
    import qtnabla.involution as involution
    import qtnabla.macdonald as macdonald

    def never(*args):
        raise AssertionError("the Macdonald walk ran before the cap check")
    monkeypatch.setattr(macdonald, "partitions", never)
    monkeypatch.setattr(macdonald, "_signed_w_inverse_series", never)
    monkeypatch.setattr(involution, "enumerate_van", never)
    for argv in (("compute", "nabla", "--n", "9"),
                 ("compute", "parking", "--n", "9"),
                 ("verify-shuffle", "--n", "9"),
                 ("verify-main", "--n", "9", "--N", "1", "--D", "0"),
                 ("verify-involution", "--n", "9", "--N", "1", "--D", "0"),
                 ("verify-involution", "--n", "9", "--N", "9", "--D", "8")):
        assert run_cli(*argv) == (2, ""), argv
        assert capsys.readouterr().err == \
            "error: degree 9 above the configured cap 8\n", argv


def test_parking_checks_reject_k0_before_either_side(monkeypatch, capsys):
    """k = 0 exits 2 before any H~ table is built for nabla^k e_n."""
    import qtnabla.macdonald as macdonald

    def never(*args):
        raise AssertionError("an H~ table was built before the k check")
    monkeypatch.setattr(macdonald, "_hhl_htilde", never)
    monkeypatch.setattr(macdonald.DEFAULT_CACHE, "_tables", {})
    for argv in (("verify-shuffle", "--n", "8", "--k", "0"),
                 ("compute", "parking", "--n", "8", "--k", "0")):
        assert run_cli(*argv) == (2, ""), argv
        assert capsys.readouterr().err == "error: k must be positive\n", argv


def test_verify_paff_rejects_k0(capsys):
    """At k = 0 claims (ii) and (iii) compare 0 with 0, so there is nothing
    to check: the library raises and the CLI exits 2 with one error line."""
    import pytest
    from qtnabla.affine import verify_paff
    with pytest.raises(ValueError, match=r"^k must be positive$"):
        verify_paff(2, 0, 2, 2)
    argv = ("verify-paff", "--n", "2", "--k", "0", "--N", "2", "--D", "2")
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == "error: k must be positive\n"


def test_prime_without_a_cap_names_the_supported_primes(capsys):
    code, out = run_cli("verify-bundles", "--n", "1", "--D", "1",
                        "--primes", "7")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == ("error: the finite-field oracle "
                                       "supports only the primes 2, 3, 5, "
                                       "got 7\n")


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


def test_routes_of_different_degrees_exit_three(monkeypatch, capsys):
    """A route that returns a longer series than its partner agrees with it
    on their common part; that is a fault of the program, not a pass."""
    import qtnabla.omega as omega
    real = omega.fulltwist_extraction
    monkeypatch.setattr(omega, "fulltwist_extraction",
                        lambda n, k, D: real(n, k, D + 1))
    code, out = run_cli("verify-fulltwist", "--n", "2", "--D", "2")
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == (
        "internal error: compared series of (nx, ny, degree) "
        "(None, None, 2) and (None, None, 3)\n")


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


def test_first_error_follows_the_fixed_size_order(capsys):
    """Sizes are checked n, k, N, D, mmax, lmax, qdegree, whatever order
    the library check reads them in, and --primes is parsed after them."""
    for argv, err in (
            (("verify-involution", "--n", "2", "--D", "-1", "--N", "0"),
             "error: --N must be at least 1, got 0\n"),
            (("verify-bundles", "--n", "1", "--D", "1", "--mmax", "-1",
              "--primes", "4"),
             "error: --mmax must be at least 0, got -1\n")):
        assert run_cli(*argv) == (2, ""), argv
        assert capsys.readouterr().err == err, argv


def _leaf_parsers(parser, path=()):
    """(subcommand words, parser) for every parser that runs a check."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def _row_argv(row):
    """The shortest argv that runs a row: its words and required options."""
    argv = row.split("-", 1) if row.startswith("compute-") else [row]
    for option in COMMANDS[row][3]:
        flags, settings, _ = OPTIONS[option]
        if settings.get("required"):
            argv += [flags[0], "1"]
    return argv


def test_every_command_row_binds_its_check():
    parser = build_parser()
    for row, (_, module, check, options) in COMMANDS.items():
        fn = getattr(importlib.import_module("qtnabla." + module), check, None)
        assert callable(fn), row
        args = parser.parse_args(_row_argv(row))
        assert args.row == row
        values = [getattr(args, OPTIONS[option][1].get("dest", option))
                  for option in options]
        inspect.signature(fn).bind(*values)  # TypeError when they do not fit


def test_each_parser_takes_exactly_its_row_options():
    rows = set()
    for path, sub in _leaf_parsers(build_parser()):
        row = sub.get_default("row")
        assert row == "-".join(path)
        rows.add(row)
        flags = {flag for action in sub._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        expected = {flag for option in COMMANDS[row][3]
                    for flag in OPTIONS[option][0]}
        assert flags == expected | {"--format", "--out"}, row
    assert rows == set(COMMANDS)


def test_failing_report_exits_one(capsys):
    from qtnabla.cli import _emit
    import argparse
    args = argparse.Namespace(format="json", out=None)
    bad = {"command": "verify-main", "equal": False,
           "first_discrepancy": {"t_deg": 0, "lhs": "1", "rhs": "q"}}
    assert _emit(bad, args) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["first_discrepancy"]["rhs"] == "q"


def test_every_row_reports_one_boolean_verdict(monkeypatch):
    """Each subcommand at its smallest valid size (k = 1, --hilbert on):
    the key _emit reads, equal or else ok, holds a bool, and it passes."""
    from qtnabla import cli
    emitted = []

    def emit(report, args):
        code = real_emit(report, args)
        emitted.append((report, code))
        return code

    real_emit = cli._emit
    monkeypatch.setattr(cli, "_emit", emit)
    for name, (_, _, _, options) in COMMANDS.items():
        argv = name.split("-", 1) if name.startswith("compute-") else [name]
        for option in options:
            flags, _, least = OPTIONS[option]
            if option == "hilbert":
                argv.append(flags[0])
            elif option == "lambda":
                argv += [flags[0], "1"]
            elif least is not None:  # k = 0 is below what verify-main takes
                argv += [flags[0], str(1 if option[0] == "k" else least)]
        emitted.clear()
        code, _ = run_cli(*argv, "--format", "json")
        (report, emit_code), = emitted
        verdict = report["equal"] if "equal" in report else report["ok"]
        assert type(verdict) is bool, (argv, verdict)
        assert emit_code == code == 0, argv


def test_verify_shuffle_counterexample_exits_one(monkeypatch):
    """The parking sum off by q at x_2^2: the report names that coefficient
    and leaves the parking side unrendered."""
    import qtnabla.shuffle as shuffle
    from qtnabla.scalar import Q
    from qtnabla.symfunc import Poly
    real = shuffle.parking_sum

    def perturbed(n, k, N):
        terms = dict(real(n, k, N).terms)
        terms[((0, 2), ())] = terms[((0, 2), ())] + Q
        return Poly(N, 0, terms)

    monkeypatch.setattr(shuffle, "parking_sum", perturbed)
    disc = {"x_exp": [0, 2], "y_exp": [], "t_deg": 0, "lhs": "1",
            "rhs": "q + 1"}
    for argv in (("verify-shuffle",), ("compute", "parking")):
        code, out = run_cli(*argv, "--n", "2", "--k", "1", "--format", "json")
        report = json.loads(out)
        assert code == 1, argv
        assert report["equal"] is False
        assert report["first_discrepancy"] == disc
        assert report["parking_monomial"] is None


def test_verify_xi_counterexample_exits_one(monkeypatch):
    """The chromatic route off by q y_1 y_2: the failure names the path and
    the first y-monomial where the two sides differ."""
    from qtnabla import labels
    from qtnabla.scalar import Q
    from qtnabla.symfunc import Poly
    real = labels.chromatic
    monkeypatch.setattr(labels, "chromatic", lambda path, N: real(path, N)
                        + Poly(0, N, {((), (1,) * N): Q}))
    code, out = run_cli("verify-xi", "--n", "2", "--format", "json")
    report = json.loads(out)
    assert code == 1
    assert report["ok"] is False and report["paths"] == 1
    assert report["failure"] == {
        "area_sequence": [0, 0], "equal": False, "first_discrepancy": {
            "x_exp": [], "y_exp": [0, 2], "t_deg": 0,
            "lhs": "1", "rhs": "(2 q + 1)/(q + 1)"}}


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli("verify-shuffle", "--n", "2", "--k", "1",
                        "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["equal"] is True


def test_unwritable_out_file_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli("verify-shuffle", "--n", "2", "--out", str(target))
    err = capsys.readouterr().err
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unusable_cache_dir_exits_two(tmp_path, monkeypatch, capsys):
    """A cache directory that names a regular file is a configuration
    error: one error line from the store, and no report."""
    import qtnabla.macdonald as macdonald
    target = tmp_path / "cache"
    target.write_text("")
    monkeypatch.setattr(macdonald, "DEFAULT_CACHE",
                        macdonald.MacdonaldCache(directory=str(target)))
    code, out = run_cli("compute", "macdonald", "--lambda", "2,1")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        f"error: [Errno 17] File exists: {str(target)!r}\n"


def test_closed_reader_keeps_the_report_status(child_env):
    """As in `qtnabla compute nabla ... | head -1`: a reader that is gone
    before the report is written is not bad input, so the exit status is
    the report's own and stderr stays empty."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qtnabla.cli", "compute", "nabla",
             "--n", "5", "--k", "1"],
            env=child_env, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_reader_closed_mid_report_keeps_the_report_status(child_env):
    """As in `qtnabla verify-main ... --format json | head -c 100`: the
    report (about 325 KB) outgrows the pipe buffer, so the reader closes
    while the child is still writing; the status is the report's own and
    stderr stays empty."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtnabla.cli", "verify-main", "--n", "3",
         "--k", "2", "--N", "3", "--D", "5", "--format", "json"],
        env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""
    assert head.startswith(b"{")


def test_console_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "qtnabla.cli", "verify-shuffle", "--n", "2"],
        env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_import_loads_no_library_module(child_env):
    """A library module is imported only when a subcommand runs its check:
    importing the CLI adds nothing to what `import qtnabla` loads."""
    code = ("import json, sys, qtnabla; before = set(sys.modules); "
            "import qtnabla.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                          capture_output=True, text=True, check=True)
    added = [m for m in json.loads(proc.stdout) if m.startswith("qtnabla")]
    assert added == ["qtnabla.cli"]


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
