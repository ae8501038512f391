"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name, and its install step raises on a name that is gone; its enum-sweep
workload (perfbench/run.py) calls package functions by name, and counts a
call that raises as a failed operation; its cli workloads run command lines.
These tests resolve every such name and parse every such command line the
same way, so a rename fails the test suite instead of only the benchmark
run."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module_name, qualname, _, _, yields in targets:
        module = importlib.import_module("qtnabla." + module_name)
        *owner, attr = qualname.split(".")
        if owner:
            # methods are looked up in the class __dict__ itself
            assert attr in vars(getattr(module, *owner)), qualname
            continue
        fn = getattr(module, attr, None)
        assert callable(fn), qualname
        if yields:
            assert inspect.isgeneratorfunction(fn), qualname


def _bench_cases(name):
    """The case list `name` of perfbench/run.py, read from its source."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name}")


def test_bench_cases_resolve():
    cases = _bench_cases("ENUM_CASES")
    assert cases
    for module_name, name, args in cases:
        module = importlib.import_module("qtnabla." + module_name)
        fn = getattr(module, name, None)
        assert callable(fn), (module_name, name)
        inspect.signature(fn).bind(*args)  # TypeError when they do not fit


def test_bench_cli_cases_parse():
    """Every command line of the cli workloads parses, as the benchmark runs
    it (with --format json); a renamed subcommand or option fails here."""
    from qtnabla.cli import build_parser
    cases = _bench_cases("CLI_CASES")
    assert cases
    for argv in cases:
        build_parser().parse_args([*argv, "--format", "json"])


def test_readme_usage_lines_parse():
    """Every `qtnabla ...` line of README's usage block parses, trailing
    comment stripped; a renamed subcommand or option fails here too."""
    from qtnabla.cli import build_parser
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#")[0].split()
             for line in readme.read_text().splitlines()
             if line.startswith("qtnabla ")]
    assert lines
    for argv in lines:
        build_parser().parse_args(argv[1:])


def test_package_imports_only_the_standard_library():
    """Every absolute import in src/qtnabla is a standard-library module or
    qtnabla itself, as pyproject.toml's empty dependency list promises."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "qtnabla"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "qtnabla", \
                    (path.name, name)
