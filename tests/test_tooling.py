"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name, and its install step raises on a name that is gone; its enum-sweep
workload (perfbench/run.py) calls package functions by name, and counts a
call that raises as a failed operation; its cli workloads run command lines.
These tests resolve every such name and parse every such command line the
same way, so a rename fails the test suite instead of only the benchmark
run.

They also keep src/qtnabla to what a subcommand serves: a walk by name from
the COMMANDS rows, cli.py and the benchmark's pins must reach every
top-level definition and every method other than a dunder there, or the
definition is moved to tests/oracles.py, deleted, or listed in
SERVED_ALLOWLIST with its reason.  Without the benchmark's pins the walk
must leave unreached only SERVED_ALLOWLIST and the frozen PIN_ONLY, so no
new code is served by a pin alone.  The same walk from the test modules must
reach every definition of tests/oracles.py."""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PACKAGE = TESTS.parent / "src" / "qtnabla"

_CANCELLATION = ("the shuffle cancellation analysis, a check of the paper "
                 "that only the tests run until it becomes a row or moves "
                 "(ROADMAP item 1)")

# (module, qualname) of each definition in src/qtnabla that no served root
# reaches, kept on purpose, with the reason
SERVED_ALLOWLIST = {
    **{("shuffle", name): _CANCELLATION
       for name in ("pf", "npf", "rho", "rho_inverse", "in_shuffle_set",
                    "_in_a", "_in_b", "five_condition_witness",
                    "signed_truncated_sum", "cancellation_check")},
    ("scalar", "aut_q"): "a public name of qtnabla.__all__; no subcommand "
        "calls it, since the series count 1/aut_q(mu) through q_multinomial",
    # methods, each kept as a test oracle or as public API
    **{("symfunc", f"SymFunc.{name}"): "a constructor of the public "
       "SymFunc; only the tests call it, to build their inputs"
       for name in ("e", "h", "s")},
    ("symfunc", "SymFunc.hall_inner"): "the Hall pairing: the sign-character "
        "and Hall-Littlewood checks of H~ and the basis dualities of "
        "test_symfunc",
    ("affine", "AffinePermutation.length"): "the Coxeter length, against "
        "which the tests check the edges and the coset extremes that "
        "verify-paff reads from inverses and descents",
}

# (module, qualname) of each definition in src/qtnabla that only a benchmark
# pin reaches (a tracer target or an enum-sweep case): the Gram-Schmidt and
# *-orthogonality chains, the factored and substituted enumerators, and the
# plethysm and pairing routes they use.  The set only shrinks, as the
# benchmark stops pinning them.
PIN_ONLY = frozenset({
    ("labels", "iter_sorted_pairs"),
    *(("macdonald", name) for name in (
        "_gram_schmidt_state", "_gram_schmidt_P", "macdonald_P",
        "integral_J", "_build_htilde", "nabla_power", "to_htilde_dict",
        "from_htilde_dict", "_htilde_inverse_matrix", "htilde_norm",
        "w_denominator")),
    *(("omega", name) for name in (
        "verify_xi_factoring", "verify_sub_y", "verify_hilbert",
        "omega_via_xi", "omega_sub_y", "omega_sub_y_via_plethysm",
        "_pair_sum", "_xi_sub_y", "_add_q_polynomial")),
    ("scalar", "QtScalar.subs_t_inverse"),
    *(("symfunc", name) for name in (
        "Poly.constant", "SymFunc._p_pairing", "SymFunc.qt_inner",
        "SymFunc.star_inner", "_power_sum_poly", "plethysm",
        "plethysm_expand")),
})


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
    sources = sorted(PACKAGE.glob("*.py"))
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


def _names(node):
    """Every name the code of node reads: its Name ids and the attributes it
    looks up, so that module.function counts as a read of function."""
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute))}


def _reads(node):
    """The names that the code of a definition reads (see _names), less the
    Name ids it binds itself: its parameters, loop variables and assigned
    names are its own, not reads of module names.  An attribute counts even
    when a local shares its name, as h in f.h beside a local h."""
    nodes = list(ast.walk(node))
    bound = {child.arg for child in nodes if isinstance(child, ast.arg)}
    bound |= {child.id for child in nodes if isinstance(child, ast.Name)
              and isinstance(child.ctx, ast.Store)}
    return {child.id for child in nodes if isinstance(child, ast.Name)
            and child.id not in bound} | {
        child.attr for child in nodes if isinstance(child, ast.Attribute)}


def _definitions(tree):
    """(name, qualname, names its code reads) of each definition in the
    module tree: a top-level def or class, and each method of a top-level
    class other than a dunder.  A class reads the names of its bases, its
    decorators and its body less those methods, so its dunders come with it."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name, _reads(node)))
        elif isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not (item.name.startswith("__")
                                and item.name.endswith("__"))]
            out.append((node.name, node.name, set().union(*(
                _reads(child) for child in ast.iter_child_nodes(node)
                if child not in methods))))
            out += [(item.name, f"{node.name}.{item.name}", _reads(item))
                    for item in methods]
    return out


def _walk(paths, roots):
    """The definitions of the modules at paths (see _definitions), as
    {(module, qualname)}, and those among them that a walk by name does not
    reach.

    The walk starts at roots and at every top-level statement of the modules
    that is neither a definition nor an import, and follows the code of each
    definition it reaches.  It matches names only, so a definition counts as
    reached when any reached code reads its name: a method is reached by any
    attribute of that name."""
    defined, todo = {}, set(roots)
    for path in paths:
        tree = ast.parse(path.read_text())
        for name, qualname, names in _definitions(tree):
            defined.setdefault(name, []).append((path.stem, qualname, names))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import,
                                     ast.ImportFrom)):
                todo |= _names(node)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, _, names in defined.get(name, ()):
            todo |= names - reached
    everything = {(module, qualname) for nodes in defined.values()
                  for module, qualname, _ in nodes}
    return everything, {(module, qualname) for name, nodes in defined.items()
                        for module, qualname, _ in nodes if name not in reached}


def test_a_definition_reads_no_name_it_binds():
    """Parameters, loop variables and assigned names are a definition's
    own; the attributes it looks up are reads even under a local's name."""
    tree = ast.parse("def f(rho, xs):\n"
                     "    for h in xs:\n"
                     "        out = rho(h)\n"
                     "    return [e for e in out.h] + g(xs)\n")
    assert _reads(tree.body[0]) == {"h", "g"}


def _served_roots(pins):
    """The check of each COMMANDS row and every name cli.py reads; with pins,
    also every name the benchmark pins: the tracer targets and the
    enum-sweep cases."""
    from qtnabla.cli import COMMANDS
    roots = {check for _, _, check, _ in COMMANDS.values()}
    roots |= _names(ast.parse((PACKAGE / "cli.py").read_text()))
    if pins:
        roots |= {part for _, qualname, *_ in _tracer_targets()
                  for part in qualname.split(".")}
        roots |= {name for _, name, _ in _bench_cases("ENUM_CASES")}
    return roots


def test_every_package_definition_is_served():
    """Each top-level def or class and each method other than a dunder in
    src/qtnabla is reached from a served root or listed in SERVED_ALLOWLIST;
    each entry there names a definition that exists and that no root
    reaches.  The served roots are the check of each COMMANDS row, every
    name cli.py reads, and every name the benchmark pins: the tracer targets
    and the enum-sweep cases."""
    defined, unreached = _walk(sorted(PACKAGE.glob("*.py")),
                               _served_roots(pins=True))
    allowed = set(SERVED_ALLOWLIST)
    assert not unreached - allowed, \
        f"no subcommand or benchmark pin reaches {sorted(unreached - allowed)}"
    assert not allowed - defined, \
        f"SERVED_ALLOWLIST names no definition: {sorted(allowed - defined)}"
    assert not allowed - unreached, \
        f"SERVED_ALLOWLIST entries are served: {sorted(allowed - unreached)}"


def test_pin_only_definitions_are_the_frozen_set():
    """Without the benchmark pins, the walk leaves unreached exactly
    PIN_ONLY and SERVED_ALLOWLIST: new code that only a pin reaches fails
    here, and a definition retired with its pin leaves PIN_ONLY."""
    _, unreached = _walk(sorted(PACKAGE.glob("*.py")),
                         _served_roots(pins=False))
    assert unreached - set(SERVED_ALLOWLIST) == PIN_ONLY


def test_series_are_assembled_in_scalar_and_the_lambda_sum():
    """Only scalar.py forms a TSeries or MonomialSeries directly, apart from
    the packed lambda-sum and the Cauchy expansion of macdonald.py; every
    other module builds its series through SeriesBuilder or a series method,
    so the canonical form of a coefficient has one owner."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            callers |= {(path.stem, getattr(node, "name", None))
                        for child in ast.walk(node)
                        if isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Name)
                        and child.func.id in ("TSeries", "MonomialSeries")}
    assert {stem for stem, _ in callers} == {"scalar", "macdonald"}, callers
    assert {name for stem, name in callers if stem == "macdonald"} == \
        {"_lambda_sum", "_cauchy_outer_product"}, callers


def test_one_definition_maps_descent_sets_to_monomials():
    """Only labels.fundamental_expansion calls partial_sum_mask in
    src/qtnabla, so the parking sum and the label generating functions
    expand their descent-set tallies through one step."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            callers |= {(path.stem, getattr(node, "name", None))
                        for child in ast.walk(node)
                        if isinstance(child, ast.Call)
                        and "partial_sum_mask" in _names(child.func)}
    assert callers == {("labels", "fundamental_expansion")}, callers


def test_test_modules_read_every_name_they_import():
    """Each name that a tests/test_*.py module imports, at the top or inside
    a function, is read somewhere in that module, so its imports show what
    it checks."""
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names} - {"*"}
        assert not bound - _names(tree), (path.name,
                                          sorted(bound - _names(tree)))


def test_package_modules_load_neither_dataclasses_nor_inspect(child_env):
    """Every package module imports in a fresh interpreter (no site hooks)
    without loading dataclasses, or inspect, which it pulls in: a cold CLI
    run pays for each module it loads."""
    modules = ", ".join(f"qtnabla.{path.stem}"
                        for path in sorted(PACKAGE.glob("*.py"))
                        if path.stem != "__init__")
    code = (f"import sys, {modules}\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], env=child_env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_every_oracle_is_used_by_a_test():
    roots = set()
    for path in TESTS.glob("test_*.py"):
        roots |= _names(ast.parse(path.read_text()))
    _, unreached = _walk([TESTS / "oracles.py"], roots)
    assert not unreached, f"no test reaches {sorted(unreached)}"


def test_package_all_binds_every_name():
    """`from qtnabla import *` binds each name of __all__; a stale export
    raises or leaves the name unbound."""
    import qtnabla
    namespace = {}
    exec("from qtnabla import *", namespace)
    assert qtnabla.__all__
    assert not set(qtnabla.__all__) - set(namespace)
