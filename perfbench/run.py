"""Benchmark for qtnabla, standard library only.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``cli-cold``   every command line surface in a fresh interpreter, with no
                 Macdonald disk cache;
* ``cli-cached`` the same invocations, reading H-tilde tables from a disk
                 cache that the set-up filled by running the package;
* ``enum-sweep`` library identities that never touch the Macdonald layer,
                 in this one long-lived process.

A run sets up, makes one untimed warm-up pass, then repeats timed passes
over the case list, in an order shuffled by ``--seed``, until ``--seconds``
have passed (at least two passes).  Every output is checked (checks.py).
With ``--trace 1`` the run instead makes one untraced and one traced pass
and reports the per-layer metrics (tracer.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# README sizes of every subcommand, plus the degree-5 nabla as the stretch
# case: it builds (cold) or loads (cached) every H-tilde of degree 5.
CLI_CASES = [
    ("verify-main", "--n", "3", "--k", "2", "--N", "3", "--D", "5"),
    ("verify-shuffle", "--n", "4", "--k", "1"),
    ("verify-fulltwist", "--n", "3", "--k", "2", "--D", "5", "--hilbert"),
    ("verify-involution", "--n", "3", "--k", "1", "--N", "3", "--D", "4"),
    ("verify-paff", "--n", "3", "--k", "1", "--N", "3", "--D", "3"),
    ("verify-bundles", "--n", "2", "--k", "1", "--N", "3", "--D", "4",
     "--primes", "2,3"),
    ("verify-xi", "--n", "4"),
    ("compute", "macdonald", "--lambda", "2,1"),
    ("compute", "nabla", "--n", "3", "--k", "1"),
    ("compute", "parking", "--n", "3", "--k", "2"),
    ("compute", "nabla", "--n", "5", "--k", "1"),
]
CLI_LARGEST = ("compute", "nabla", "--n", "5", "--k", "1")
CACHE_DEGREE = 5  # the highest degree any CLI case reaches

# (module, function, arguments): enumerators only, above README sizes
ENUM_CASES = [
    ("shuffle", "parking_sum", (5, 1, 5)),
    ("shuffle", "parking_sum", (6, 1, 6)),
    ("omega", "verify_xi_factoring", (3, 2, 3, 4)),
    ("omega", "verify_sub_y", (3, 1, 3, 4)),
    ("omega", "verify_fulltwist", (4, 2, 8)),
    ("omega", "verify_hilbert", (4, 1, 4)),
    ("affine", "verify_paff", (3, 1, 2, 3)),
    ("bundles", "verify_bundle_counts", (2, 2, 2, (2,), (0, 1))),
    ("bundles", "verify_bundle_counts", (2, 2, 2, (3,), (0, 1))),
    ("bundles", "verify_bundle_series", (3, 1, 2, 4)),
]
ENUM_LARGEST = ("shuffle", "parking_sum", (6, 1, 6))

WORKLOADS = ("cli-cold", "cli-cached", "enum-sweep")
MIN_PASSES = 2
SETUP_SAMPLES = {"cli-cold": 5, "cli-cached": 2, "enum-sweep": 5}
CHILD_TIMEOUT = 120

IMPORT_ALL = ("import importlib, pkgutil, qtnabla\n"
              "for m in pkgutil.iter_modules(qtnabla.__path__):\n"
              "    importlib.import_module('qtnabla.' + m.name)\n")
FILL_CACHE = IMPORT_ALL + (
    "from qtnabla.macdonald import DEFAULT_CACHE\n"
    "from qtnabla.symfunc import partitions\n"
    f"for n in range(1, {CACHE_DEGREE + 1}):\n"
    "    for lam in partitions(n):\n"
    "        DEFAULT_CACHE.get(lam)\n")


class Problems(list):
    """Check failures; any entry makes the run report correct: false."""

    def extend_for(self, label, found):
        for problem in found:
            self.append(f"{label}: {problem}")


def child_env(cache_dir=None):
    """The environment of every child: the checkout's src on the path and
    the Macdonald disk cache set only where the workload asks for it."""
    env = dict(os.environ)
    env.pop("QTNABLA_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if cache_dir is not None:
        env["QTNABLA_CACHE_DIR"] = cache_dir
    return env


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def self_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def spawn(cmd, env, out_path):
    """Run one child to its end; (wall s, cpu s, exit code or None)."""
    cpu0 = children_cpu()
    start = perf_counter()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            code = None
        else:
            code = proc.returncode
    wall = perf_counter() - start
    if code != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return wall, children_cpu() - cpu0, code


# ---------------------------------------------------------------------------
# one pass over a case list


class Pass:
    def __init__(self):
        self.walls = {}
        self.cpu = 0.0
        self.attempted = 0
        self.failed = 0

    @property
    def suite(self):
        return sum(self.walls.values())


def cli_pass(cases, env, work, problems, reference=None, trace=None):
    """Run each invocation in a fresh interpreter.  Without a reference the
    reports are checked in full and returned as the reference; with one,
    each report must equal its reference byte for byte."""
    done = Pass()
    reports = {}
    out_path = os.path.join(work, "report.json")
    for argv in cases:
        label = " ".join(argv)
        if trace is None:
            cmd = [sys.executable, "-m", "qtnabla.cli", *argv, "--format", "json"]
        else:
            spans_path = os.path.join(work, "spans.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), spans_path,
                   label, "--", *argv, "--format", "json"]
        wall, cpu, code = spawn(cmd, env, out_path)
        done.attempted += 1
        if code != 0:
            done.failed += 1
            sys.stderr.write(f"{label}: exit status {code}\n")
            continue
        done.walls[argv] = wall
        done.cpu += cpu
        with open(out_path, "rb") as fh:
            report = fh.read()
        reports[argv] = report
        if reference is None:
            problems.extend_for(label, checks.check_cli(list(argv), report.decode()))
        elif report != reference.get(argv):
            problems.append(f"{label}: report differs from the reference report")
        if trace is not None:
            trace.add_process(label, spans_path, len(report))
    return done, reports


def enum_pass(cases, problems, trace=None):
    """Call each library function in this process and check its result."""
    done = Pass()
    for module, name, args in cases:
        label = f"{name}{args}"
        fn = getattr(importlib.import_module("qtnabla." + module), name)
        if trace is not None:
            trace.spans.case = label
        call = fn if trace is None else trace.spans.traced(fn, "case")
        cpu0 = self_cpu()
        start = perf_counter()
        try:
            result = call(*args)
        except Exception:  # counted as a failed operation, run goes on
            done.attempted += 1
            done.failed += 1
            sys.stderr.write(f"{label}:\n{traceback.format_exc()}")
            continue
        end = perf_counter()
        done.walls[(module, name, args)] = end - start
        done.cpu += self_cpu() - cpu0
        done.attempted += 1
        problems.extend_for(label, checks.check_library(name, args, result))
        del result
        gc.collect()  # untimed: the next case starts without this one's garbage
    return done


class Trace:
    """Collects the spans of a traced pass and writes the trace file."""

    def __init__(self, path):
        self.spans = tracer.Tracer()
        self.self_time = {}
        self.counts = {}
        self.fh = open(path, "w")

    def _merge(self, label, spans, counts):
        self.fh.write(json.dumps({"process": label}) + "\n")
        tracer.write_spans(self.fh, spans)
        for name, value in tracer.self_times(spans).items():
            self.self_time[name] = self.self_time.get(name, 0.0) + value
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def add_process(self, label, spans_path, report_bytes):
        spans, counts = tracer.load(spans_path)
        counts = dict(counts)
        counts[tracer.REPORT_BYTES] = report_bytes
        self._merge(label, spans, counts)

    def close_in_process(self, label):
        self._merge(label, self.spans.spans, self.spans.counts)

    def metrics(self):
        self.fh.close()
        return tracer.layer_metrics(self.self_time, self.counts)


# ---------------------------------------------------------------------------
# set-up


def setup_sample(workload, work, index):
    """One set-up: start an interpreter and import every qtnabla module; for
    cli-cached also fill a fresh Macdonald disk cache.  (wall s, cache dir)"""
    if workload != "cli-cached":
        wall, _, code = spawn([sys.executable, "-c", IMPORT_ALL], child_env(),
                              os.devnull)
        return wall, None, code
    cache_dir = os.path.join(work, f"cache{index}")
    os.makedirs(cache_dir)
    wall, _, code = spawn([sys.executable, "-c", FILL_CACHE],
                          child_env(cache_dir), os.devnull)
    return wall, cache_dir, code


def expected_tables():
    return sum(len(checks.partitions(n)) for n in range(1, CACHE_DEGREE + 1))


# ---------------------------------------------------------------------------


def shuffled(cases, rng):
    order = list(cases)
    rng.shuffle(order)
    return order


def run(args, work):
    rng = random.Random(args.seed)
    problems = Problems()
    workload = args.workload
    is_cli = workload != "enum-sweep"
    cases = CLI_CASES if is_cli else ENUM_CASES
    largest = CLI_LARGEST if is_cli else ENUM_LARGEST

    setup_walls, cache_dir = [], None
    for index in range(1 if args.trace else SETUP_SAMPLES[workload]):
        wall, cache_dir, code = setup_sample(workload, work, index)
        if code != 0:
            raise RuntimeError(f"set-up exited with status {code}")
        setup_walls.append(wall)
    if cache_dir is not None:
        tables = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
        if len(tables) != expected_tables():
            problems.append(f"cache fill wrote {len(tables)} tables, "
                            f"expected {expected_tables()}")

    env = child_env(cache_dir if workload == "cli-cached" else None)
    # untimed warm-up pass; for cli-cached it runs without the cache, so its
    # reports are the cold reports the cached ones must equal byte for byte
    if is_cli:
        warm, reference = cli_pass(shuffled(cases, rng), child_env(), work, problems)
    else:
        warm = enum_pass(shuffled(cases, rng), problems)
    passes = [warm]

    def one_pass(trace=None):
        order = shuffled(cases, rng)
        if is_cli:
            return cli_pass(order, env, work, problems, reference, trace)[0]
        return enum_pass(order, problems, trace)

    if args.trace:
        plain = one_pass()
        trace = Trace(os.path.join(OUT, f"trace-{workload}-{args.seed}.jsonl"))
        if not is_cli:
            tracer.import_all()
            trace.spans.install()
        traced = one_pass(trace)
        if not is_cli:
            trace.close_in_process(workload)
        metrics = {name: (value, tracer.unit(name))
                   for name, value in trace.metrics().items()}
        passes += [plain, traced]
        overhead = traced.suite / plain.suite - 1 if plain.suite else float("nan")
        sys.stderr.write(f"tracing overhead: traced pass {traced.suite:.3f} s, "
                         f"untraced pass {plain.suite:.3f} s ({overhead:+.1%})\n")
        extra = {"untraced_suite_s": plain.suite, "traced_suite_s": traced.suite,
                 "trace_overhead": overhead}
    else:
        timed = []
        start = perf_counter()
        while len(timed) < MIN_PASSES or perf_counter() - start < args.seconds:
            timed.append(one_pass())
        passes += timed
        peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": (statistics.median(setup_walls), "s"),
            "suite_s": (statistics.median(p.suite for p in timed), "s"),
            "cpu_s": (statistics.median(p.cpu for p in timed), "s"),
            "largest_case_s": (statistics.median(p.walls.get(largest, float("nan"))
                                                 for p in timed), "s"),
            "peak_rss_mb": (peak / 1024, "MB"),
        }
        extra = {"setup_samples": setup_walls,
                 "suite_samples": [p.suite for p in timed],
                 "largest_case_samples": [p.walls.get(largest) for p in timed]}

    for problem in problems:
        sys.stderr.write(f"CHECK FAILED {problem}\n")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{workload}-{args.seed}-{int(args.trace)}.json"),
              "w") as fh:
        json.dump({**result, **extra, "passes": len(passes) - 1}, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtnabla", "__init__.py")):
        sys.stderr.write(f"no qtnabla sources under {SRC}\n")
        return 2
    os.environ.pop("QTNABLA_CACHE_DIR", None)  # before this process imports qtnabla
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
