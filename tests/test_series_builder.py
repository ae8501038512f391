"""scalar.SeriesBuilder counts each series in integers and reduces one
coefficient at a time over [n]_q!.  Every series it builds is compared, bit
for bit, with the same terms added one by one as rational functions, the
route it replaced (tests/oracles.py).  The Macdonald side counts its
lambda-sum in packed ints instead; test_macdonald checks it against the
SeriesBuilder route it replaced.  The block walk of labels.triple_series,
and of the squarefree coefficient, is compared with the per-triple route
and the permutation filter it replaced."""

import importlib
import pkgutil
from itertools import product

import pytest

import oracles
import qtnabla
from qtnabla import affine, bundles, involution, labels, omega, shuffle
from qtnabla.scalar import ONE, Q, QtScalar, SeriesBuilder, aut_q

# n, k, N at D = 4: every series is graded by t-degree, so the series at
# D = 4 holds the ones at D < 4 as truncations, which is checked at k = 1
GRID = list(product((1, 2, 3), (0, 1, 2), (1, 2, 3), (4,)))


# n, k, N, D for the single-key series, which need k >= 1 and read no N;
# (3, 2, 3, 5) is the size of the benchmark's verify-fulltwist
SINGLE = [(n, k, n, 4) for n in (1, 2, 3) for k in (1, 2)] + [(3, 2, 3, 5)]


def _single(fn):
    return lambda n, k, N, D: fn(n, k, D)


# each caller with its sizes: the grid, plus the sizes the benchmark runs
# outside it (verify-main, and the product identity of verify-bundles)
CALLERS = {
    "omega_series": (omega.omega_series, GRID + [(3, 2, 3, 5)]),
    "omega_via_xi": (omega.omega_via_xi, GRID),
    "omega_sub_y": (omega.omega_sub_y, GRID),
    "omega_sub_y_via_plethysm": (omega.omega_sub_y_via_plethysm, GRID),
    "cauchy_combinatorial": (
        lambda n, k, N, D: oracles.cauchy_combinatorial(n, N, D),
        [s for s in GRID if s[1] == 0]),
    "signed_quadruple_series": (involution.signed_quadruple_series, GRID),
    "bundle_side_series": (bundles.bundle_side_series,
                           GRID + [(n, 0, 3, 3) for n in (1, 2, 3)]),
    "fulltwist_series": (_single(omega.fulltwist_series), SINGLE),
    "fulltwist_extraction": (_single(omega.fulltwist_extraction), SINGLE),
    "hilbert_coefficient": (_single(omega.hilbert_coefficient), SINGLE),
    "raths_series": (_single(affine.raths_series), SINGLE),
    "signed_truncated_sum": (
        lambda n, k, N, D: shuffle.signed_truncated_sum(n, k, D, N),
        # the sizes of test_cancellation_check
        [(n, k, n, k * n * (n - 1) // 2 + 2) for n in (1, 2, 3)
         for k in (1, 2)]),
}

# every module of the package that binds SeriesBuilder, so that a new
# caller cannot bypass the replay
BUILDER_MODULES = [
    module for module in (importlib.import_module(f"qtnabla.{info.name}")
                          for info in pkgutil.iter_modules(qtnabla.__path__))
    if module.__name__ != "qtnabla.scalar"
    and getattr(module, "SeriesBuilder", None) is SeriesBuilder]


# the block walk of labels.triple_series against the per-triple route it
# replaced, on the grid (k = 0 included) and at three sizes past it
BLOCK_WALK = {
    "omega_series": (omega.omega_series,
                     oracles.omega_series_by_triples),
    "omega_sub_y": (omega.omega_sub_y,
                    oracles.omega_sub_y_by_triples),
    "bundle_side_series": (bundles.bundle_side_series,
                           oracles.bundle_side_series_by_triples),
    "cauchy_combinatorial": (
        lambda n, k, N, D: oracles.cauchy_combinatorial(n, N, D),
        lambda n, k, N, D: oracles.cauchy_combinatorial_by_triples(n, N, D)),
}
BLOCK_SIZES = GRID + [(3, 2, 3, 5), (4, 1, 3, 4), (4, 2, 4, 3)]


class _Replay:
    """Records the terms a caller adds, then builds them through both
    SeriesBuilder and the per-term route and checks the two agree."""

    def __init__(self, nx, ny, degree):
        self.builders = (SeriesBuilder(nx, ny, degree),
                         oracles.PerTermBuilder(nx, ny, degree))

    def add(self, *term, **kw):
        for builder in self.builders:
            builder.add(*term, **kw)

    def build(self, scale=ONE):
        fast, per_term = (builder.build(scale) for builder in self.builders)
        assert fast == per_term
        return fast


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_integer_counts_match_per_term_route(name, monkeypatch):
    build, sizes = CALLERS[name]
    with monkeypatch.context() as patch:
        for module in BUILDER_MODULES:
            patch.setattr(module, "SeriesBuilder", _Replay)
        checked = [build(*s) for s in sizes]
    for (n, k, N, D), series in zip(sizes, checked):
        for d in range(D if k == 1 else 0):
            assert build(n, k, N, d) == series.truncate(d), (n, k, N, d)


def test_replay_reaches_the_sorted_triple_walk():
    # omega_series, omega_sub_y, cauchy_combinatorial and bundle_side_series
    # build through labels.triple_series, so the replay must patch labels
    assert labels in BUILDER_MODULES


@pytest.mark.parametrize("name", sorted(BLOCK_WALK))
def test_block_walk_matches_the_per_triple_route(name):
    walk, by_triples = BLOCK_WALK[name]
    sizes = BLOCK_SIZES
    if name == "cauchy_combinatorial":  # reads no k
        sizes = sorted({(n, 0, N, D) for n, _, N, D in sizes})
    for size in sizes:
        assert walk(*size) == by_triples(*size), size


def test_permutation_walk_matches_the_filter():
    for n, k, _, D in SINGLE + [(4, 1, 4, 4), (5, 1, 5, 3)]:
        assert (omega.hilbert_coefficient(n, k, D)
                == oracles.hilbert_coefficient_by_filter(n, k, D)), (n, k, D)


def test_bundle_series_matches_symbolic_counts():
    for n, k, N, D in [s for s in GRID if s[2] <= 2] + [(3, 1, 2, 4)]:
        assert (bundles.bundle_side_series(n, k, N, D)
                == oracles.bundle_side_series_per_term(n, k, N, D))


def test_builder_mixes_sizes_signs_and_laurent_exponents():
    builder = SeriesBuilder(1, 1, 1)
    key = ((1,), (1,))
    builder.add(key, 0, -2, (2, 1), 3)
    builder.add(key, 0, 1, (), -1)
    builder.add(key, 0, 1, (), 1)
    builder.add(key, 1, 0, (2,))
    builder.add(key, 1, 0, (2,), -1)
    scale = ONE / (ONE - Q)
    got = builder.build(scale).series(key)
    assert got[0] == 3 * QtScalar.monomial(q=-2) / aut_q((2, 1)) * scale
    assert got[1].is_zero()
    assert SeriesBuilder(1, 1, 0).build().table == {}
