"""The btdesign benchmark: three workloads, end-to-end metrics and a traced run.

Run it from the root of a checkout; the program is imported from ``./src``:

    python3 bench/run.py --workload m4-classify --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json and bench/NOTES.md):

* ``m4-classify``: ``run_scan`` over a cube grid on [-4, 4]^3, once with one
  worker and once with the default worker count, plus single
  ``classify_m4`` calls at seeded points uniform in [-8, 8]^3.
* ``solve-verify``: ``solve`` at seeded points for m = 4, 5, 6, 8 with beta
  uniform in [-6, 6]; then every non-path spanning-tree design is refuted
  with ``kw_check`` at each point with m <= 6.
* ``anym-classify``: ``btdesign classify`` through ``cli.main`` in-process at
  m = 5, 6, 7; three quarters of the points are sampled inside a known
  path's region, the rest uniformly.

With ``--trace 0`` the workload runs in rounds until ``--seconds`` have
passed and the end-to-end metrics are reported.  With ``--trace 1`` a fixed
amount of work, set by the seed alone, runs once untraced and once with every
layer function wrapped (bench/spans.py), and the per-layer metrics are
reported; counts in that run repeat exactly for a fixed seed.  Output checks
run outside the timed regions.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every timing is expressed at a reference host speed: a fixed kernel that
does not use btdesign runs every ``PROBE_EVERY_S`` seconds between timed
operations, and each interval is scaled by ``REFERENCE_KERNEL_S`` over the
kernel's time around it.  The shared host this was built on changes speed
by half or more over tens of seconds; the scaling cancels that, and the raw
figures are printed on stderr.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from measure import Attempts, grid_digest, quantile  # noqa: E402
from spans import OBSERVERS, Tracer, layer_metrics  # noqa: E402

# Set-up (fresh import plus one warm-up call per entry function) is repeated
# this many times and the median is reported.
SETUP_REPS = 5
# Rounds continue past --seconds until this many single calls were timed, so
# that at least ten samples lie beyond the reported p90.
MIN_CALLS = 100
# Seconds the reference kernel takes on a quiet 2-core Xeon (2.0 GHz) host.
REFERENCE_KERNEL_S = 0.003
PROBE_EVERY_S = 0.25

perf = time.perf_counter
_KERNEL_MATRIX = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.8]])


def reference_kernel() -> float:
    """Fixed work like the program's: small-matrix numpy calls and plain Python."""
    acc = 0.0
    for _ in range(200):
        L = np.linalg.cholesky(_KERNEL_MATRIX)
        acc += float(np.log(np.diag(L)).sum())
        acc += sum({i: i * 0.5 for i in range(20)}.values())
    return acc


class SpeedProbe:
    """Host speed over time, from the reference kernel run between timed operations."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []

    def run(self) -> None:
        t0 = perf()
        reference_kernel()
        t1 = perf()
        self.times.append(0.5 * (t0 + t1))
        self.factors.append(REFERENCE_KERNEL_S / (t1 - t0))

    def between(self) -> None:
        """Probe if the last probe is older than PROBE_EVERY_S."""
        if not self.times or perf() - self.times[-1] >= PROBE_EVERY_S:
            self.run()

    def seconds(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1] in reference seconds.

        The scale is the mean factor of the probes inside the interval and
        the nearest probe on each side of it.
        """
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        return (t1 - t0) * statistics.fmean(self.factors[lo:hi + 1])


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path, or exit nonzero."""
    src = Path.cwd() / "src"
    if not (src / "btdesign" / "__init__.py").is_file():
        sys.exit(f"error: no btdesign sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))


def fresh_import() -> SimpleNamespace:
    """Import btdesign anew, dropping any earlier import (caches included)."""
    for name in [n for n in sys.modules if n == "btdesign" or n.startswith("btdesign.")]:
        del sys.modules[name]
    bt = importlib.import_module("btdesign")
    return SimpleNamespace(bt=bt, cli=importlib.import_module("btdesign.cli"))


def beta_arg(beta) -> str:
    return "--beta=" + ",".join(repr(float(b)) for b in beta)


class Workload:
    """Timing records shared by the workloads.

    ``main`` and ``bulk`` hold one entry per round: the number of items
    processed and the wall intervals spent on them.  ``AGGREGATE`` says how
    rounds combine into a rate: ``"median"`` of the per-round rates, or
    ``"total"`` items over total time.
    """

    AGGREGATE = "median"

    def __init__(self) -> None:
        self.attempts = Attempts()
        self.problems: list[str] = []
        self.probe = SpeedProbe()
        self.cursor = 0
        self.latencies: list[tuple[float, float]] = []
        self.main: list[tuple[int, list]] = []
        self.bulk: list[tuple[int, list]] = []
        self.bytes_out = 0

    def timed(self, fn, *args, ok=lambda _: True, **kwargs):
        """Call fn between speed probes; returns its result (None on failure) and interval."""
        self.probe.between()
        t0 = perf()
        result = self.attempts.call(fn, *args, ok=ok, **kwargs)
        return result, (t0, perf())

    def setup(self) -> tuple[float, SimpleNamespace]:
        intervals = []
        for _ in range(SETUP_REPS):
            self.probe.run()
            t0 = perf()
            mods = fresh_import()
            self.warm_up(mods)
            intervals.append((t0, perf()))
        self.probe.run()
        return statistics.median(self.probe.seconds(*iv) for iv in intervals), mods

    def run(self, mods, seconds: float) -> None:
        self.probe.run()
        deadline = perf() + seconds
        while True:
            self.round(mods)
            if perf() >= deadline and len(self.latencies) >= MIN_CALLS:
                break
        self.probe.run()

    def rate(self, rounds: list[tuple[int, list]], aggregate: str | None = None) -> float:
        per_round = [(n, sum(self.probe.seconds(*iv) for iv in ivs)) for n, ivs in rounds]
        if (aggregate or self.AGGREGATE) == "median":
            return statistics.median(n / s for n, s in per_round)
        return sum(n for n, _ in per_round) / sum(s for _, s in per_round)

    @staticmethod
    def raw_rate(rounds: list[tuple[int, list]]) -> float:
        return sum(n for n, _ in rounds) / sum(t1 - t0 for _, ivs in rounds for t0, t1 in ivs)

    def latency_ms(self) -> list[float]:
        return [1e3 * self.probe.seconds(*iv) for iv in self.latencies]

    def reset(self) -> None:
        self.cursor = 0
        self.latencies, self.main, self.bulk, self.bytes_out = [], [], [], 0

    def prepare(self, mods) -> None:
        """Build inputs that need the program's types, after set-up."""

    def check(self, mods) -> list[str]:
        """Output checks that run after the timed work; returns the failures."""
        return self.problems


# ---------------------------------------------------------------------------
# m4-classify
# ---------------------------------------------------------------------------

GRID_COUNT = 13  # points per axis of the [-4, 4]^3 scan grid
SINGLES_PER_ROUND = 300
TRACED_SINGLES = 1000


class M4Classify(Workload):
    """Bulk grid scans beside single classify_m4 calls."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.points = rng.uniform(-8.0, 8.0, size=(20_000, 3))
        self.reference_csv: str | None = None
        self.expected_digest = json.loads((BENCH_DIR / "expected.json").read_text())["m4_grid_digest"]

    @staticmethod
    def spec(cli, count: int = GRID_COUNT):
        axes = tuple(
            cli.ScanAxis(direction=tuple(float(i == k) for k in range(3)), start=-4.0, stop=4.0, count=count)
            for i in range(3)
        )
        return cli.ScanSpec(m=4, axes=axes, fixed=(0.0, 0.0, 0.0))

    def warm_up(self, mods) -> None:
        mods.cli.run_scan(self.spec(mods.cli, 2), io.StringIO(), workers=1)
        mods.bt.classify_m4(mods.bt.Parameters(4, (0.5, 0.25, -0.5)))

    def grid_pass(self, mods, workers: int | None) -> tuple[int, list]:
        """One scan of the grid; returns the point count and the interval."""
        spec = self.spec(mods.cli)
        sink = io.StringIO()
        rows, interval = self.timed(mods.cli.run_scan, spec, sink, workers=workers)
        text = sink.getvalue()
        self.bytes_out += len(text)
        self.check_grid(text, rows, spec.size())
        return spec.size(), [interval]

    def check_grid(self, text: str, rows: int | None, size: int) -> None:
        if rows != size or text.count("\n") != size + 1:
            self.problems.append(f"grid scan wrote {rows} rows, expected {size}")
        elif self.reference_csv is None:
            if grid_digest(text) != self.expected_digest:
                self.problems.append("grid kind/support_size digest differs from bench/expected.json")
            self.reference_csv = text
        elif text != self.reference_csv:
            self.problems.append("a grid scan wrote different CSV from the first serial scan")

    def singles(self, mods, n: int) -> None:
        bt = mods.bt
        certified = lambda label: label.certificate.is_optimal  # noqa: E731
        for _ in range(n):
            beta = tuple(self.points[self.cursor % len(self.points)])
            self.cursor += 1
            _, interval = self.timed(lambda: bt.classify_m4(bt.Parameters(4, beta)), ok=certified)
            self.latencies.append(interval)

    def round(self, mods) -> None:
        self.main.append(self.grid_pass(mods, workers=1))
        self.bulk.append(self.grid_pass(mods, workers=None))
        self.singles(mods, SINGLES_PER_ROUND)

    def fixed(self, mods) -> None:
        self.main.append(self.grid_pass(mods, workers=1))
        self.singles(mods, TRACED_SINGLES)


# ---------------------------------------------------------------------------
# solve-verify
# ---------------------------------------------------------------------------

SOLVE_MS = (4, 5, 6, 8)
REFUTE_MAX_M = 6
# A round solves one point per m.  Solve times are heavy-tailed, so many
# small rounds with a median rate are steadier than a few large ones.
# Every REFUTE_EVERY-th round also refutes the trees at its points, which
# keeps most of the run on solves while the deterministic refutation still
# gets enough rounds for a steady rate.
REFUTE_EVERY = 4
TRACED_ROUNDS = 12
LOG_DET_TOL = 1e-7  # agreement of solve with the closed form at m = 4


def halton(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n Halton points in [0, 1)^dim with a random start index and a random shift mod 1.

    Each point is uniform on the cube, as an independent draw would be, but
    the set covers it evenly.  Solve times have a heavy tail (points near a
    region boundary converge slowly), and even coverage keeps the share of
    such points, and with it the timing percentiles, steady from seed to seed.
    """
    primes = (2, 3, 5, 7, 11, 13, 17)
    index = rng.integers(1, 2**20) + np.arange(n)
    out = np.empty((n, dim))
    for k in range(dim):
        i, f, r = index.copy(), 1.0, np.zeros(n)
        while i.any():
            f /= primes[k]
            r += f * (i % primes[k])
            i //= primes[k]
        out[:, k] = r
    return (out + rng.random(dim)) % 1.0


def labeled_trees(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Edge lists of all m^(m-2) labeled trees on 1..m, decoded from Pruefer codes.

    The refuted designs are generated here, not by btdesign's own tree
    enumeration, so the program receives only inputs.
    """
    trees = []
    for code in itertools.product(range(1, m + 1), repeat=m - 2):
        degree = [1] * (m + 1)
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = next(u for u in range(1, m + 1) if degree[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (x for x in range(1, m + 1) if degree[x] == 1)
        edges.append((u, w))
        trees.append(tuple(sorted(edges)))
    return trees


def is_path_tree(edges) -> bool:
    degree: dict[int, int] = {}
    for i, j in edges:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    return max(degree.values()) <= 2


class SolveVerify(Workload):
    """Iterative solves at m = 4..8, then bulk refutation of non-path trees."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.points = {m: -6.0 + 12.0 * halton(2_000, m - 1, rng) for m in SOLVE_MS}
        self.m4_solutions: list = []
        self.certified_trees = 0

    def warm_up(self, mods) -> None:
        bt = mods.bt
        params = bt.Parameters(4, (0.5, 0.25, -0.5))
        bt.kw_check(bt.solve(params).design, params)

    def prepare(self, mods) -> None:
        bt = mods.bt
        self.trees = {
            m: [bt.Design.equal_on(m, [bt.Pair(i, j) for i, j in edges])
                for edges in labeled_trees(m) if not is_path_tree(edges)]
            for m in SOLVE_MS if m <= REFUTE_MAX_M
        }

    def round(self, mods) -> None:
        bt = mods.bt
        converged = lambda result: result.converged  # noqa: E731
        points, intervals = [], []
        for m in SOLVE_MS:
            params = bt.Parameters(m, tuple(self.points[m][self.cursor % len(self.points[m])]))
            result, interval = self.timed(bt.solve, params, ok=converged)
            self.latencies.append(interval)
            intervals.append(interval)
            points.append(params)
            if m == 4 and result is not None:
                self.m4_solutions.append((params, result.design))
        self.main.append((len(intervals), intervals))
        self.cursor += 1
        if self.cursor % REFUTE_EVERY == 1:
            self.refute(bt, [p for p in points if p.m <= REFUTE_MAX_M])

    def refute(self, bt, points) -> None:
        """kw_check every non-path spanning-tree design at each point; all must fail."""
        checks, intervals = 0, []
        for params in points:
            self.probe.between()
            t0 = perf()
            for design in self.trees[params.m]:
                cert = self.attempts.call(bt.kw_check, design, params)
                self.certified_trees += cert is not None and cert.is_optimal
            intervals.append((t0, perf()))
            checks += len(self.trees[params.m])
        self.bulk.append((checks, intervals))

    def fixed(self, mods) -> None:
        for _ in range(TRACED_ROUNDS):
            self.round(mods)

    def check(self, mods) -> list[str]:
        bt = mods.bt
        problems = list(super().check(mods))
        if self.certified_trees:
            problems.append(f"{self.certified_trees} non-path spanning-tree designs were certified optimal")
        worst = 0.0
        for params, design in self.m4_solutions:
            label = bt.classify_m4(params)
            gap = abs(bt.log_det(bt.information_matrix(label.design, params))
                      - bt.log_det(bt.information_matrix(design, params)))
            worst = max(worst, gap)
        if worst > LOG_DET_TOL:
            problems.append(f"m=4 solve and classify_m4 log det differ by {worst:.3e} > {LOG_DET_TOL:g}")
        return problems


# ---------------------------------------------------------------------------
# anym-classify
# ---------------------------------------------------------------------------

# One round of CLI classify calls: 5 at m = 5, 12 at m = 6, 3 at m = 7.  The
# shares put the median inside the m = 6 in-region calls and p90 inside the
# m = 7 in-region calls, whose costs are nearly fixed, instead of on a gap
# between two groups, where a percentile jumps with the point mix.
ANYM_BLOCK = (6, 5, 6, 6, 7, 6, 5, 6, 6, 7, 6, 5, 6, 6, 7, 6, 5, 6, 6, 5)
ANYM_INPUT_ROUNDS = 20  # rounds of distinct inputs; later rounds reuse them
UNIFORM_EVERY = 4  # at each m, every fourth call uses a uniform point
# The re-verification of a round's designs takes milliseconds; repeating it
# gives the bulk rate enough time to measure.
REVERIFY_REPEATS = 100


def intensity(z: np.ndarray) -> np.ndarray:
    a = np.exp(-np.abs(z))
    return a / (1.0 + a) ** 2


def path_region_margin(order: tuple[int, ...], beta_full: np.ndarray) -> float:
    """Largest g(i, j) - 1 over non-adjacent pairs of the path (inside when <= 0).

    Computed here rather than by btdesign, so that the check that an
    in-region point gets its own path back does not trust the code under test.
    """
    v = beta_full[np.asarray(order) - 1]
    prefix = np.concatenate([[0.0], np.cumsum(1.0 / intensity(np.diff(v)))])
    worst = -np.inf
    for a in range(len(v)):
        for b in range(a + 2, len(v)):
            worst = max(worst, intensity(v[a] - v[b]) * (prefix[b] - prefix[a]) - 1.0)
    return worst


def sample_in_path_region(rng: np.random.Generator, m: int) -> tuple[tuple[int, ...], np.ndarray]:
    """A random path and a point strictly inside its saturated region.

    The path's vertices are spaced along a descending preference scale with
    noise, and the proposal is kept only when every region inequality holds
    with room to spare.  Returns the path with its lower-numbered end first
    and the m - 1 free log-preferences.
    """
    while True:
        order = tuple(int(v) + 1 for v in rng.permutation(m))
        c = rng.uniform(2.0, 5.5)
        values = np.empty(m)
        for k, v in enumerate(order):
            values[v - 1] = (m - k) * c + rng.uniform(-0.35 * c, 0.35 * c)
        beta_full = values - values[m - 1]
        if path_region_margin(order, beta_full) < -1e-6:
            canonical = order if order[0] < order[-1] else order[::-1]
            return canonical, beta_full[:-1]


class AnymClassify(Workload):
    """CLI classify at m = 5..7: path search first, solver on a miss."""

    AGGREGATE = "total"

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.calls = []
        seen = {m: 0 for m in ANYM_BLOCK}
        for m in ANYM_BLOCK * ANYM_INPUT_ROUNDS:
            seen[m] += 1
            if seen[m] % UNIFORM_EVERY == 0:
                self.calls.append((m, None, rng.uniform(-6.0, 6.0, m - 1)))
            else:
                self.calls.append((m, *sample_in_path_region(rng, m)))

    def warm_up(self, mods) -> None:
        m, _, beta = self.calls[0]
        mods.cli.main(["classify", "--m", str(m), beta_arg(beta)], stdout=io.StringIO())

    def classify_calls(self, mods, calls) -> None:
        found, intervals = [], []
        for m, order, beta in calls:
            out = io.StringIO()
            _, interval = self.timed(mods.cli.main, ["classify", "--m", str(m), beta_arg(beta)],
                                     stdout=out, ok=lambda code: code == 0)
            self.latencies.append(interval)
            intervals.append(interval)
            self.bytes_out += len(out.getvalue())
            found.append(self.check_report(mods, m, order, beta, out.getvalue()))
        self.main.append((len(calls), intervals))

        certified = lambda cert: cert.is_optimal  # noqa: E731
        found = [(d, p) for d, p in found if d is not None]
        self.probe.between()
        t0 = perf()
        for _ in range(REVERIFY_REPEATS):
            for design, params in found:
                self.attempts.call(mods.bt.kw_check, design, params, ok=certified)
        self.bulk.append((REVERIFY_REPEATS * len(found), [(t0, perf())]))

    def check_report(self, mods, m, order, beta, text):
        """Output checks on one CLI report; returns the design and point to re-verify."""
        bt = mods.bt
        try:
            report = json.loads(text)
            design = bt.Design(m, {bt.Pair.from_key(k): w for k, w in report["design"]["weights"].items()})
        except (ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"m={m}: unreadable classify output ({exc})")
            return None, None
        if not report["certificate"]["is_optimal"]:
            self.problems.append(f"m={m} beta={[float(b) for b in beta]}: certificate does not report is_optimal")
        if order is not None and (report["kind"] != "saturated" or tuple(report.get("path", ())) != order):
            self.problems.append(f"m={m}: in-region point of path {order} classified as {report.get('path')}")
        return design, bt.Parameters(m, tuple(beta))

    def next_block(self):
        block = [self.calls[(self.cursor + i) % len(self.calls)] for i in range(len(ANYM_BLOCK))]
        self.cursor += len(ANYM_BLOCK)
        return block

    def round(self, mods) -> None:
        self.classify_calls(mods, self.next_block())

    def fixed(self, mods) -> None:
        self.classify_calls(mods, self.next_block())


WORKLOADS = {"m4-classify": M4Classify, "solve-verify": SolveVerify, "anym-classify": AnymClassify}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def end_to_end(workload: Workload, mods, seconds: float, setup_s: float) -> dict[str, tuple[float, str]]:
    workload.run(mods, seconds)
    latencies = workload.latency_ms()
    print(f"raw: points_per_s {workload.raw_rate(workload.main):.6g}, "
          f"bulk_per_s {workload.raw_rate(workload.bulk):.6g}, "
          f"speed factor median {statistics.median(workload.probe.factors):.4f} "
          f"over {len(workload.probe.factors)} probes", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (workload.rate(workload.main), "1/s"),
        "bulk_per_s": (workload.rate(workload.bulk), "1/s"),
        "latency_p50_ms": (quantile(latencies, 0.5), "ms"),
        "latency_p90_ms": (quantile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload: Workload, mods) -> dict[str, tuple[float, str]]:
    """Fixed work untraced, then the same work traced; layer metrics from the spans.

    Span times are scaled to the reference speed by the probes' mean factor
    over the traced pass.
    """
    rates = []
    tracer = Tracer()
    for traced in (False, True):
        workload.reset()
        workload.probe.run()
        if traced:
            tracer.install("btdesign", OBSERVERS)
        t0 = perf()
        try:
            workload.fixed(mods)
        finally:
            tracer.uninstall()
        t1 = perf()
        workload.probe.run()
        rates.append(workload.rate(workload.main, "total"))
    scale = workload.probe.seconds(t0, t1) / (t1 - t0)
    metrics = {name: (value * scale if unit in ("s", "us") else value, unit)
               for name, (value, unit) in layer_metrics(tracer, mods.bt.KW_TOLERANCE).items()}
    metrics["cli.bytes_out"] = (workload.bytes_out, "count")
    metrics["trace.overhead_ratio"] = (rates[1] / rates[0], "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s, mods = workload.setup()
    workload.prepare(mods)
    if args.trace:
        metrics = per_layer(workload, mods)
    else:
        metrics = end_to_end(workload, mods, args.seconds, setup_s)
    problems = workload.check(mods)
    for line in problems + workload.attempts.errors:
        print(f"check: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": workload.attempts.attempted,
        "failed": workload.attempts.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
