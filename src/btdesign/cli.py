"""Command-line surface: optimize, verify, classify, scan, efficiency, scans.

Single-point commands emit JSON on stdout; grid commands emit CSV (header
row, RFC 4180 quoting).  Exit codes: 0 for success / verified optimal, 1
for verified-not-optimal or non-convergence, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import BtDesignError, Design, Pair, Parameters, information_matrix, log_det
from .four_alt import (
    ClassificationError,
    ConsistencyError,
    RegionLabel,
    classify_m4,
    claw_infeasibility_sample,
    claw_infeasibility_scan,
    region_margin,
    search_disjoint_four_point,
)
from .optimality import KwCertificate, d_efficiency, kw_check
from .regions import find_optimal_saturated
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_NOT_OPTIMAL = 1
EXIT_USAGE = 2

# The parameter line used by the efficiency study: beta = t * (1, 1/2, 5/4).
DEFAULT_EFFICIENCY_LINE = (1.0, 0.5, 1.25)


class CliError(Exception):
    """Bad input; maps to the usage exit code."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def parse_beta(text: str, m: int) -> Parameters:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError(f"could not parse beta {text!r}: {exc}") from None
    if len(values) != m - 1:
        raise CliError(f"beta must have {m - 1} entries for m={m}, got {len(values)}")
    try:
        return Parameters(m, values)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def design_to_dict(design: Design) -> dict:
    return {
        "m": design.m,
        "weights": {p.key(): w for p, w in sorted(design.weights.items())},
    }


def design_from_dict(data: dict) -> Design:
    try:
        m = int(data["m"])
        raw = {Pair.from_key(k): float(v) for k, v in data["weights"].items()}
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CliError(f"malformed design object: {exc}") from None
    total = math.fsum(raw.values())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise CliError(f"design weights must sum to 1 (got {total})")
    try:
        return Design(m, {p: w / total for p, w in raw.items()})
    except ValueError as exc:
        raise CliError(str(exc)) from None


def load_design(path: str) -> Design:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read design file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"design file {path} is not valid JSON: {exc}") from None
    return design_from_dict(data)


def certificate_to_dict(cert: KwCertificate) -> dict:
    return {
        "is_optimal": cert.is_optimal,
        "singular": cert.singular,
        "max_violation": cert.max_violation if math.isfinite(cert.max_violation) else None,
        "tolerance": cert.tolerance,
        "derivatives": {p.key(): v for p, v in sorted(cert.derivatives.items())},
        "equality_pairs": sorted(p.key() for p in cert.equality_pairs),
    }


def label_to_dict(label: RegionLabel) -> dict:
    out = {
        "kind": label.kind.value,
        "design": design_to_dict(label.design),
        "margin": region_margin(label),
        "certificate": certificate_to_dict(label.certificate),
    }
    if label.missing_pairs:
        out["missing_pairs"] = [p.key() for p in label.missing_pairs]
    if label.path is not None:
        out["path"] = list(label.path.order)
    return out


def emit_json(data: dict, stream: TextIO) -> None:
    json.dump(data, stream, indent=2, allow_nan=False)
    stream.write("\n")


# ---------------------------------------------------------------------------
# scan specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanAxis:
    """One scanned direction in parameter space with its sample range."""

    direction: tuple[float, ...]
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class ScanSpec:
    """A grid of parameter points: fixed base plus up to three scanned axes."""

    m: int
    axes: tuple[ScanAxis, ...]
    fixed: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 3:
            raise ValueError(f"a scan needs 1 to 3 axes, got {len(self.axes)}")
        for ax in self.axes:
            if ax.count < 2:
                raise ValueError("each axis needs at least 2 steps")
            if not (math.isfinite(ax.start) and math.isfinite(ax.stop)):
                raise ValueError("axis ranges must be finite")
            if len(ax.direction) != self.m - 1:
                raise ValueError(f"axis direction must have {self.m - 1} entries")
        if len(self.fixed) != self.m - 1:
            raise ValueError(f"fixed coordinates must have {self.m - 1} entries")

    def grid(self) -> Iterable[tuple[tuple[int, ...], Parameters]]:
        """Grid points in lexicographic index order."""
        axis_values = [ax.values() for ax in self.axes]
        directions = [np.asarray(ax.direction) for ax in self.axes]
        base = np.asarray(self.fixed, dtype=float)
        for idx in itertools.product(*(range(len(v)) for v in axis_values)):
            beta = base.copy()
            for a, i in enumerate(idx):
                beta += axis_values[a][i] * directions[a]
            yield idx, Parameters(self.m, tuple(beta))

    def size(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out


def scan_spec_from_dict(data: dict) -> ScanSpec:
    try:
        m = int(data["m"])
        if m != 4:
            raise CliError("scan classification is closed-form for m=4 only")
        axes = tuple(
            ScanAxis(
                direction=tuple(float(x) for x in ax["direction"]),
                start=float(ax["range"][0]),
                stop=float(ax["range"][1]),
                count=int(ax["count"]),
            )
            for ax in data["axes"]
        )
        fixed = tuple(float(x) for x in data.get("fixed", (0.0, 0.0, 0.0)))
        return ScanSpec(m=m, axes=axes, fixed=fixed)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise CliError(f"malformed scan spec: {exc}") from None


def load_scan_spec(path: str) -> ScanSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read scan spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"scan spec {path} is not valid JSON: {exc}") from None
    return scan_spec_from_dict(data)


def _scan_row(args: tuple[tuple[int, ...], Parameters]) -> tuple:
    idx, params = args
    label = classify_m4(params)
    beta = [f"{b:.12g}" for b in params.beta]
    return (*beta, label.kind.value, len(label.design.support()), f"{region_margin(label):.12g}")


def worker_count() -> int:
    """Worker cap from BTDESIGN_THREADS, defaulting to the hardware count."""
    env = os.environ.get("BTDESIGN_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise CliError(f"BTDESIGN_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise CliError("BTDESIGN_THREADS must be at least 1")
        return n
    return os.cpu_count() or 1


def run_scan(spec: ScanSpec, stream: TextIO, workers: int | None = None) -> int:
    """Classify every grid point and write CSV rows in deterministic order."""
    workers = workers if workers is not None else worker_count()
    try:
        points = list(spec.grid())
    except ValueError as exc:  # a grid point past the largest float
        raise CliError(f"bad scan grid: {exc}") from None
    writer = csv.writer(stream)
    writer.writerow([*(f"beta{i}" for i in range(1, spec.m)), "kind", "support_size", "margin"])
    if workers > 1:
        # Imported here: multiprocessing adds ~2 MB to every process that loads the CLI.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = pool.map(_scan_row, points, chunksize=max(1, len(points) // (8 * workers)))
            for row in rows:
                writer.writerow(row)
    else:
        for point in points:
            writer.writerow(_scan_row(point))
    return len(points)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_optimize(args: argparse.Namespace, stdout: TextIO) -> int:
    params = parse_beta(args.beta, args.m)
    try:
        config = SolverConfig(max_iterations=args.max_iterations, kw_tolerance=args.kw_tolerance)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    result = solve(params, config)
    report = {
        "m": params.m,
        "beta": list(params.beta),
        "design": design_to_dict(result.design),
        "support": [p.key() for p in result.design.support()],
        "log_det": log_det(information_matrix(result.design, params)),
        "certificate": certificate_to_dict(result.certificate),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if params.m == 4:
        try:
            report["region"] = label_to_dict(classify_m4(params))
        except (ClassificationError, ConsistencyError) as exc:
            report["region"] = None
            report["region_error"] = str(exc)
    emit_json(report, stdout)
    return EXIT_OK if result.converged else EXIT_NOT_OPTIMAL


def cmd_verify(args: argparse.Namespace, stdout: TextIO) -> int:
    params = parse_beta(args.beta, args.m)
    design = load_design(args.design)
    if design.m != params.m:
        raise CliError(f"design file has m={design.m} but --m is {params.m}")
    cert = kw_check(design, params)
    report = {
        "m": params.m,
        "beta": list(params.beta),
        "design": design_to_dict(design),
        "certificate": certificate_to_dict(cert),
    }
    if not cert.singular:
        report["log_det"] = log_det(information_matrix(design, params))
    emit_json(report, stdout)
    return EXIT_OK if cert.is_optimal else EXIT_NOT_OPTIMAL


def cmd_classify(args: argparse.Namespace, stdout: TextIO) -> int:
    params = parse_beta(args.beta, args.m)
    if params.m == 4:
        try:
            emit_json(label_to_dict(classify_m4(params)), stdout)
        except (ClassificationError, ConsistencyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NOT_OPTIMAL
        return EXIT_OK
    found = find_optimal_saturated(params)
    if found is not None:
        path, membership = found
        design = path.design()
        certificate = kw_check(design, params)
        report = {
            "kind": "saturated",
            "path": list(path.order),
            "design": design_to_dict(design),
            "margin": membership.margin,
            "g_values": {p.key(): v for p, v in sorted(membership.g_values.items())},
            "certificate": certificate_to_dict(certificate),
        }
        emit_json(report, stdout)
        if not certificate.is_optimal:
            print(f"error: path {list(path.order)} is not certified optimal at this point", file=sys.stderr)
            return EXIT_NOT_OPTIMAL
        return EXIT_OK
    result = solve(params)
    report = {
        "kind": "unsaturated",
        "design": design_to_dict(result.design),
        "support": [p.key() for p in result.design.support()],
        "certificate": certificate_to_dict(result.certificate),
        "converged": result.converged,
    }
    emit_json(report, stdout)
    return EXIT_OK if result.converged else EXIT_NOT_OPTIMAL


def _write_csv(text: str, path: str | None, stdout: TextIO) -> None:
    """Write a finished CSV to --output, or to stdout when no file is named.

    Callers build the whole text first, so a command that fails midway
    creates no output file.
    """
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def cmd_scan(args: argparse.Namespace, stdout: TextIO) -> int:
    spec = load_scan_spec(args.spec)
    rows = io.StringIO()
    run_scan(spec, rows, workers=args.workers or None)
    _write_csv(rows.getvalue(), args.output, stdout)
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace, stdout: TextIO) -> int:
    try:
        line = tuple(float(x) for x in args.line.split(","))
        lo, hi = (float(x) for x in args.range.split(","))
    except ValueError as exc:
        raise CliError(f"bad line or range: {exc}") from None
    if len(line) != 3:
        raise CliError("the efficiency line needs 3 coefficients (m=4)")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError("the range must be finite")
    if args.steps < 2:
        raise CliError("need at least 2 steps")

    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["beta1", "kind", "efficiency"])
    uniform = Design.uniform(4)
    for t in np.linspace(lo, hi, args.steps):
        try:
            params = Parameters(4, tuple(t * c for c in line))
        except ValueError as exc:
            raise CliError(f"bad line or range: {exc}") from None
        label = classify_m4(params)
        eff = d_efficiency(uniform, label.design, params)
        writer.writerow([f"{t:.12g}", label.kind.value, f"{eff:.12g}"])
    _write_csv(rows.getvalue(), args.output, stdout)
    return EXIT_OK


def cmd_claw_scan(args: argparse.Namespace, stdout: TextIO) -> int:
    if args.grid_points < 1 or args.samples < 1:
        raise CliError("--grid-points and --samples must be at least 1")
    if args.seed < 0:
        raise CliError("--seed must be nonnegative")
    # The claw slacks are cubic in pi: past 1e100 they overflow, below 1e-100 they underflow to 0.
    if not 1e-100 <= args.lower <= args.upper <= 1e100:
        raise CliError("need 1e-100 <= --lower <= --upper <= 1e100")
    grid = claw_infeasibility_scan(points_per_axis=args.grid_points, lower=args.lower, upper=args.upper)
    sample = claw_infeasibility_sample(n_samples=args.samples, seed=args.seed, lower=args.lower, upper=args.upper)
    report = {
        "grid": {
            "points_checked": grid.points_checked,
            "feasible_count": grid.feasible_count,
            "max_min_slack": grid.max_min_slack,
            "worst_point": list(grid.worst_point),
        },
        "random": {
            "points_checked": sample.points_checked,
            "feasible_count": sample.feasible_count,
            "max_min_slack": sample.max_min_slack,
            "worst_point": list(sample.worst_point),
        },
    }
    emit_json(report, stdout)
    feasible = grid.feasible_count + sample.feasible_count
    return EXIT_OK if feasible == 0 else EXIT_NOT_OPTIMAL


def cmd_search_disjoint4(args: argparse.Namespace, stdout: TextIO) -> int:
    if args.starts < 1:
        raise CliError("--starts must be at least 1")
    if args.seed < 0:
        raise CliError("--seed must be nonnegative")
    if not 0.0 < args.beta_scale <= sys.float_info.max / 2:
        raise CliError("--beta-scale must be positive and at most half the largest float")
    report = search_disjoint_four_point(n_starts=args.starts, seed=args.seed, beta_scale=args.beta_scale)
    emit_json(
        {
            "n_starts": report.n_starts,
            "interior_count": report.interior_count,
            "certified_count": report.certified_count,
            "best_slack": report.best_slack if math.isfinite(report.best_slack) else None,
            "best_point": list(report.best_point) if report.best_point else None,
        },
        stdout,
    )
    return EXIT_OK if report.certified_count == 0 else EXIT_NOT_OPTIMAL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 2, message on stderr
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # built once per process: building it costs more than a whole classify call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True, help="number of alternatives")
        p.add_argument("--beta", type=str, required=True, help="comma-separated m-1 log-preferences (the control is 0)")

    p = sub.add_parser("optimize", help="solve for the locally D-optimal design")
    add_point_args(p)
    p.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--kw-tolerance", type=float, default=SolverConfig.kw_tolerance)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("verify", help="check a design file against the optimality criterion")
    add_point_args(p)
    p.add_argument("--design", type=str, required=True, help="JSON design file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="identify the optimality region of a parameter point")
    add_point_args(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("scan", help="classify a parameter grid to CSV")
    p.add_argument("--spec", type=str, required=True, help="JSON scan specification")
    p.add_argument("--output", type=str, default=None, help="CSV output file (default stdout)")
    p.add_argument("--workers", type=int, default=0, help="override worker count (default BTDESIGN_THREADS)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("efficiency", help="efficiency of the uniform design along a parameter line")
    p.add_argument("--line", type=str, default=",".join(str(c) for c in DEFAULT_EFFICIENCY_LINE),
                   help="beta direction coefficients; beta = t * line")
    p.add_argument("--range", type=str, default="0,12", help="t range as lo,hi")
    p.add_argument("--steps", type=int, default=49)
    p.add_argument("--output", type=str, default=None, help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("claw-scan", help="scan the claw design's (empty) feasibility region")
    p.add_argument("--grid-points", type=int, default=100, help="grid points per axis")
    p.add_argument("--samples", type=int, default=100_000, help="random samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lower", type=float, default=1e-3)
    p.add_argument("--upper", type=float, default=1e3)
    p.set_defaults(func=cmd_claw_scan)

    p = sub.add_parser("search-disjoint4", help="randomized search of the disjoint-orbit system")
    p.add_argument("--starts", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta-scale", type=float, default=5.0)
    p.set_defaults(func=cmd_search_disjoint4)

    return parser


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    stdout = stdout or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, stdout)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BtDesignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_OPTIMAL


def console_main() -> None:
    raise SystemExit(main())
