"""Command-line surface: optimize, verify, classify, scan, efficiency, search-disjoint4.

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
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import BtDesignError, Design, Pair, Parameters, all_pairs, information_matrix, log_det
from .four_alt import classify_m4, search_disjoint_four_point
from .optimality import KW_TOLERANCE, KwCertificate, d_efficiency, kw_check
from .regions import RegionKind, RegionLabel, find_optimal_saturated, region_margin
from .solver import MAX_ITERATIONS, solve

EXIT_OK = 0
EXIT_NOT_OPTIMAL = 1
EXIT_USAGE = 2

# The parameter line used by the efficiency study: beta = t * (1, 1/2, 5/4).
DEFAULT_EFFICIENCY_LINE = (1.0, 0.5, 1.25)
# The most points or starts one command evaluates: scan grid size,
# efficiency steps, disjoint starts.  It admits every default (the 100 000
# disjoint starts are the largest) and the 51^3 figure grid.  At the bound
# search-disjoint4 peaks about 7 MB above the 37 MB of the imports (it
# draws and solves the points in blocks).  A scan draws its points one at
# a time and holds the CSV text, about 65 bytes per point; in a parallel
# scan the parent holds that text and each worker holds the rows of the one
# index range it is scanning.
MAX_POINTS = 1_000_000
# The most alternatives a point command reads.  Every command builds the
# dense pairs-by-(m - 1) regression matrix, O(m^3) memory, before it can
# refuse a point.  At m = 200 an in-process classify peaks at 99 MB on the
# path route and at 360 MB when the solver runs (111 s on a 2-core host);
# at m = 1000 the matrix alone needs about 4 GB.
MAX_ALTERNATIVES = 200
# Contiguous index ranges per worker in a parallel scan.  More than one
# keeps a block of slow points from idling the other workers.  On a 2-core
# host 1, 2, 4 and 8 per worker timed alike (within 4 %) on the 13^3 and
# 51^3 grids on [-4, 4]^3; on the 25^3 grid on [-60, 60]^3, where tied
# points take the exact pass, 1 and 2 per worker took 8 % and 4 % longer.
RANGES_PER_WORKER = 4


class CliError(Exception):
    """Bad input; maps to the usage exit code."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def parse_beta(text: str, m: int) -> Parameters:
    if m < 2:
        raise CliError(f"need at least two alternatives, got m={m}")
    if m > MAX_ALTERNATIVES:
        raise CliError(f"at most {MAX_ALTERNATIVES} alternatives, got m={m}")
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


@functools.cache
def _pair_keys(m: int) -> tuple[str, ...]:
    """The "i-j" keys of all_pairs(m), in that order."""
    return tuple(p.key() for p in all_pairs(m))


def design_to_dict(design: Design) -> dict:
    return {"m": design.m, "weights": {k: x for k, x in zip(_pair_keys(design.m), design.w.tolist()) if x != 0.0}}


def _json_int(value, what: str) -> int:
    """value when it is a JSON integer; a float such as 4.0 or 4.9, a bool or a string such as "4" is a usage error."""
    if type(value) is not int:
        raise CliError(f"{what} must be a JSON integer, got {json.dumps(value)}")
    return value


def _json_number(value, what: str) -> float:
    """value as a float when it is a JSON number; a bool or a string such as "0.5" is a usage error."""
    if type(value) not in (int, float):
        raise CliError(f"{what} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def design_from_dict(data: dict, m: int) -> Design:
    """The design a JSON object describes; it must be a design for m alternatives.

    m is checked before any pair table is built, so a junk "m" such as 1e300
    is a usage error, not an attempt to list its pairs.
    """
    try:
        given = _json_int(data["m"], 'design "m"')
        raw = {}
        for k, v in data["weights"].items():
            pair = Pair.from_key(k)
            if pair in raw:
                raise CliError(f"design weights name the pair {pair.key()} twice")
            raw[pair] = _json_number(v, f"design weight {json.dumps(k)}")
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CliError(f"malformed design object: {exc}") from None
    if given != m:
        raise CliError(f"design file has m={data['m']} but --m is {m}")
    # fsum raises on inf + -inf; any non-finite weight leaves no sum.
    total = math.fsum(raw.values()) if all(map(math.isfinite, raw.values())) else math.nan
    if not math.isfinite(total) or abs(total - 1.0) > 1e-6:
        raise CliError(f"design weights must sum to 1 (got {total})")
    try:
        return Design(m, {p: w / total for p, w in raw.items()})
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _read_json(path: str, what: str):
    """The JSON value in a file; a file that cannot be read or parsed, or repeats a key, is a usage error."""

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise CliError(f"{what} {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{what} {path} is not valid JSON: {exc}") from None


def load_design(path: str, m: int) -> Design:
    return design_from_dict(_read_json(path, "design file"), m)


def certificate_to_dict(cert: KwCertificate, m: int) -> dict:
    keys = _pair_keys(m)
    equal = np.flatnonzero(np.abs(cert.derivatives) <= cert.tolerance).tolist()
    return {
        "is_optimal": cert.is_optimal,
        "singular": cert.singular,
        "max_violation": cert.max_violation if math.isfinite(cert.max_violation) else None,
        "tolerance": cert.tolerance,
        "derivatives": dict(zip(keys, cert.derivatives.tolist())),  # in all_pairs order; empty if singular
        "equality_pairs": sorted(keys[k] for k in equal),
    }


def label_to_dict(label: RegionLabel) -> dict:
    margin = region_margin(label)
    out = {
        "kind": label.kind.value,
        "design": design_to_dict(label.design),
        "margin": margin if math.isfinite(margin) else None,
        "certificate": certificate_to_dict(label.certificate, label.design.m),
    }
    if label.missing_pairs:
        out["missing_pairs"] = [p.key() for p in label.missing_pairs]
    if label.path is not None:
        out["path"] = list(label.path.order)
    return out


def emit_json(data: dict, stream: TextIO) -> None:
    """One line of JSON; json.dumps without indent runs the C encoder."""
    stream.write(json.dumps(data, allow_nan=False) + "\n")


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
        # Near the largest float, linspace's last sample can round past it to
        # inf, which Parameters then rejects; numpy's warning would only repeat that.
        with np.errstate(over="ignore"):
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
            if not (math.isfinite(ax.start) and math.isfinite(ax.stop - ax.start)):
                raise ValueError("axis ranges must be finite, and so must their widths")
            if len(ax.direction) != self.m - 1:
                raise ValueError(f"axis direction must have {self.m - 1} entries")
        if len(self.fixed) != self.m - 1:
            raise ValueError(f"fixed coordinates must have {self.m - 1} entries")
        if self.size() > MAX_POINTS:
            raise ValueError(f"the grid has {self.size()} points, more than {MAX_POINTS}")

    def grid(self, start: int = 0, stop: int | None = None) -> Iterable[tuple[tuple[int, ...], Parameters]]:
        """Grid points start..stop-1 in lexicographic index order, drawn lazily.

        Points before start are skipped as index tuples, so no Parameters
        is built for them, and every beta is the one the whole grid gives.
        The sums run on Python floats: past the largest float they give
        inf, which Parameters rejects (raised here as CliError), and numpy
        prints no overflow warning.
        """
        axis_values = [ax.values().tolist() for ax in self.axes]
        base = [float(x) for x in self.fixed]
        indices = itertools.product(*(range(len(v)) for v in axis_values))
        for idx in itertools.islice(indices, start, stop):
            beta = base
            for ax, values, i in zip(self.axes, axis_values, idx):
                beta = [b + values[i] * c for b, c in zip(beta, ax.direction)]
            try:
                params = Parameters(self.m, tuple(beta))
            except ValueError as exc:
                raise CliError(f"bad scan grid: {exc}") from None
            yield idx, params

    def size(self) -> int:
        out = 1
        for ax in self.axes:
            out *= ax.count
        return out


def scan_spec_from_dict(data: dict) -> ScanSpec:
    try:
        m = _json_int(data["m"], 'scan spec "m"')
        if m != 4:
            raise CliError("scan classification is closed-form for m=4 only")
        axes = tuple(
            ScanAxis(
                direction=tuple(_json_number(x, 'axis "direction" entry') for x in ax["direction"]),
                start=_json_number(ax["range"][0], 'axis "range" entry'),
                stop=_json_number(ax["range"][1], 'axis "range" entry'),
                count=_json_int(ax["count"], 'axis "count"'),
            )
            for ax in data["axes"]
        )
        fixed = tuple(_json_number(x, 'scan spec "fixed" entry') for x in data.get("fixed", (0.0, 0.0, 0.0)))
        return ScanSpec(m=m, axes=axes, fixed=fixed)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise CliError(f"malformed scan spec: {exc}") from None


def load_scan_spec(path: str) -> ScanSpec:
    return scan_spec_from_dict(_read_json(path, "scan spec"))


def _scan_rows(spec: ScanSpec, start: int, stop: int) -> str:
    """The CSV rows of grid points start..stop-1, as run_scan writes them."""
    rows = io.StringIO()
    writer = csv.writer(rows)
    for _, params in spec.grid(start, stop):
        label = classify_m4(params)
        beta = [f"{b:.12g}" for b in params.beta]
        writer.writerow((*beta, label.kind.value, len(label.design.support()), f"{region_margin(label):.12g}"))
    return rows.getvalue()


def run_scan(spec: ScanSpec, stream: TextIO, workers: int | None = None) -> int:
    """Classify every grid point and write CSV rows in deterministic order.

    The scan runs on min(workers, CPU count) processes, all of them when
    workers is None.  The grid is split into RANGES_PER_WORKER contiguous
    index ranges per worker; one worker scans them in-process, several each
    scan some and send back their CSV text.  The texts are written in index
    order, so the bytes do not depend on the worker count.
    """
    if workers is not None and workers < 1:
        raise CliError(f"--workers must be at least 1, got {workers}")
    cpu = os.cpu_count() or 1
    workers = min(workers or cpu, cpu)
    csv.writer(stream).writerow([*(f"beta{i}" for i in range(1, spec.m)), "kind", "support_size", "margin"])
    n, ranges = spec.size(), RANGES_PER_WORKER * workers
    bounds = [n * k // ranges for k in range(ranges + 1)]
    args = (itertools.repeat(spec), bounds[:-1], bounds[1:])
    if workers == 1:
        stream.writelines(map(_scan_rows, *args))
    else:
        # Imported here: multiprocessing adds ~2 MB to every process that loads the CLI.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                stream.writelines(pool.map(_scan_rows, *args))
            except BaseException:
                pool.shutdown(cancel_futures=True)  # start no range after a failed one
                raise
    return spec.size()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_optimize(args: argparse.Namespace, stdout: TextIO) -> int:
    params = parse_beta(args.beta, args.m)
    if args.max_iterations < 1:
        raise CliError("--max-iterations must be at least 1")
    result = solve(params, max_iterations=args.max_iterations)
    report = {
        "m": params.m,
        "beta": list(params.beta),
        "design": design_to_dict(result.design),
        "support": [p.key() for p in result.design.support()],
        "log_det": log_det(information_matrix(result.design, params)),
        "certificate": certificate_to_dict(result.certificate, params.m),
        "iterations": result.iterations,
        "converged": result.converged,
    }
    emit_json(report, stdout)
    return EXIT_OK if result.converged else EXIT_NOT_OPTIMAL


def cmd_verify(args: argparse.Namespace, stdout: TextIO) -> int:
    params = parse_beta(args.beta, args.m)
    design = load_design(args.design, params.m)
    cert = kw_check(design, params)
    report = {
        "m": params.m,
        "beta": list(params.beta),
        "design": design_to_dict(design),
        "certificate": certificate_to_dict(cert, params.m),
    }
    if not cert.singular:
        report["log_det"] = log_det(information_matrix(design, params))
    emit_json(report, stdout)
    return EXIT_OK if cert.is_optimal else EXIT_NOT_OPTIMAL


def _answer(params: Parameters) -> RegionLabel:
    """The design at beta with its certificate, from the first route that applies.

    The m = 4 closed forms; else the sorted-beta path when beta is in its
    region, certified from the region's own g values; else the solver, whose
    answer is the unsaturated kind.
    """
    if params.m == 4:
        return classify_m4(params)
    label = find_optimal_saturated(params)
    if label is None:
        result = solve(params)
        label = RegionLabel(RegionKind.UNSATURATED, result.design, result.certificate)
    return label


def cmd_classify(args: argparse.Namespace, stdout: TextIO) -> int:
    label = _answer(parse_beta(args.beta, args.m))
    report = label_to_dict(label)
    if label.kind is RegionKind.UNSATURATED:
        report["support"] = [p.key() for p in label.design.support()]
        report["converged"] = label.certificate.is_optimal
    emit_json(report, stdout)
    if not label.certificate.is_optimal:
        print(f"error: the {label.kind.value} design is not certified optimal at this point", file=sys.stderr)
        return EXIT_NOT_OPTIMAL
    return EXIT_OK


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
    run_scan(spec, rows, workers=args.workers)
    _write_csv(rows.getvalue(), args.output, stdout)
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace, stdout: TextIO) -> int:
    try:
        line = tuple(float(x) for x in args.line.split(","))
        lo, hi = (float(x) for x in args.range.split(","))
        axis = ScanAxis(line, lo, hi, args.steps)
        spec = ScanSpec(m=4, axes=(axis,), fixed=(0.0, 0.0, 0.0))
    except ValueError as exc:
        raise CliError(f"bad line, range or steps: {exc}") from None

    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(["beta1", "kind", "efficiency"])
    uniform = Design.uniform(4)
    t = axis.values().tolist()
    for (i,), params in spec.grid():
        label = classify_m4(params)
        eff = d_efficiency(uniform, label.design, params)
        writer.writerow([f"{t[i]:.12g}", label.kind.value, f"{eff:.12g}"])
    _write_csv(rows.getvalue(), args.output, stdout)
    return EXIT_OK


def cmd_search_disjoint4(args: argparse.Namespace, stdout: TextIO) -> int:
    if not 1 <= args.starts <= MAX_POINTS:
        raise CliError(f"--starts must be between 1 and {MAX_POINTS}")
    if args.seed < 0:
        raise CliError("--seed must be nonnegative")
    if not 0.0 < args.beta_scale <= sys.float_info.max / 2:
        raise CliError("--beta-scale must be positive and at most half the largest float")
    report = search_disjoint_four_point(n_starts=args.starts, seed=args.seed, beta_scale=args.beta_scale)
    out = asdict(report)
    if not math.isfinite(report.best_slack):
        out["best_slack"] = None
    emit_json(out, stdout)
    return EXIT_OK if report.certified_count == 0 else EXIT_NOT_OPTIMAL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 2, usage and message on stderr
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache  # built once per process: building it costs more than a whole classify call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="btdesign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True, help="number of alternatives")
        p.add_argument("--beta", type=str, required=True, help="comma-separated m-1 log-preferences (the control is 0)")

    p = sub.add_parser("optimize", help=f"solve for the locally D-optimal design, certified at {KW_TOLERANCE:g}")
    add_point_args(p)
    p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS, help="cap on the solver's rounds")
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
    p.add_argument("--workers", type=int, default=None,
                   help="cap on worker processes (default and maximum: the CPU count; 1 scans in-process)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("efficiency", help="efficiency of the uniform design along a parameter line")
    p.add_argument("--line", type=str, default=",".join(str(c) for c in DEFAULT_EFFICIENCY_LINE),
                   help="beta direction coefficients; beta = t * line")
    p.add_argument("--range", type=str, default="0,12", help="t range as lo,hi")
    p.add_argument("--steps", type=int, default=49)
    p.add_argument("--output", type=str, default=None, help="CSV output file (default stdout)")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("search-disjoint4", help="solve the disjoint-orbit four-point support exactly at random points")
    p.add_argument("--starts", type=int, default=100_000, help="parameter points drawn")
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


if __name__ == "__main__":
    console_main()
