"""Command-line surface: JSON/CSV outputs, exit codes, round trips."""

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btdesign
from btdesign import (
    KW_TOLERANCE,
    Design,
    Pair,
    Parameters,
    PathDesign,
    all_pairs,
    cli,
    information_matrix,
    kw_check,
    log_det,
    region_membership,
    solve,
)
from btdesign.cli import MAX_ALTERNATIVES, MAX_POINTS, CliError, ScanAxis, ScanSpec, build_parser, main, run_scan
from btdesign.core import SUPPORT_THRESHOLD
from btdesign.solver import SolverResult

from helpers import exact_path_derivatives, sample_in_path_region
from relabel import Permutation, apply_to_design, apply_to_params


def run(argv):
    out = io.StringIO()
    rc = main(argv, stdout=out)
    return rc, out.getvalue()


def run_json(argv):
    rc, text = run(argv)
    return rc, json.loads(text)


def report_log_det(report: dict, beta: str) -> float:
    """log det of the information matrix of a report's design at beta."""
    m = report["design"]["m"]
    design = Design(m, {Pair.from_key(k): w for k, w in report["design"]["weights"].items()})
    return log_det(information_matrix(design, Parameters(m, tuple(float(b) for b in beta.split(",")))))


class TestOptimize:
    def assert_matches_classify(self, beta: str) -> dict:
        """optimize at m = 4 converges to classify's design: log det within 1e-7."""
        rc, report = run_json(["optimize", "--m", "4", f"--beta={beta}"])
        assert rc == 0 and report["converged"]
        assert "region" not in report
        rc, label = run_json(["classify", "--m", "4", f"--beta={beta}"])
        assert rc == 0
        assert report_log_det(report, beta) == pytest.approx(report_log_det(label, beta), abs=1e-7)
        return report

    def test_origin(self):
        report = self.assert_matches_classify("0,0,0")
        for w in report["design"]["weights"].values():
            assert w == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_saturated_line_point(self):
        report = self.assert_matches_classify("3.5,1.75,4.375")
        assert sorted(report["support"]) == ["1-2", "1-3", "2-4"]
        for key in report["support"]:
            assert report["design"]["weights"][key] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_m4_runs_only_the_solver(self, monkeypatch):
        def refuse(params):
            raise AssertionError("optimize called classify_m4")

        monkeypatch.setattr(cli, "classify_m4", refuse)
        rc, report = run_json(["optimize", "--m", "4", "--beta", "1.7,0.85,2.125"])
        assert rc == 0 and report["converged"]

    def test_two_alternatives(self):
        rc, report = run_json(["optimize", "--m", "2", "--beta", "0"])
        assert rc == 0
        assert report["design"]["weights"] == {"1-2": 1.0}

    def test_float_floor_point_certifies(self):
        # Float rounding alone leaves d - k at 4.1e-8 on the optimal path
        # here, so a solver stricter than KW_TOLERANCE stopped uncertified.
        beta = "18.887073911065173,-13.407574939786366,18.931134002741636"
        rc, report = run_json(["optimize", "--m", "4", f"--beta={beta}"])
        assert rc == 0 and report["converged"] and report["certificate"]["is_optimal"]
        rc, label = run_json(["classify", "--m", "4", f"--beta={beta}"])
        assert rc == 0 and report["log_det"] == report_log_det(label, beta)

    def test_beta_length_mismatch_is_usage_error(self):
        rc, _ = run(["optimize", "--m", "4", "--beta", "0,0"])
        assert rc == 2

    def test_unparseable_beta_is_usage_error(self):
        rc, _ = run(["optimize", "--m", "4", "--beta", "a,b,c"])
        assert rc == 2


class TestVerify:
    def test_round_trip_from_optimize(self, tmp_path):
        rc, report = run_json(["optimize", "--m", "4", "--beta", "0.3,-0.2,0.5"])
        assert rc == 0
        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps(report["design"]))
        rc, verdict = run_json(["verify", "--m", "4", "--beta", "0.3,-0.2,0.5", "--design", str(design_file)])
        assert rc == 0
        assert verdict["certificate"]["is_optimal"]

    def test_echoes_only_nonzero_weights(self, tmp_path):
        # A pair listed at weight 0 is left out of the echoed design, as in every other command.
        design_file = tmp_path / "zero.json"
        third = 1.0 / 3.0
        design_file.write_text(json.dumps({"m": 4, "weights": {"1-2": third, "2-3": 0.0, "2-4": third, "1-3": third}}))
        rc, verdict = run_json(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 1
        assert verdict["design"]["weights"] == {"1-2": third, "1-3": third, "2-4": third}

    def test_design_dict_round_trip(self):
        rng = np.random.default_rng(71)
        for m in range(2, 8):
            params = Parameters(m, tuple(rng.uniform(-6.0, 6.0, m - 1)))
            for design in (Design.uniform(m), solve(params).design, PathDesign.canonical(m).design()):
                back = cli.design_from_dict(json.loads(json.dumps(cli.design_to_dict(design))), m)
                assert back.m == m and back.support() == design.support()
                np.testing.assert_allclose(back.w, design.w, rtol=1e-15, atol=0.0)

    def test_claw_design_not_optimal(self, tmp_path):
        design_file = tmp_path / "claw.json"
        third = 1.0 / 3.0
        design_file.write_text(json.dumps({"m": 4, "weights": {"1-2": third, "1-3": third, "1-4": third}}))
        rc, verdict = run_json(["verify", "--m", "4", "--beta", "1.0,0.5,1.25", "--design", str(design_file)])
        assert rc == 1
        assert not verdict["certificate"]["is_optimal"]
        assert not verdict["certificate"]["singular"]

    def test_cycle_design_reports_singular(self, tmp_path):
        design_file = tmp_path / "cycle.json"
        third = 1.0 / 3.0
        design_file.write_text(json.dumps({"m": 4, "weights": {"1-2": third, "1-4": third, "2-4": third}}))
        rc, verdict = run_json(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 1
        assert verdict["certificate"]["singular"]

    def test_malformed_json_is_usage_error(self, tmp_path):
        design_file = tmp_path / "broken.json"
        design_file.write_text("{not json")
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2

    def test_bad_weight_sum_is_usage_error(self, tmp_path):
        design_file = tmp_path / "sum.json"
        design_file.write_text(json.dumps({"m": 4, "weights": {"1-2": 0.9}}))
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2

    def test_opposite_infinite_weights_are_usage_error(self, tmp_path):
        design_file = tmp_path / "infs.json"
        design_file.write_text('{"m": 4, "weights": {"1-2": Infinity, "1-3": -Infinity}}')
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2

    def test_infinite_m_is_usage_error(self, tmp_path):
        design_file = tmp_path / "inf.json"
        design_file.write_text('{"m": Infinity, "weights": {"1-2": 1.0}}')
        rc, _ = run(["verify", "--m", "2", "--beta", "0", "--design", str(design_file)])
        assert rc == 2

    def test_dimension_mismatch_is_usage_error(self, tmp_path):
        design_file = tmp_path / "m3.json"
        design_file.write_text(json.dumps({"m": 3, "weights": {"1-2": 0.5, "1-3": 0.5}}))
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2

    def test_negative_weight_is_usage_error(self, tmp_path, capsys):
        # The weights sum to 1, so only the Design constructor refuses them.
        design_file = tmp_path / "negative.json"
        design_file.write_text(json.dumps({"m": 4, "weights": {"1-2": 1.5, "1-3": -0.5}}))
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: weight for (1,3) must be finite and nonnegative")

    def test_pair_named_twice_is_usage_error(self, tmp_path, capsys):
        # "2-1" names the pair "1-2" names; keeping one of them would leave weights summing to 1.
        design_file = tmp_path / "twice.json"
        design_file.write_text('{"m": 3, "weights": {"1-2": 0.3, "2-1": 0.3, "1-3": 0.7}}')
        rc, out = run(["verify", "--m", "3", "--beta", "0,0", "--design", str(design_file)])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == "error: design weights name the pair 1-2 twice\n"

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        # json.load alone keeps the last of two equal keys.
        design_file = tmp_path / "repeated.json"
        design_file.write_text('{"m": 3, "weights": {"1-2": 0.3, "1-2": 0.3, "1-3": 0.7}}')
        rc, out = run(["verify", "--m", "3", "--beta", "0,0", "--design", str(design_file)])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == f"error: design file {design_file} repeats the key '1-2'\n"

    def test_missing_design_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(missing)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read design file {missing}: ")

    def test_huge_design_m_is_usage_error(self, tmp_path):
        # A junk m is refused before any pair table is built for it.
        design_file = tmp_path / "huge.json"
        design_file.write_text(json.dumps({"m": 1e300, "weights": {"1-2": 1.0}}))
        rc, _ = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert rc == 2

    @pytest.mark.parametrize("given", [4.9, 4.0, True, "4"], ids=["4.9", "4.0", "true", "string"])
    def test_design_m_must_be_a_json_integer(self, tmp_path, capsys, given):
        # int() truncated 4.9 to 4, so this file verified as a design for m = 4.
        design_file = tmp_path / "fractional.json"
        design_file.write_text(json.dumps({"m": given, "weights": {"1-2": 0.5, "2-3": 0.25, "3-4": 0.25}}))
        rc, out = run(["verify", "--m", "4", "--beta", "0,0,0", "--design", str(design_file)])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == f'error: design "m" must be a JSON integer, got {json.dumps(given)}\n'


class TestClassify:
    @pytest.mark.parametrize(
        "beta,kind",
        [
            ("1.7,0.85,2.125", "five-point"),
            ("2.5,1.25,3.125", "four-point-shared-vertex"),
            ("3.5,1.75,4.375", "saturated"),
        ],
    )
    def test_line_kinds(self, beta, kind):
        rc, report = run_json(["classify", "--m", "4", "--beta", beta])
        assert rc == 0
        assert report["kind"] == kind

    def test_m5_origin_falls_back_to_solver(self):
        rc, report = run_json(["classify", "--m", "5", "--beta", "0,0,0,0"])
        assert rc == 0
        assert report["kind"] == "unsaturated"
        assert len(report["support"]) == 10

    def test_m5_geometric_saturated(self):
        import math

        c = math.log(20.0)
        beta = ",".join(str(i * c - 5 * c) for i in range(1, 5))
        # leading negative values need the --beta= form under argparse
        rc, report = run_json(["classify", "--m", "5", f"--beta={beta}"])
        assert rc == 0
        assert report["kind"] == "saturated"
        assert report["path"] == [1, 2, 3, 4, 5]
        assert report["margin"] < 0.0

    @pytest.mark.parametrize("m,beta", [(3, "40,40"), (5, "120,80,40,40")])
    def test_tied_path_certifies_by_the_tree_identity(self, m, beta, capsys):
        # Ties about 40 apart leave M too ill-conditioned for the pivot test,
        # but the path's certificate comes from g, not from M: its exact
        # violation, about 1e-16, is far below the tolerance.
        rc, report = run_json(["classify", "--m", str(m), f"--beta={beta}"])
        assert rc == 0 and capsys.readouterr().err == ""
        assert report["kind"] == "saturated"
        assert report["certificate"]["is_optimal"]
        params = Parameters(m, tuple(float(b) for b in beta.split(",")))
        exact = max(exact_path_derivatives(PathDesign(tuple(report["path"])), params))
        assert 0 < exact < 1e-15
        assert abs(report["certificate"]["max_violation"] - exact) <= 1e-14

    def test_uncertified_solver_answer_exits_1(self, monkeypatch, capsys):
        # The report is still written, and the error line follows it.
        params = Parameters(5, (0.0, 0.0, 0.0, 0.0))
        path = PathDesign.canonical(5).design()
        certificate = kw_check(path, params)
        assert not certificate.is_optimal
        monkeypatch.setattr(cli, "solve", lambda params: SolverResult(path, certificate, 0, False))
        rc, report = run_json(["classify", "--m", "5", "--beta", "0,0,0,0"])
        assert rc == 1
        assert report["kind"] == "unsaturated" and report["converged"] is False
        assert not report["certificate"]["is_optimal"]
        assert capsys.readouterr().err == "error: the unsaturated design is not certified optimal at this point\n"

    def test_solver_fallback_tail_point_converges(self):
        # An m=7 point outside every path region whose solve once ran into
        # the iteration cap.
        beta = "-2.389172507307342,-5.831192976807449,3.5680804896961824,-5.735195029649638,-1.0698048806276548,-2.4131484039801387"
        rc, report = run_json(["classify", "--m", "7", f"--beta={beta}"])
        assert rc == 0
        assert report["kind"] == "unsaturated"
        assert report["converged"] and report["certificate"]["is_optimal"]


class TestRunAsModule:
    def test_python_m_prints_one_report(self):
        # python -m btdesign.cli runs the same main as the btdesign script.
        src = str(Path(btdesign.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = [sys.executable, "-m", "btdesign.cli", "classify", "--m", "4", "--beta=0.5,0.25,-0.5"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        assert json.loads(line)["certificate"]["is_optimal"]


# Every classify route: the closed forms at m = 4, the sorted-beta path, and
# the solver, whose supports below are all pairs, a strict subset, or both.
_ROUTES = [
    (2, "0", "saturated"),
    (3, "40,40", "saturated"),  # M is singular at the pivot test; the path's certificate needs no M
    (4, "0,0,0", "full-support"),
    (4, "1.7,0.85,2.125", "five-point"),
    (4, "2.5,1.25,3.125", "four-point-shared-vertex"),
    (4, "3.5,1.75,4.375", "saturated"),
    (5, "12,9,6,3", "saturated"),
    (5, "0,0,0,0", "unsaturated"),
    (5, "3,0,1.5,-2", "unsaturated"),
    (9, "24,21,18,15,12,9,6,3", "saturated"),
    (9, "0,0,0,0,0,0,0,0", "unsaturated"),
    (9, "1,-2,3,0.5,-1,2,4,-3", "unsaturated"),
]
# The keys only some kinds carry.
_KIND_KEYS = {"five-point": {"missing_pairs"}, "four-point-shared-vertex": {"missing_pairs"},
              "saturated": {"path"}, "unsaturated": {"support", "converged"}}


def margin_from_report(report: dict) -> float | None:
    """The binding region constraint, recomputed from a report's own certificate and design.

    A design on every pair binds on its smallest weight, any other on the
    largest derivative toward a pair it does not support.
    """
    certificate, weights = report["certificate"], report["design"]["weights"]
    if certificate["singular"]:
        return None
    support = {k for k, w in weights.items() if w > SUPPORT_THRESHOLD}
    off = [v for k, v in certificate["derivatives"].items() if k not in support]
    return max(off) if off else -min(weights.values())


class TestOneShape:
    """Every classify answer has one shape and one margin, whichever route gave it."""

    @pytest.mark.parametrize("m,beta,kind", _ROUTES)
    def test_margin_is_the_certificates(self, m, beta, kind):
        rc, report = run_json(["classify", f"--m={m}", f"--beta={beta}"])
        assert rc == (0 if report["certificate"]["is_optimal"] else 1)
        assert report["kind"] == kind
        assert report["margin"] == margin_from_report(report)
        assert set(report) == {"kind", "design", "margin", "certificate"} | _KIND_KEYS.get(kind, set())

    def test_path_margin_is_m_minus_1_times_g_minus_1(self):
        # On a path d = (m - 1)(g - 1), so the margin is (m - 1) times the
        # region's max g - 1: -3.563 = 4 x (-0.891) at this m = 5 point.
        beta = "12,9,6,3"
        _, report = run_json(["classify", "--m", "5", f"--beta={beta}"])
        params = Parameters(5, (12.0, 9.0, 6.0, 3.0))
        g_margin = region_membership(PathDesign.canonical(5), params).margin
        assert report["margin"] == pytest.approx(4 * g_margin, rel=1e-9)


@st.composite
def relabeled_points(draw):
    """A point at m = 4..6 with beta in [-12, 12], and a relabeling of its alternatives."""
    m = draw(st.integers(4, 6))
    beta = draw(st.lists(st.floats(-12.0, 12.0), min_size=m - 1, max_size=m - 1))
    return Parameters(m, tuple(beta)), Permutation(tuple(draw(st.permutations(range(1, m + 1)))))


class TestEquivariance:
    """The whole classify pipeline commutes with relabeling the alternatives."""

    @given(relabeled_points())
    @settings(max_examples=300, deadline=None)
    def test_answer_moves_with_the_point(self, point):
        # Weights are not compared: at a point fixed by sigma the optimal
        # support need not be unique to float precision; log det is.
        params, sigma = point
        moved = apply_to_params(sigma, params)
        label, _ = cli._answer(params)
        moved_label, _ = cli._answer(moved)
        assert moved_label.kind is label.kind, (params.beta, sigma.images)
        assert label.certificate.is_optimal and moved_label.certificate.is_optimal
        relabeled = log_det(information_matrix(apply_to_design(sigma, label.design), moved))
        assert relabeled == pytest.approx(log_det(information_matrix(moved_label.design, moved)), rel=1e-9)


class TestUnderflow:
    """Intensities that underflow to zero end in exit 1 with an error line."""

    @pytest.mark.parametrize("big", ["800", "1e300"])
    @pytest.mark.parametrize("command,m", [("classify", 4), ("classify", 5), ("optimize", 4)])
    def test_exit_1_with_error_line(self, command, m, big, capsys):
        beta = ",".join([big] + ["0"] * (m - 2))
        rc, _ = run([command, "--m", str(m), f"--beta={beta}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("max_iterations", ["1", "2"])
    def test_subnormal_intensity_is_reported(self, max_iterations, capsys):
        # At a gap of 710 the one intensity of m = 2 is subnormal: M^{-1} would
        # overflow, so M counts as singular.
        rc, _ = run(["optimize", "--m=2", "--beta=710.0", f"--max-iterations={max_iterations}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m,beta", [(3, "741,1"), (5, "741,1,0.5,-0.5")])
    def test_subnormal_path_edge_is_reported_without_a_warning(self, m, beta, capsys):
        # The path edge across the gap of 741 has a subnormal intensity, whose
        # inverse is inf: g is inf there, and numpy must not warn about it.
        rc, out = run(["classify", "--m", str(m), f"--beta={beta}"])
        assert (rc, out) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "RuntimeWarning" not in err, err

    def test_verify_exit_1_with_error_line(self, tmp_path, capsys):
        design_file = tmp_path / "uniform.json"
        pairs = ("1-2", "1-3", "1-4", "2-3", "2-4", "3-4")
        design_file.write_text(json.dumps({"m": 4, "weights": {k: 1 / 6 for k in pairs}}))
        rc, _ = run(["verify", "--m", "4", "--beta=800,0,0", "--design", str(design_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestScan:
    SPEC = {
        "m": 4,
        "axes": [
            {"direction": [1, 0, 0], "range": [-3, 3], "count": 5},
            {"direction": [0, 1, 0], "range": [-3, 3], "count": 5},
            {"direction": [0, 0, 1], "range": [-3, 3], "count": 5},
        ],
        "fixed": [0, 0, 0],
    }

    def test_serial_scan_streams_the_grid(self, monkeypatch):
        # Each row is classified as soon as its point is drawn, so a serial
        # scan holds one grid point at a time.
        spec = ScanSpec(m=4, axes=(ScanAxis((1.0, 0.0, 0.0), -1.0, 1.0, 5),), fixed=(0.0, 0.0, 0.0))
        drawn, seen = [], []
        grid, classify = ScanSpec.grid, cli.classify_m4
        monkeypatch.setattr(ScanSpec, "grid", lambda self, *bounds: (drawn.append(p) or p for p in grid(self, *bounds)))
        monkeypatch.setattr(cli, "classify_m4", lambda params: seen.append(len(drawn)) or classify(params))
        assert run_scan(spec, io.StringIO(), workers=1) == 5
        assert seen == [1, 2, 3, 4, 5]

    BOX = ScanSpec(
        m=4,
        axes=(
            ScanAxis((1.0, 0.0, 0.0), -3.0, 3.0, 5),
            ScanAxis((0.0, 1.0, 0.0), -2.0, 4.0, 7),
            ScanAxis((0.0, 0.0, 1.0), -1.0, 1.0, 3),
        ),
        fixed=(0.25, -0.5, 0.0),
    )

    @pytest.mark.parametrize("bounds", [(0, 105), (0, 0), (104, 105), (17, 62)])
    def test_grid_range_is_a_slice_of_the_grid(self, bounds):
        start, stop = bounds
        assert self.BOX.size() == 105
        ranged = list(self.BOX.grid(start, stop))
        sliced = list(itertools.islice(self.BOX.grid(), start, stop))
        assert len(ranged) == stop - start
        assert [idx for idx, _ in ranged] == [idx for idx, _ in sliced]
        # Bitwise: the same float sums, not merely equal values.
        assert [np.array(p.beta).tobytes() for _, p in ranged] == [np.array(p.beta).tobytes() for _, p in sliced]

    # 105 points are not a multiple of the range count; 3 points are fewer than the ranges.
    @pytest.mark.parametrize(
        "spec",
        [BOX, ScanSpec(m=4, axes=(ScanAxis((1.0, -1.0, 0.5), -2.0, 2.0, 3),), fixed=(0.0, 0.0, 0.0))],
        ids=["105-points", "3-points"],
    )
    def test_parallel_scan_writes_the_serial_bytes(self, monkeypatch, spec):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # the pooled path on any host
        serial, pooled = io.StringIO(), io.StringIO()
        run_scan(spec, serial, workers=1)
        assert run_scan(spec, pooled, workers=2) == spec.size()
        assert pooled.getvalue() == serial.getvalue()

    def test_parallel_scan_builds_no_point_in_the_caller(self, monkeypatch):
        # Workers draw their own ranges: only (spec, start, stop) leaves the caller.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        built, post_init = [], Parameters.__post_init__
        monkeypatch.setattr(Parameters, "__post_init__", lambda self: built.append(1) or post_init(self))
        assert run_scan(self.BOX, io.StringIO(), workers=2) == 105
        assert built == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_errors_keep_their_source(self, monkeypatch, workers):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)  # workers=2 fails in a worker on any host
        overflow = ScanSpec(m=4, axes=(ScanAxis((10.0, 0.0, 0.0), 0.0, 1e308, 3),), fixed=(0.0, 0.0, 0.0))
        with pytest.raises(CliError, match="bad scan grid"):
            run_scan(overflow, io.StringIO(), workers=workers)
        # A grid the closed forms cannot classify fails in classify_m4, not as a bad grid.
        m5 = ScanSpec(m=5, axes=(ScanAxis((1.0, 0.0, 0.0, 0.0), 0.0, 1.0, 3),), fixed=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="requires m=4"):
            run_scan(m5, io.StringIO(), workers=workers)

    def test_a_failed_range_cancels_the_ranges_not_started(self, monkeypatch):
        import concurrent.futures

        shutdowns = []

        class InlinePool:  # runs each range as its text is read, and starts no process
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, **_):
                return map(fn, *iterables)

            def shutdown(self, **kwargs):
                shutdowns.append(kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        overflow = ScanSpec(m=4, axes=(ScanAxis((10.0, 0.0, 0.0), 0.0, 1e308, 3),), fixed=(0.0, 0.0, 0.0))
        with pytest.raises(CliError, match="bad scan grid"):
            run_scan(overflow, io.StringIO())
        assert shutdowns == [{"cancel_futures": True}]

    def test_grid_rows_and_determinism(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC))
        rc1, text1 = run(["scan", "--spec", str(spec_file), "--workers", "1"])
        rc2, text2 = run(["scan", "--spec", str(spec_file), "--workers", "2"])
        assert rc1 == rc2 == 0
        assert text1 == text2
        rows = list(csv.DictReader(io.StringIO(text1)))
        assert len(rows) == 125
        assert {r["kind"] for r in rows} <= {
            "full-support",
            "five-point",
            "four-point-shared-vertex",
            "saturated",
        }
        center = [r for r in rows if (r["beta1"], r["beta2"], r["beta3"]) == ("0", "0", "0")]
        assert center and center[0]["kind"] == "full-support"

    def test_output_file(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(self.SPEC))
        out_file = tmp_path / "grid.csv"
        rc, _ = run(["scan", "--spec", str(spec_file), "--output", str(out_file)])
        assert rc == 0
        rows = list(csv.DictReader(out_file.read_text().splitlines()))
        assert len(rows) == 125

    def test_failure_leaves_no_output_file(self, tmp_path, capsys):
        # The last grid point underflows the intensities after earlier rows succeeded.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"m": 4, "axes": [{"direction": [1, 0, 0], "range": [0, 800], "count": 3}]}))
        out_file = tmp_path / "grid.csv"
        rc, _ = run(["scan", "--spec", str(spec_file), "--output", str(out_file), "--workers", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out_file.exists()

    @pytest.mark.parametrize("direction", [[-1, -1, 0], [-1, 0, 1]])
    def test_symmetric_lines_certify(self, tmp_path, direction):
        # Points on these lines from 12 on need the closed forms' exact retry.
        spec_file = tmp_path / "line.json"
        spec_file.write_text(json.dumps({"m": 4, "axes": [{"direction": direction, "range": [0, 20], "count": 21}]}))
        rc, text = run(["scan", "--spec", str(spec_file), "--workers", "1"])
        assert rc == 0
        assert len(list(csv.DictReader(io.StringIO(text)))) == 21

    def test_malformed_spec_is_usage_error(self, tmp_path):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({"m": 4, "axes": []}))
        rc, _ = run(["scan", "--spec", str(spec_file)])
        assert rc == 2

    @pytest.mark.parametrize(
        "field, given",
        [("m", 4.5), ("m", 4.0), ("m", True), ("m", "4"), ("count", 2.9), ("count", 3.0), ("count", True), ("count", "3")],
    )
    def test_spec_m_and_count_must_be_json_integers(self, tmp_path, capsys, field, given):
        # int() truncated them: "m": 4.5 with "count": 2.9 scanned 2 points at m = 4 and exited 0.
        spec = {"m": 4, "axes": [{"direction": [1, 0, 0], "range": [-1, 1], "count": 3}]}
        if field == "m":
            spec["m"] = given
        else:
            spec["axes"][0]["count"] = given
        spec_file = tmp_path / "fractional.json"
        spec_file.write_text(json.dumps(spec))
        rc, out = run(["scan", "--spec", str(spec_file), "--workers", "1"])
        assert (rc, out) == (2, "")
        what = 'scan spec "m"' if field == "m" else 'axis "count"'
        assert capsys.readouterr().err == f"error: {what} must be a JSON integer, got {json.dumps(given)}\n"

    def test_small_parameters_are_full_support(self, tmp_path):
        # Near the origin the optimal weights stay close to uniform, so the
        # whole |beta| <= 0.2 box classifies as full support.
        spec = {
            "m": 4,
            "axes": [
                {"direction": [1, 0, 0], "range": [-0.2, 0.2], "count": 5},
                {"direction": [0, 1, 0], "range": [-0.2, 0.2], "count": 5},
                {"direction": [0, 0, 1], "range": [-0.2, 0.2], "count": 5},
            ],
        }
        spec_file = tmp_path / "small.json"
        spec_file.write_text(json.dumps(spec))
        rc, text = run(["scan", "--spec", str(spec_file)])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(r["kind"] == "full-support" for r in rows)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # A recording stand-in for the pool: it starts no process.
        import concurrent.futures

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, **_):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        spec = ScanSpec(m=4, axes=(ScanAxis((1.0, 0.0, 0.0), -1.0, 1.0, 5),), fixed=(0.0, 0.0, 0.0))
        serial = io.StringIO()
        run_scan(spec, serial, workers=1)
        assert asked == []
        for workers, expected in [(10**6, 3), (None, 3), (2, 2)]:
            sink = io.StringIO()
            assert run_scan(spec, sink, workers=workers) == 5
            assert asked.pop() == expected and sink.getvalue() == serial.getvalue()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # an unknown count scans in-process
        run_scan(spec, io.StringIO())
        assert asked == []
        for workers in (0, -1):
            with pytest.raises(CliError, match="at least 1"):
                run_scan(spec, io.StringIO(), workers=workers)

    @pytest.mark.parametrize("m", [9, 12, 20])
    def test_classify_any_m_in_region(self, m):
        path, params = sample_in_path_region(np.random.default_rng(m), m)
        beta = ",".join(repr(b) for b in params.beta)
        rc, report = run_json(["classify", "--m", str(m), f"--beta={beta}"])
        assert rc == 0
        assert report["kind"] == "saturated"
        assert report["path"] == list(path.order)
        assert report["certificate"]["is_optimal"]

    def test_classify_uniform_m9_uses_solver(self):
        rc, report = run_json(["classify", "--m", "9", "--beta", "0,0,0,0,0,0,0,0"])
        assert rc == 0
        assert report["kind"] == "unsaturated"
        assert report["converged"] and report["certificate"]["is_optimal"]

    def test_classify_beyond_certifiable_range(self, capsys):
        # A triple tie at 40 is certified by the exact retry; the range ends
        # where an intensity underflows.
        rc, report = run_json(["classify", "--m", "4", "--beta", "40,40,40"])
        assert rc == 0 and report["certificate"]["is_optimal"]
        rc, _ = run(["classify", "--m", "4", "--beta", "800,800,800"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: an intensity underflows to 0: the preference gap is beyond the certifiable range\n"
        )

    def test_optimize_beyond_certifiable_range_is_reported(self):
        # Even the uniform starting design is singular at the pivot
        # threshold out there, so the solve fails cleanly with exit 1.
        rc, _ = run(["optimize", "--m", "4", "--beta", "40,40,40"])
        assert rc == 1

    def test_line_spec_for_efficiency_figure(self, tmp_path):
        spec_file = tmp_path / "line.json"
        spec_file.write_text(
            json.dumps(
                {
                    "m": 4,
                    "axes": [{"direction": [1.0, 0.5, 1.25], "range": [0, 4], "count": 9}],
                    "fixed": [0, 0, 0],
                }
            )
        )
        rc, text = run(["scan", "--spec", str(spec_file)])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["kind"] for r in rows][0] == "full-support"
        assert [r["kind"] for r in rows][-1] == "saturated"


class TestEfficiency:
    def test_default_line_curve(self):
        rc, text = run(["efficiency", "--range", "0,4", "--steps", "17"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 17
        assert float(rows[0]["efficiency"]) == pytest.approx(1.0, abs=1e-9)
        assert rows[0]["kind"] == "full-support"
        assert rows[-1]["kind"] == "saturated"
        effs = [float(r["efficiency"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(effs, effs[1:]))
        kinds = [r["kind"] for r in rows]
        changes = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert changes == 3

    def test_output_file(self, tmp_path):
        out_file = tmp_path / "eff.csv"
        rc, _ = run(["efficiency", "--range", "0,1", "--steps", "3", "--output", str(out_file)])
        assert rc == 0
        assert len(list(csv.DictReader(out_file.read_text().splitlines()))) == 3

    def test_failure_leaves_no_output_file(self, tmp_path, capsys):
        # t = 800 underflows the intensities after the t = 0 row succeeded.
        out_file = tmp_path / "eff.csv"
        rc, _ = run(["efficiency", "--range", "0,800", "--steps", "3", "--output", str(out_file)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out_file.exists()

    def test_bad_range_is_usage_error(self):
        rc, _ = run(["efficiency", "--range", "zero,4"])
        assert rc == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_range_up_to_the_largest_float_is_reported(self):
        # The last sample rounds past the largest float, with no numpy warning;
        # the second is already beyond the certifiable range, so exit 1.
        rc, _ = run(["efficiency", "--range=0.0,1.7976931348623157e+308", "--steps=7"])
        assert rc == 1


class TestScans:
    def test_claw_scan(self):
        rc, report = run_json(["claw-scan", "--grid-points", "25", "--samples", "2000"])
        assert rc == 0
        assert report["grid"]["feasible_count"] == 0
        assert report["random"]["feasible_count"] == 0
        assert report["grid"]["max_min_slack"] < 0.0

    def test_search_disjoint4(self):
        rc, report = run_json(["search-disjoint4", "--starts", "1500", "--seed", "3"])
        assert rc == 0
        assert report["certified_count"] == 0
        assert report["best_slack"] < 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_search_disjoint4_tiny_intensities_give_no_false_slack(self):
        # Where intensities are tiny, a residual test on t = lambda (w^2 - w/3)
        # passes any w, and a slack near +3 followed; the exact design has
        # none at the first scale and a slack near -1.4e12 at the second.  At
        # the third, some draws have a gap past 745, whose intensity
        # underflows to 0: each counts in n_starts alone, and the search goes on.
        for argv in (["--starts=367", "--beta-scale=390.0"], ["--starts=2000", "--beta-scale=60"],
                     ["--starts=1000", "--beta-scale=400"]):
            rc, report = run_json(["search-disjoint4", *argv])
            assert rc == 0 and report["n_starts"] == int(argv[0].removeprefix("--starts="))
            assert report["certified_count"] == 0
            assert report["best_slack"] is None or report["best_slack"] < 0.0, argv

    def test_search_disjoint4_without_interior_solution(self):
        # Two draws have no stationary design on the support, so there is no best slack.
        rc, report = run_json(["search-disjoint4", "--starts", "2"])
        assert rc == 0
        assert report["interior_count"] == 0
        assert report["best_slack"] is None and report["best_point"] is None

    def test_search_disjoint4_keeps_a_best_point_whose_slack_overflows(self):
        # The one interior draw has a subnormal intensity on two cycle edges,
        # so its slack overflows to -inf (null); it is still the best point.
        rc, report = run_json(["search-disjoint4", "--starts=20000", "--beta-scale=600"])
        assert rc == 0
        assert (report["interior_count"], report["best_slack"]) == (1, None)
        assert report["best_point"][:3] == pytest.approx([250.04, 249.25, -495.00], abs=0.01)

# Scan specs: a small valid grid, one that asks for too many points, and one
# whose grid runs past the largest float.
_SPECS = {
    "small": {"m": 4, "axes": [{"direction": [1, 0, 0], "range": [0, 1], "count": 3}]},
    "huge": {"m": 4, "axes": [{"direction": [1, 0, 0], "range": [0, 1], "count": 1e13}]},
    "overflow": {"m": 4, "axes": [{"direction": [10, 0, 0], "range": [0, 1e308], "count": 3}]},
}


class TestUsage:
    def test_unknown_command(self):
        rc, _ = run(["frobnicate"])
        assert rc == 2

    def test_missing_required_argument(self):
        rc, _ = run(["optimize", "--m", "4"])
        assert rc == 2

    def test_parse_error_says_what_was_wrong(self, capsys):
        rc, out = run(["optimize", "--m", "x", "--beta", "0"])
        assert (rc, out) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: btdesign optimize")
        assert err.splitlines()[-1] == "error: argument --m: invalid int value: 'x'"

    def test_tolerance_flag_is_unrecognized(self, capsys):
        # Every certificate is judged at KW_TOLERANCE; optimize has no flag to set another.
        rc, out = run(["optimize", "--m", "4", "--beta", "0,0,0", "--kw-tolerance", "1e-8"])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err.splitlines()[-1] == "error: unrecognized arguments: --kw-tolerance 1e-8"

    @pytest.mark.parametrize("command", ["optimize", "verify", "classify"])
    @pytest.mark.parametrize("m", [1, 0, -3])
    def test_fewer_than_two_alternatives_is_usage_error(self, command, m, capsys, tmp_path):
        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps({"m": 2, "weights": {"1-2": 1.0}}))
        extra = ["--design", str(design_file)] if command == "verify" else []
        rc, out = run([command, "--m", str(m), "--beta", "0", *extra])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == f"error: need at least two alternatives, got m={m}\n"

    @pytest.mark.parametrize("command", ["optimize", "verify", "classify"])
    def test_more_alternatives_than_the_bound_is_usage_error(self, command, capsys, tmp_path):
        # Refused before beta is read, so before any pair table is built.
        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps({"m": 2, "weights": {"1-2": 1.0}}))
        extra = ["--design", str(design_file)] if command == "verify" else []
        m = MAX_ALTERNATIVES + 1
        rc, out = run([command, "--m", str(m), "--beta=0", *extra])
        assert (rc, out) == (2, "")
        assert capsys.readouterr().err == f"error: at most {MAX_ALTERNATIVES} alternatives, got m={m}\n"

    def test_the_bound_itself_is_read(self):
        params = cli.parse_beta(",".join(["0"] * (MAX_ALTERNATIVES - 1)), MAX_ALTERNATIVES)
        assert params.m == MAX_ALTERNATIVES

    def test_usage_error_leaves_the_parser_reusable(self):
        # The parser is built once per process and shared by every call.
        build_parser.cache_clear()
        argv = ["classify", "--m", "4", "--beta", "1.7,0.85,2.125"]
        rc, expected = run(argv)
        assert rc == 0
        assert run(["classify", "--m", "4", "--beta", "0,0,0", "--workers", "2"])[0] == 2
        assert run(argv) == (0, expected)

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--m", "4", "--beta", "0,0,0", "--max-iterations", "0"],
            ["optimize", "--m", "4", "--beta", "0,0,0", "--max-iterations", "-1"],
            ["claw-scan", "--grid-points", "0", "--samples", "0"],
            ["claw-scan", "--lower", "-1"],
            ["search-disjoint4", "--starts", "0"],
            ["search-disjoint4", "--beta-scale=-5"],
            ["search-disjoint4", "--beta-scale", "1e308"],
            ["claw-scan", "--lower", "5", "--upper", "1"],
            ["efficiency", "--line", "nan,0,0"],
            ["efficiency", "--range", "0,inf"],
            ["efficiency", "--steps", str(MAX_POINTS + 1)],
            ["efficiency", "--line", "10,0,0", "--range", "0,1e308", "--steps", "3"],
            ["efficiency", "--range=-1e308,1e308"],
            ["claw-scan", "--grid-points", str(round(MAX_POINTS ** (1 / 3)) + 1)],
            ["claw-scan", "--samples", str(MAX_POINTS + 1)],
            ["search-disjoint4", "--starts", str(MAX_POINTS + 1)],
            ["scan", "--workers=1", "--spec={specs}/huge.json"],
            ["scan", "--workers=1", "--spec={specs}/overflow.json"],
            ["scan", "--workers", "0", "--spec={specs}/small.json"],
            ["scan", "--workers", "-1", "--spec={specs}/small.json"],
        ],
    )
    def test_out_of_range_value_is_usage_error(self, argv, capsys, tmp_path):
        for name, spec in _SPECS.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print to stderr too
            rc, _ = run([a.format(specs=tmp_path) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--m", "4", "--beta", "1.7,0.85,2.125"],
            ["verify", "--m", "4", "--beta", "0,0,0", "--design", "{file}"],
            ["classify", "--m", "4", "--beta", "3.5,1.75,4.375"],
            ["classify", "--m", "5", "--beta", "12,9,6,3"],
            ["classify", "--m", "5", "--beta", "0,0,0,0"],
            ["claw-scan", "--grid-points", "3", "--samples", "10"],
            ["search-disjoint4", "--starts", "20"],
        ],
        ids=["optimize", "verify", "classify-m4", "classify-path", "classify-solver", "claw-scan",
             "search-disjoint4"],
    )
    def test_one_line_that_round_trips(self, argv, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"m": 4, "weights": {p.key(): 1 / 6 for p in all_pairs(4)}}))
        rc, text = run([a.format(file=design) for a in argv])
        assert rc in (0, 1)
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.dumps(json.loads(text)) + "\n" == text


class TestOneTolerance:
    """Every route judges optimality at KW_TOLERANCE."""

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["classify", "--m", "4", "--beta", "1.7,0.85,2.125"], "five-point"),
            (["classify", "--m", "4", "--beta", "3.5,1.75,4.375"], "saturated"),
            (["classify", "--m", "5", "--beta", "0.14,5.41,-4.27,5.38"], "saturated"),
            (["classify", "--m", "5", "--beta", "0,0,0,0"], "unsaturated"),
            (["classify", "--m", "6", "--beta=-5.21,-4.55,4.21,2.91,4.02"], "unsaturated"),
            (["optimize", "--m", "4", "--beta", "1.7,0.85,2.125"], None),
            (["optimize", "--m", "5", "--beta=1.69,0.23,-5.82,4.69"], None),
            (["verify", "--m", "4", "--beta", "0,0,0", "--design", "{file}"], None),
        ],
        ids=["classify-m4-closed-form", "classify-m4-path", "classify-path", "classify-solver", "classify-solver-m6",
             "optimize-m4", "optimize-m5", "verify"],
    )
    def test_certificate_tolerance(self, argv, kind, tmp_path):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"m": 4, "weights": {p.key(): 1 / 6 for p in all_pairs(4)}}))
        rc, report = run_json([a.format(file=design) for a in argv])
        assert rc == 0 and report["certificate"]["is_optimal"]
        assert report["certificate"]["tolerance"] == KW_TOLERANCE
        assert report.get("kind") == kind
        if "converged" in report:
            assert report["converged"] == report["certificate"]["is_optimal"]


# Anything a user might type for a number: huge, tiny, non-finite, or not a number at all.
_ANY_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e-320", "741", "800", "-0"]),
)
_ANY_JSON = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300]),
    st.integers(-2, 9),
    st.text(max_size=3),
    st.none(),
)


@st.composite
def _numbers(draw, size: int, low: float = -40.0, high: float = 40.0) -> str:
    """size comma-separated numbers in [low, high], or, half the time, anything near that."""
    if draw(st.booleans()):
        return ",".join(draw(st.lists(_ANY_NUMBER, min_size=max(0, size - 1), max_size=size + 1)))
    return ",".join(repr(x) for x in draw(st.lists(st.floats(low, high), min_size=size, max_size=size)))


@st.composite
def _json_or_junk(draw, valid):
    """A valid JSON value, or, one time in ten, junk in its place."""
    return draw(_ANY_JSON) if draw(st.integers(0, 9)) == 0 else draw(valid)


def _option(name: str, values):
    """An optional --name=value argument."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


@st.composite
def _point_argv(draw, command: str) -> list[str]:
    m = draw(st.integers(1, 8))
    return [command, f"--m={m}", f"--beta={draw(_numbers(m - 1))}"]


@st.composite
def _optimize_argv(draw) -> list[str]:
    # The iteration cap is always given, so no case runs the default 100 000 iterations.
    return [
        *draw(_point_argv("optimize")),
        f"--max-iterations={draw(st.integers(-1, 300))}",
    ]


@st.composite
def _verify_argv(draw) -> tuple[list[str], str]:
    argv = draw(_point_argv("verify"))
    m = int(argv[1].removeprefix("--m="))
    pairs = [f"{i}-{j}" for i in range(1, max(m, 2) + 1) for j in range(i + 1, max(m, 2) + 1)]
    keys = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(keys), max_size=len(keys)))
    weights = {k: draw(_json_or_junk(st.just(w / sum(raw)))) for k, w in zip(keys, raw)}
    if draw(st.integers(0, 9)) == 0:
        weights[draw(st.sampled_from(["1-9", "2-2", "0-1", "a-b", "12"]))] = 0.0
    design = draw(_json_or_junk(st.just({"m": draw(_json_or_junk(st.just(m))), "weights": weights})))
    return [*argv, "--design={file}"], json.dumps(design)


@st.composite
def _scan_argv(draw) -> tuple[list[str], str]:
    # At most 3 axes of at most 3 steps each: no spec asks for more than 27 points.
    coordinate = _json_or_junk(st.floats(-3.0, 3.0))
    axis = st.fixed_dictionaries(
        {
            "direction": _json_or_junk(st.lists(coordinate, min_size=3, max_size=3)),
            "range": _json_or_junk(st.lists(_json_or_junk(st.floats(-30.0, 30.0)), min_size=2, max_size=2)),
            "count": st.one_of(st.integers(-1, 3), st.sampled_from([None, "3", 2.5, math.inf, math.nan])),
        }
    )
    spec = {"m": draw(_json_or_junk(st.just(4))), "axes": draw(st.lists(axis, min_size=1, max_size=3))}
    if draw(st.booleans()):
        spec["fixed"] = draw(_json_or_junk(st.lists(coordinate, min_size=3, max_size=3)))
    return ["scan", "--spec={file}", "--workers=1"], json.dumps(spec)


@st.composite
def _efficiency_argv(draw) -> list[str]:
    return [
        "efficiency",
        *draw(_option("line", _numbers(3, -3.0, 3.0))),
        f"--range={draw(_numbers(2, -30.0, 30.0))}",
        f"--steps={draw(st.integers(-1, 50))}",
    ]


@st.composite
def _claw_scan_argv(draw) -> list[str]:
    return [
        "claw-scan",
        f"--grid-points={draw(st.integers(-1, 20))}",
        f"--samples={draw(st.integers(-1, 1000))}",
        *draw(_option("seed", st.integers(-2, 10))),
        *draw(_option("lower", _numbers(1, 1e-300, 1e300))),
        *draw(_option("upper", _numbers(1, 1e-300, 1e300))),
    ]


@st.composite
def _search_disjoint4_argv(draw) -> list[str]:
    return [
        "search-disjoint4",
        f"--starts={draw(st.integers(-1, 1000))}",
        *draw(_option("seed", st.integers(-2, 10))),
        *draw(_option("beta-scale", _numbers(1, 0.0, 1000.0))),
    ]


class TestArgvFuzz:
    """Every argv with bounded counts ends in exit 0, 1 or 2, never a traceback."""

    @pytest.mark.parametrize(
        "argvs",
        [
            _optimize_argv(),
            _verify_argv(),
            _point_argv("classify"),
            _scan_argv(),
            _efficiency_argv(),
            _claw_scan_argv(),
            _search_disjoint4_argv(),
        ],
        ids=["optimize", "verify", "classify", "scan", "efficiency", "claw-scan", "search-disjoint4"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_defined_exit(self, argvs, tmp_path_factory):
        path = tmp_path_factory.mktemp("argv") / "input.json"

        @given(argvs)
        @settings(max_examples=60, deadline=None)
        def check(case):
            argv, text = case if isinstance(case, tuple) else (case, "")
            path.write_text(text)
            assert run([a.format(file=path) for a in argv])[0] in (0, 1, 2), argv

        check()
