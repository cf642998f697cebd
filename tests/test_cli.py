"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mec_bazaar.cli import build_parser
from mec_bazaar.scenario_io import GenerationParams, generate_scenario, save_scenario
from mec_bazaar.market_model import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "mec_bazaar.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "small.json"
    out = cli("gen", "--seed", "5", "--tes", "40", "--ess", "4",
              "--slots", "6", "-o", str(path))
    assert out.returncode == 0, out.stderr
    return path


@pytest.fixture(scope="module")
def small_bundle(small_scenario, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bundle") / "out"
    out = cli("run", "--scenario", str(small_scenario), "--out-dir",
              str(out_dir))
    assert out.returncode == 0, out.stderr
    return out_dir


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli("gen", "--seed", "7", "--tes", "10", "--ess", "3",
                   "--slots", "4", "-o", str(a)).returncode == 0
        assert cli("gen", "--seed", "7", "--tes", "10", "--ess", "3",
                   "--slots", "4", "-o", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_tes_rejected(self, tmp_path):
        out = cli("gen", "--seed", "1", "--tes", "0", "-o",
                  str(tmp_path / "x.json"))
        assert out.returncode == 2
        assert "num_te >= 1" in out.stderr

    def test_default_shape_matches_reference_parameters(self, tmp_path):
        path = tmp_path / "default.json"
        assert cli("gen", "--seed", "1", "-o", str(path)).returncode == 0
        doc = json.loads(path.read_text())
        assert doc["num_te"] == 1000
        assert doc["num_es"] == 10
        assert doc["num_slots"] == 24
        assert doc["solver"]["lambda_init"] == 20000.0
        assert doc["solver"]["epsilon"] == 0.3
        r = np.asarray(doc["base_demand"])
        assert r.min() >= 9660.0 and r.max() <= 37065.0

    def test_param_overrides(self, tmp_path):
        path = tmp_path / "p.json"
        out = cli("gen", "--seed", "2", "--tes", "5", "--ess", "3",
                  "--slots", "4", "--param", "solver.epsilon=0.05",
                  "--param", "w_range_hi=0.9", "-o", str(path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(path.read_text())
        assert doc["solver"]["epsilon"] == 0.05
        assert np.asarray(doc["utility_w"]).max() <= 0.9

    def test_unknown_param(self, tmp_path):
        out = cli("gen", "--seed", "2", "--param", "bogus=1", "-o",
                  str(tmp_path / "x.json"))
        assert out.returncode == 2

    def test_non_numeric_solver_param(self, tmp_path):
        out = cli("gen", "--seed", "2", "--tes", "5", "--param",
                  "solver.epsilon=abc", "-o", str(tmp_path / "x.json"))
        assert out.returncode == 2
        assert "solver.epsilon" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "x.json").exists()


    @pytest.mark.parametrize("param", ["a1=true", "w_range_lo=false"])
    def test_boolean_param_rejected(self, tmp_path, param):
        out = cli("gen", "--seed", "2", "--tes", "5", "--param", param,
                  "-o", str(tmp_path / "x.json"))
        assert out.returncode == 2
        assert param.split("=")[0] in out.stderr
        assert not (tmp_path / "x.json").exists()


class TestRun:
    def test_smoke(self, small_scenario, tmp_path):
        out_dir = tmp_path / "out"
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(out_dir))
        assert out.returncode == 0, out.stderr
        printed = out.stdout.splitlines()
        assert printed and all(os.path.exists(p) for p in printed)
        trace = (out_dir / "trace.csv").read_text().splitlines()
        final_delta = float(trace[-1].split(",")[4])
        assert final_delta < 0.3

    def test_epsilon_and_max_iter_flags(self, small_scenario, tmp_path):
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o2"), "--epsilon", "1e-12",
                  "--max-iter", "5")
        assert out.returncode == 3
        doc = json.loads((tmp_path / "o2" / "result.json").read_text())
        assert doc["status"] == "iteration-cap-reached"
        assert doc["iterations"] == 5

    def test_baseline_cap_reported(self, small_scenario, tmp_path):
        out_dir = tmp_path / "o5"
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(out_dir), "--max-iter", "5")
        assert out.returncode == 3
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["baseline_converged"] is False
        assert doc["baseline_iterations"] == 5
        assert "WARNING baseline" in out.stderr

    def test_thread_invariant_bundles(self, small_scenario, tmp_path):
        d1, d8 = tmp_path / "t1", tmp_path / "t8"
        assert cli("run", "--scenario", str(small_scenario), "--out-dir",
                   str(d1), "--threads", "1").returncode == 0
        assert cli("run", "--scenario", str(small_scenario), "--out-dir",
                   str(d8), "--threads", "8").returncode == 0
        for name in ("result.json", "trace.csv", "demands.csv", "bids.csv"):
            assert (d1 / name).read_bytes() == (d8 / name).read_bytes()

    def test_manifest_contents(self, small_scenario, tmp_path):
        out_dir = tmp_path / "om"
        assert cli("run", "--scenario", str(small_scenario), "--out-dir",
                   str(out_dir), "--param",
                   "solver.max_iterations=500").returncode == 0
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["seed"] == 5
        assert doc["overrides"] == {"solver.max_iterations": 500}
        assert len(doc["scenario_sha256"]) == 64
        assert doc["status"] == "converged"
        assert doc["baseline_converged"] is True
        assert 0 < doc["baseline_iterations"] <= 500

    def test_degenerate_market_exit(self, tmp_path):
        # gigantic linear cost drives every bid to zero in one step
        path = tmp_path / "bad.json"
        assert cli("gen", "--seed", "3", "--tes", "10", "--ess", "3",
                   "--slots", "4", "--param", "a1=1e9", "-o",
                   str(path)).returncode == 0
        out = cli("run", "--scenario", str(path), "--out-dir",
                  str(tmp_path / "deg"))
        assert out.returncode == 4
        assert "degenerate" in out.stderr.lower()
        assert "slot" in out.stderr

    def test_overflowing_bid_step(self, tmp_path):
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "--tes", "20", "--ess", "3",
                   "--slots", "4", "-o", str(path)).returncode == 0
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir),
                  "--param", "solver.eta1_init=1e308")
        assert out.returncode == 4
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, out.stderr
        assert lines[0].startswith("ERROR ") and "overflowed" in lines[0]
        assert re.search(r"slot \d+, iteration \d+", lines[0])
        assert not (out_dir / "result.json").exists()

    def test_non_finite_scenario_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        save_scenario(path, generate_scenario(GenerationParams(
            num_te=20, num_es=3, num_slots=4, seed=1)))
        doc = json.loads(path.read_text())
        doc["base_demand"][0][0] = float("nan")
        doc["utility_w"][1][1] = float("inf")
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir))
        assert out.returncode == 1
        assert "utility_w" in out.stderr and "base_demand" in out.stderr
        assert not (out_dir / "result.json").exists()

    def test_missing_scenario(self, tmp_path):
        out = cli("run", "--scenario", str(tmp_path / "nope.json"),
                  "--out-dir", str(tmp_path / "o"))
        assert out.returncode == 1

    def test_bad_override(self, small_scenario, tmp_path):
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o"), "--param", "solver.epsilon=-1")
        assert out.returncode == 2

    @pytest.mark.parametrize("param", ["solver.epsilon=abc",
                                       "solver.max_iterations=2.5",
                                       "solver.epsilon=true",
                                       "solver.lambda_init=nan"])
    def test_mistyped_override(self, small_scenario, tmp_path, param):
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o"), "--param", param)
        assert out.returncode == 2
        assert param.split("=")[0] in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("field,value", [("epsilon", "abc"),
                                             ("relative_stopping", "yes")])
    def test_mistyped_solver_block(self, small_scenario, tmp_path, field,
                                   value):
        doc = json.loads(small_scenario.read_text())
        doc["solver"][field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        out = cli("run", "--scenario", str(path), "--out-dir",
                  str(tmp_path / "o"))
        assert out.returncode == 1
        assert f"solver.{field}" in out.stderr
        assert "Traceback" not in out.stderr

    def test_one_error_line(self, tmp_path):
        out = cli("run", "--scenario", str(tmp_path / "missing.json"),
                  "--out-dir", str(tmp_path / "o"))
        assert out.returncode == 1
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, out.stderr
        assert lines[0].startswith("ERROR ") and "missing.json" in lines[0]


class TestOracle:
    def test_symmetric_hand_scenario(self, tmp_path):
        # one customer, L = 30 per slot, three near-linear unit-cost
        # suppliers: equilibrium price 2
        cfg = SolverConfig()
        s = generate_scenario(GenerationParams(
            num_te=1, num_es=3, num_slots=1, seed=1,
            base_demand_range=(29.0, 29.0),
            shiftable_fraction_range=(1.0 / 29.0, 1.0 / 29.0),
            a2_range=(1e-12, 1e-12), a1=1.0, solver=cfg))
        path = tmp_path / "sym.json"
        save_scenario(path, s)
        report_path = tmp_path / "rep.json"
        out = cli("oracle", "--scenario", str(path), "-o", str(report_path))
        assert out.returncode == 0, out.stderr
        doc = json.loads(report_path.read_text())
        assert doc["passed"]
        assert doc["slots"]["0"]["price"] == pytest.approx(2.0, rel=1e-6)

    def test_two_supplier_exit(self, tmp_path):
        s = generate_scenario(GenerationParams(
            num_te=2, num_es=2, num_slots=2, seed=1))
        path = tmp_path / "m2.json"
        save_scenario(path, s)
        out = cli("oracle", "--scenario", str(path),
                  "-o", str(tmp_path / "r.json"))
        assert out.returncode == 5

    def test_perturbed_result_flagged(self, tmp_path):
        # schedule tuned so the run truly reaches the bilateral
        # equilibrium; the untouched result then certifies clean
        scn = tmp_path / "s.json"
        assert cli("gen", "--seed", "4", "--tes", "6", "--ess", "3",
                   "--slots", "4",
                   "--param", "solver.eta1_init=5",
                   "--param", "solver.eta1_decay=1.0",
                   "--param", "solver.eta2_init=200",
                   "--param", "solver.eta2_decay=1.0",
                   "--param", "solver.epsilon=1e-3",
                   "--param", "solver.lambda_init=200",
                   "--param", "solver.max_iterations=300000",
                   "-o", str(scn)).returncode == 0
        run_dir = tmp_path / "run"
        assert cli("run", "--scenario", str(scn), "--out-dir",
                   str(run_dir)).returncode == 0
        clean = cli("oracle", "--scenario", str(scn), "--result",
                    str(run_dir), "-o", str(tmp_path / "ok.json"))
        assert clean.returncode == 0, clean.stderr

        # move one customer's demand heavily into slot 0, keeping its
        # daily total, then expect a best-response gain above 0.1%
        demands = (run_dir / "demands.csv").read_text().splitlines()
        header, rows = demands[0], [r.split(",") for r in demands[1:]]
        te0 = [r for r in rows if r[0] == "0"]
        total = sum(float(r[3]) for r in te0)
        for r in rows:
            if r[0] == "0":
                r[3] = repr(total) if r[1] == "0" else repr(0.0)
        (run_dir / "demands.csv").write_text(
            "\n".join([header] + [",".join(r) for r in rows]) + "\n")
        flagged = cli("oracle", "--scenario", str(scn), "--result",
                      str(run_dir), "-o", str(tmp_path / "bad.json"))
        assert flagged.returncode == 6
        doc = json.loads((tmp_path / "bad.json").read_text())
        assert doc["best_response"]["worst_relative_gain"] > 1e-3

    def test_negative_probes_rejected(self, small_scenario, tmp_path):
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--probes", "-5", "--samples", "5", "-o", str(report_path))
        assert out.returncode == 2
        assert "probe" in out.stderr
        assert not report_path.exists()

    def test_stdout_carries_only_paths(self, small_scenario, tmp_path):
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--samples", "5", "-o", str(report_path))
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str(report_path)

    def test_truncated_bundle_rejected(self, small_scenario, small_bundle,
                                       tmp_path):
        # rows missing from demands.csv must not certify initial demand
        bundle = tmp_path / "cut"
        bundle.mkdir()
        lines = (small_bundle / "demands.csv").read_text().splitlines()
        (bundle / "demands.csv").write_text("\n".join(lines[:-10]) + "\n")
        (bundle / "bids.csv").write_bytes(
            (small_bundle / "bids.csv").read_bytes())
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--samples", "5", "--result", str(bundle),
                  "-o", str(report_path))
        assert out.returncode == 1
        assert "demands.csv" in out.stderr and "missing" in out.stderr
        assert not report_path.exists()

    def test_out_of_range_id_rejected(self, small_scenario, small_bundle,
                                      tmp_path):
        bundle = tmp_path / "oor"
        bundle.mkdir()
        (bundle / "demands.csv").write_bytes(
            (small_bundle / "demands.csv").read_bytes())
        lines = (small_bundle / "bids.csv").read_text().splitlines()
        lines[-1] = "4" + lines[-1][lines[-1].index(","):]  # M = 4
        (bundle / "bids.csv").write_text("\n".join(lines) + "\n")
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--samples", "5", "--result", str(bundle),
                  "-o", str(tmp_path / "r.json"))
        assert out.returncode == 1
        assert "bids.csv" in out.stderr and "out of range" in out.stderr
        assert "Traceback" not in out.stderr


    @pytest.mark.parametrize("name", ["demands.csv", "bids.csv"])
    def test_non_finite_value_rejected(self, small_scenario, small_bundle,
                                       tmp_path, name):
        bundle = tmp_path / "nan"
        bundle.mkdir()
        for csv in ("demands.csv", "bids.csv"):
            lines = (small_bundle / csv).read_text().splitlines()
            if csv == name:
                lines[1] = lines[1][:lines[1].rindex(",")] + ",nan"
            (bundle / csv).write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--samples", "5", "--result", str(bundle),
                  "-o", str(report_path))
        assert out.returncode == 1
        assert f"{name}, line 2" in out.stderr and "non-finite" in out.stderr
        assert not report_path.exists()


def readme_cli_flags() -> dict:
    """Flags each subcommand shows in the README's CLI code block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    code = "\n".join(line for line in block.splitlines()
                     if not line.lstrip().startswith("#"))
    flags: dict = {}
    for command, body in re.findall(r"mec-bazaar (\w+)(.*?)(?=mec-bazaar |\Z)",
                                    code, flags=re.S):
        flags.setdefault(command, set()).update(
            re.findall(r"(?<![\w-])--?[a-z][\w-]*", body))
    return flags


def test_readme_cli_block_matches_parser():
    documented = readme_cli_flags()
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(documented) == set(sub.choices)
    for command, parser in sub.choices.items():
        known = parser._option_string_actions
        stale = documented[command] - set(known)
        assert not stale, f"README shows {command} {sorted(stale)}"
        shown = {known[flag].dest for flag in documented[command]}
        options = {a.dest for a in parser._actions
                   if a.option_strings and a.dest != "help"}
        assert shown == options, (
            f"README omits {command} options {sorted(options - shown)}")
