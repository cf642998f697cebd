"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env, cli
from mec_bazaar.cli import build_parser
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from mec_bazaar.market_model import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"
DATA = Path(__file__).resolve().parent / "data"
HUGE = 10 ** 400  # an integer too large for a float


def error_line(out) -> str:
    """The single ``ERROR ...`` line a failing command writes."""
    lines = [line for line in out.stderr.splitlines() if line.strip()]
    assert len(lines) == 1, out.stderr
    assert lines[0].startswith("ERROR "), out.stderr
    return lines[0]


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


@pytest.fixture(scope="module")
def certified_market(tmp_path_factory):
    """Criterion 9's market, whose run the oracle certifies."""
    root = tmp_path_factory.mktemp("certified")
    scn, run_dir = root / "s.json", root / "run"
    assert cli("gen", "--seed", "9", "--tes", "5", "--ess", "3",
               "--slots", "4",
               "--param", "solver.eta1_init=5",
               "--param", "solver.eta1_decay=1.0",
               "--param", "solver.eta2_init=200",
               "--param", "solver.eta2_decay=1.0",
               "--param", "solver.epsilon=1e-3",
               "--param", "solver.lambda_init=200",
               "--param", "solver.max_iterations=300000",
               "-o", str(scn)).returncode == 0
    assert cli("run", "--scenario", str(scn), "--out-dir",
               str(run_dir)).returncode == 0
    return scn, run_dir


class TestGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli("gen", "--seed", "7", "--tes", "10", "--ess", "3",
                   "--slots", "4", "-o", str(a)).returncode == 0
        assert cli("gen", "--seed", "7", "--tes", "10", "--ess", "3",
                   "--slots", "4", "-o", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert Path(f"{a}.cache").read_bytes() == \
            Path(f"{b}.cache").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="needs /dev/stdout")
    @pytest.mark.parametrize("sink", ["pipe", "file"])
    def test_output_to_stdout(self, tmp_path, sink):
        # /dev/stdout gets no companion, whether stdout is a pipe or a
        # regular file
        before = set(os.listdir("/dev"))
        with open(tmp_path / "out", "w") as fh:
            out = subprocess.run(
                [sys.executable, "-m", "mec_bazaar.cli", "gen", "--tes", "2",
                 "--ess", "2", "--slots", "2", "-o", "/dev/stdout"],
                stdout=subprocess.PIPE if sink == "pipe" else fh,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env=child_env())
        assert out.returncode == 0, out.stderr
        if sink == "pipe":
            text, path = out.stdout.splitlines()
            assert json.loads(text)["num_te"] == 2 and path == "/dev/stdout"
        assert set(os.listdir("/dev")) == before
        assert os.listdir(tmp_path) == ["out"]

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

    def test_reference_scenario_bytes_pinned(self, tmp_path):
        # any change to a byte of the scenario format (a spelling, a
        # separator, a draw) changes this digest
        path = tmp_path / "ref.json"
        assert cli("gen", "--seed", "1", "-o", str(path)).returncode == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a3dcedf2fd8f9d9daac126074dc9380a317c14fb8360053700b9bcebb91d1e26")

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

    def test_unknown_solver_param_same_error_as_run(self, small_scenario,
                                                    tmp_path):
        # gen and run read solver.* keys in one place
        gen = cli("gen", "--seed", "2", "--tes", "5", "--param",
                  "solver.bogus=1", "-o", str(tmp_path / "x.json"))
        run = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o"), "--param", "solver.bogus=1")
        assert gen.returncode == run.returncode == 2
        assert error_line(gen) == error_line(run)
        assert "'solver.bogus'" in error_line(gen)
        assert not any(tmp_path.iterdir())

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


    def test_zero_load_slot_rejected(self, tmp_path):
        # no base demand and nothing to shift leaves every slot without
        # load, so no slot has a price and PAR is undefined
        path = tmp_path / "x.json"
        out = cli("gen", "--seed", "1", "--tes", "3", "--ess", "2",
                  "--slots", "3",
                  "--param", "base_demand_range_lo=0",
                  "--param", "base_demand_range_hi=0",
                  "--param", "shiftable_fraction_range_lo=0",
                  "--param", "shiftable_fraction_range_hi=0",
                  "-o", str(path))
        assert out.returncode == 2
        assert "slot 0 has no load" in error_line(out)
        assert not path.exists()

    @pytest.mark.parametrize("key", ["a1", "solver.epsilon"])
    def test_huge_integer_param_rejected(self, tmp_path, key):
        out = cli("gen", "--seed", "2", "--tes", "5", "--param",
                  f"{key}={HUGE}", "-o", str(tmp_path / "x.json"))
        assert out.returncode == 2
        assert key in error_line(out)
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
        # the retired flags are bad flags; --param sets both fields
        for flag, value in (("--epsilon", "1e-12"), ("--max-iter", "5")):
            out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                      str(tmp_path / "o1"), flag, value)
            assert out.returncode == 2
            assert flag in error_line(out)
            assert not (tmp_path / "o1").exists()
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o2"), "--param", "solver.epsilon=1e-12",
                  "--param", "solver.max_iterations=5")
        assert out.returncode == 3
        doc = json.loads((tmp_path / "o2" / "result.json").read_text())
        assert doc["status"] == "iteration-cap-reached"
        assert doc["iterations"] == 5
        assert doc["epsilon"] == 1e-12

    def test_baseline_cap_reported(self, small_scenario, tmp_path):
        out_dir = tmp_path / "o5"
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(out_dir), "--param", "solver.max_iterations=5")
        assert out.returncode == 3
        doc = json.loads((out_dir / "manifest.json").read_text())
        assert doc["baseline_converged"] is False
        assert doc["baseline_iterations"] == 5
        assert "WARNING baseline" in out.stderr

    def test_blas_thread_invariant_bundles(self, tmp_path):
        # the stopping norms must not go through a threaded BLAS dot
        # product, whose summation order follows its thread count
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "-o", str(path)).returncode == 0
        bundles = []
        for threads in ("1", "2"):
            out_dir = tmp_path / f"blas{threads}"
            env = {"OPENBLAS_NUM_THREADS": threads}
            out = cli("run", "--scenario", str(path), "--out-dir",
                      str(out_dir), env=env)
            assert out.returncode == 0, out.stderr
            bundles.append({name: (out_dir / name).read_bytes() for name in
                            ("result.json", "trace.csv", "demands.csv",
                             "bids.csv")})
        for name, data in bundles[0].items():
            assert data == bundles[1][name], name

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
        assert set(doc) == {
            "tool_version", "scenario_path", "scenario_sha256", "seed",
            "overrides", "started", "finished", "runtime_seconds", "status",
            "iterations", "baseline_converged", "baseline_iterations"}

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

    def test_bid_step_with_overflowing_norm(self, tmp_path):
        # the bids stay finite (about 3e300), but the step's Frobenius
        # norm does not: one supplier would take the whole load
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "--tes", "20", "--ess", "3",
                   "--slots", "4", "-o", str(path)).returncode == 0
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir),
                  "--param", "solver.eta1_init=1e300")
        assert out.returncode == 4
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, out.stderr
        assert lines[0].startswith("ERROR ") and "overflowed" in lines[0]
        assert re.search(r"slot \d+, iteration 1\b", lines[0])
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
                                       "solver.lambda_init=nan",
                                       "solver.eta1_init=abc",
                                       "solver.eta2_init=true",
                                       "solver.eta1_init=nan",
                                       "solver.eta2_init=0",
                                       "solver.eta1_init=-0.05",
                                       # retired keys are unknown keys
                                       "solver.singularity_delta=1e-6",
                                       "solver.relative_stopping=false",
                                       # a field is set only as solver.*
                                       "epsilon=0.1",
                                       "max_iterations=5"])
    def test_mistyped_override(self, small_scenario, tmp_path, param):
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o"), "--param", param)
        assert out.returncode == 2
        assert param.split("=")[0] in error_line(out)
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "o" / "result.json").exists()

    def test_huge_integer_override_rejected(self, small_scenario, tmp_path):
        out = cli("run", "--scenario", str(small_scenario), "--out-dir",
                  str(tmp_path / "o"), "--param", f"solver.epsilon={HUGE}")
        assert out.returncode == 2
        assert "solver.epsilon" in error_line(out)
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize("field,value", [("epsilon", "abc"),
                                             ("relative_stopping", "yes"),
                                             ("relative_stopping", True),
                                             ("relative_stopping", 0),
                                             ("singularity_delta", 0.01),
                                             ("eta1_init", "abc"),
                                             ("eta2_init", True),
                                             ("eta1_init", float("nan")),
                                             ("eta2_init", 0),
                                             ("eta1_init", -0.05)])
    def test_mistyped_solver_block(self, small_scenario, tmp_path, field,
                                   value):
        doc = json.loads(small_scenario.read_text())
        doc["solver"][field] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        out = cli("run", "--scenario", str(path), "--out-dir",
                  str(tmp_path / "o"))
        assert out.returncode == 1
        assert f"solver.{field}" in error_line(out)
        assert "Traceback" not in out.stderr

    def test_retired_solver_keys_at_old_values(self, small_scenario,
                                               small_bundle, tmp_path):
        # a file written before the two keys were retired holds each at
        # its one value; it loads, and runs to the same bundle
        doc = json.loads(small_scenario.read_text())
        doc["solver"].update(singularity_delta=1e-6, relative_stopping=False)
        path = tmp_path / "older.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir))
        assert out.returncode == 0, out.stderr
        for name in ("result.json", "trace.csv", "demands.csv", "bids.csv"):
            assert ((out_dir / name).read_bytes()
                    == (small_bundle / name).read_bytes()), name

    def test_null_steps_accepted(self, small_scenario, small_bundle,
                                 tmp_path):
        # gen writes the scale-free default as null; so does --param
        doc = json.loads(small_scenario.read_text())
        assert doc["solver"]["eta1_init"] is None
        assert doc["solver"]["eta2_init"] is None
        doc["solver"].update(eta1_init=0.05, eta2_init=0.01)
        path = tmp_path / "absolute.json"
        path.write_text(json.dumps(doc))
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir),
                  "--param", "solver.eta1_init=null",
                  "--param", "solver.eta2_init=null")
        assert out.returncode == 0, out.stderr
        for name in ("result.json", "trace.csv", "demands.csv", "bids.csv"):
            assert ((out_dir / name).read_bytes()
                    == (small_bundle / name).read_bytes()), name

    def test_absolute_steps_keep_bundle(self, tmp_path):
        # an explicit absolute schedule (the defaults before steps were
        # sized per slot) takes the path it always took. Its bundle
        # matches the one the solver wrote before its customer phase
        # went slot-major (data/absolute_steps_parent.npz, the numbers of
        # the four files at commit 5104ce6): the same status and
        # iteration count and every number within 1e-12 relative. The
        # demand-step norms (trace.csv's frobenius_delta, result.json's
        # final_delta) are not held to that commit: each is the norm of
        # a difference of two close demand matrices and moved by up to
        # 1.0e-10 relative. The new bits of all four files are pinned.
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1",
                   "--param", "solver.eta1_init=0.05",
                   "--param", "solver.eta2_init=0.01",
                   "-o", str(path)).returncode == 0
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir))
        assert out.returncode == 0, out.stderr
        doc = json.loads((out_dir / "result.json").read_text())
        assert doc["status"] == "converged"
        assert doc["iterations"] == 340

        def table(name, slots):
            rows = np.loadtxt(out_dir / name, delimiter=",", skiprows=1)
            return rows[:, -1].reshape(-1, slots)

        trace = np.loadtxt(out_dir / "trace.csv", delimiter=",",
                           skiprows=1)
        new = {key: np.array(doc[key]) for key in (
            "load", "price", "es_daily_profit", "es_daily_revenue",
            "te_daily_payout", "te_payoff")}
        new.update(
            demand=table("demands.csv", 24), bids=table("bids.csv", 24),
            trace_price=trace[:, 2].reshape(-1, 24),
            trace_load=trace[:, 3].reshape(-1, 24),
            trace_eta1=trace[::24, 5], trace_eta2=trace[::24, 6])
        with np.load(DATA / "absolute_steps_parent.npz") as parent:
            old = dict(parent)
        assert set(old) == set(new)
        for key, want in new.items():
            np.testing.assert_allclose(want, old[key], rtol=1e-12, atol=0,
                                       err_msg=key)
        digests = {name: hashlib.sha256((out_dir / name).read_bytes())
                   .hexdigest() for name in ("result.json", "trace.csv",
                                             "demands.csv", "bids.csv")}
        assert digests == {
            "result.json": "9841cee35e1bb1407c425012a1520f210baea14a27c514"
                           "f468c2822930d73311",
            "trace.csv": "92cda01d485c083281af99c87cc93e2d4801a1c50afc7aee"
                         "55beb564ad0315e0",
            "demands.csv": "4ea66710c87d6d1d53b2901aa9109c6e3ab416da08afca"
                           "828d388b1436b3639a",
            "bids.csv": "4fbdb9d0b8280746d571d0ca2574873c6e2f0e64612e46e4"
                        "7d950095d0a86a34",
        }

    def test_default_schedule_bundle_pinned(self, tmp_path):
        # the reference run (gen --seed 1, default run): any change to a
        # bit the solver computes or to a byte of the format changes
        # these digests
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "-o", str(path)).returncode == 0
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir))
        assert out.returncode == 0, out.stderr
        digests = {name: hashlib.sha256((out_dir / name).read_bytes())
                   .hexdigest() for name in ("result.json", "trace.csv",
                                             "demands.csv", "bids.csv")}
        assert digests == {
            "result.json": "8327f1a221ec5f2ef3ca4eab359920a9c459fdb7b597d4"
                           "f9a15c023b4df4db83",
            "trace.csv": "53a70a2fd4faaed477b8113ac27c2f70293cdc35f83a2371"
                         "307829dc7b63adcf",
            "demands.csv": "a34ddf84fe35037bd89814ecda2e6204171a3ebef2dcca"
                           "1d0c06d10a0e460071",
            "bids.csv": "e44f1be70cefdecacfee90602c542c3ce3dfe55cd9bdc431"
                        "0bf13b06c1785f58",
        }

    def test_bid_past_rivals_sum_exit(self, tmp_path):
        # a huge but finite bid step leaves one supplier holding every
        # bid once the run settles: Lemma 1's region is left
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "--tes", "20", "--ess", "3",
                   "--slots", "4", "-o", str(path)).returncode == 0
        out_dir = tmp_path / "o"
        out = cli("run", "--scenario", str(path), "--out-dir", str(out_dir),
                  "--param", "solver.eta1_init=1e150")
        assert out.returncode == 4
        line = error_line(out)
        assert "degenerate market" in line and "rivals' sum" in line
        assert re.search(r"slot \d+, iteration \d+", line)
        assert not out_dir.exists()

    def test_one_error_line(self, tmp_path):
        out = cli("run", "--scenario", str(tmp_path / "missing.json"),
                  "--out-dir", str(tmp_path / "o"))
        assert out.returncode == 1
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        assert len(lines) == 1, out.stderr
        assert lines[0].startswith("ERROR ") and "missing.json" in lines[0]


def load_with(command, path, tmp_path):
    """``run`` or ``oracle`` on the scenario at ``path``."""
    if command == "run":
        return cli("run", "--scenario", str(path), "--out-dir",
                   str(tmp_path / "o"))
    return cli("oracle", "--scenario", str(path), "--slot", "0",
               "--samples", "5", "-o", str(tmp_path / "r.json"))


@pytest.mark.parametrize("command", ["run", "oracle"])
class TestMalformedScenario:
    """A scenario that fails to load exits 1 with one line naming the file."""

    def write(self, small_scenario, tmp_path, edit):
        doc = json.loads(small_scenario.read_text())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    def test_shape_not_matching_counts(self, small_scenario, tmp_path,
                                       command):
        path = self.write(small_scenario, tmp_path,
                          lambda doc: doc.update(num_te=doc["num_te"] - 1))
        out = load_with(command, path, tmp_path)
        assert out.returncode == 1
        line = error_line(out)
        assert str(path) in line
        assert "utility_w has shape (40, 6), expected (39, 6)" in line

    def test_zero_load_slot(self, small_scenario, tmp_path, command):
        def edit(doc):
            # empty slot 2 and keep every row's shiftable total consistent
            for name in ("base_demand", "initial_demand"):
                for row in doc[name]:
                    row[2] = 0.0
            doc["shiftable_total"] = [sum(row)
                                      for row in doc["initial_demand"]]
        path = self.write(small_scenario, tmp_path, edit)
        out = load_with(command, path, tmp_path)
        assert out.returncode == 1
        line = error_line(out)
        assert str(path) in line and "slot 2 has no load" in line
        assert not (tmp_path / "o").exists()

    def test_huge_integer_in_table(self, small_scenario, tmp_path, command):
        def edit(doc):
            doc["utility_w"][0][0] = HUGE
        out = load_with(command, self.write(small_scenario, tmp_path, edit),
                        tmp_path)
        assert out.returncode == 1
        assert "malformed array field" in error_line(out)

    def test_huge_integer_in_solver_block(self, small_scenario, tmp_path,
                                          command):
        def edit(doc):
            doc["solver"]["epsilon"] = HUGE
        out = load_with(command, self.write(small_scenario, tmp_path, edit),
                        tmp_path)
        assert out.returncode == 1
        assert "solver.epsilon" in error_line(out)


    def test_deeply_nested(self, tmp_path, command):
        path = tmp_path / "deep.json"
        depth = 100000
        path.write_text('{"utility_w": ' + "[" * depth + "]" * depth + "}")
        out = load_with(command, path, tmp_path)
        assert out.returncode == 1
        line = error_line(out)
        assert str(path) in line and "not valid JSON" in line

    def test_not_utf8(self, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"a": "\xff"}')
        out = load_with(command, path, tmp_path)
        assert out.returncode == 1
        line = error_line(out)
        assert str(path) in line and "not valid UTF-8" in line

    @pytest.mark.parametrize("name,value", [("num_es", [10]),
                                            ("num_te", float("inf")),
                                            ("seed", "x"),
                                            ("num_es", 3.9),
                                            ("seed", True)])
    def test_bad_count_or_seed_named(self, small_scenario, tmp_path,
                                     command, name, value):
        out = load_with(command, self.write(
            small_scenario, tmp_path, lambda doc: doc.update({name: value})),
            tmp_path)
        assert out.returncode == 1
        line = error_line(out)
        assert f"{name} is not an integer" in line


class TestCompanion:
    """``run`` and ``oracle`` write the same bytes whether the scenario's
    binary companion is there or not."""

    def outputs(self, scenario, tmp_path, tag):
        out_dir = tmp_path / f"out-{tag}"
        run = cli("run", "--scenario", str(scenario), "--out-dir",
                  str(out_dir))
        report = tmp_path / f"report-{tag}.json"
        oracle = cli("oracle", "--scenario", str(scenario), "--slot", "1",
                     "--samples", "5", "--result", str(out_dir), "-o",
                     str(report))
        files = {name: (out_dir / name).read_bytes() for name in
                 ("result.json", "trace.csv", "demands.csv", "bids.csv",
                  "fig_demand.csv", "fig_payout.csv", "fig_payoff.csv",
                  "fig_profit.csv", "fig_par.csv")}
        files["oracle"] = report.read_bytes()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return run.returncode, oracle.returncode, files, \
            manifest["scenario_sha256"]

    @staticmethod
    def altered(blob: bytes, case: str) -> bytes:
        """The companion ``blob`` in the layout of older saves, which
        kept the JSON text of the initial demand in a last record, or
        with the header of another digest."""
        fh = io.BytesIO(blob)
        records = []
        while fh.tell() < len(blob):
            records.append(np.lib.format.read_array(fh))
        assert len(records) == 7
        header = json.loads(records[0].tobytes())
        if case == "text record":
            text = json.dumps(records[-1].tolist()).encode()
            records.append(np.frombuffer(text, np.uint8))
            header["initial_demand_json"] = len(text)
        else:
            header["sha256"] = hashlib.sha256(b"other").hexdigest()
        records[0] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        out = io.BytesIO()
        for record in records:
            np.save(out, record)
        return out.getvalue()

    def test_same_bytes_without_companion(self, tmp_path):
        path = tmp_path / "s.json"
        assert cli("gen", "--seed", "4", "--tes", "30", "--ess", "4",
                   "--slots", "5", "-o", str(path)).returncode == 0
        companion = Path(str(path) + ".cache")
        assert companion.exists()
        blob = companion.read_bytes()
        warm = self.outputs(path, tmp_path, "warm")
        companion.unlink()
        cold = self.outputs(path, tmp_path, "cold")
        assert warm == cold
        assert warm[3] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert warm[0] == 0
        for case in ("text record", "other digest"):
            companion.write_bytes(self.altered(blob, case))
            assert self.outputs(path, tmp_path, case) == warm, case


class TestOracle:
    def test_default_reference_bundle_certifies(self, tmp_path):
        # the default schedule reaches the equilibrium it reports
        scn, run_dir = tmp_path / "s.json", tmp_path / "run"
        assert cli("gen", "--seed", "1", "-o", str(scn)).returncode == 0
        assert cli("run", "--scenario", str(scn), "--out-dir",
                   str(run_dir)).returncode == 0
        report = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(scn), "--result",
                  str(run_dir), "-o", str(report))
        assert out.returncode == 0, out.stderr
        doc = json.loads(report.read_text())
        assert doc["passed"]
        assert doc["best_response"]["worst_relative_gain"] < 1e-3
        assert len(doc["slots"]) == 24
        assert all(entry["price_gap"] < 1e-3
                   for entry in doc["slots"].values())

    def test_price_far_from_equilibrium_flagged(self, tmp_path):
        # bids started at 1e-10 stop converged with prices near 1.48e7,
        # while the supplier equilibrium at the same loads is about
        # 10.63; the customers' best responses at those prices leave no
        # gain, so only the supplier side can fail the bundle
        scn, run_dir = tmp_path / "s.json", tmp_path / "run"
        assert cli("gen", "--seed", "1", "--tes", "20", "--ess", "3",
                   "--slots", "4", "-o", str(scn)).returncode == 0
        out = cli("run", "--scenario", str(scn), "--out-dir", str(run_dir),
                  "--param", "solver.lambda_init=1e-10")
        assert out.returncode == 0, out.stderr
        report = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(scn), "--result",
                  str(run_dir), "-o", str(report))
        assert out.returncode == 6, out.stderr
        doc = json.loads(report.read_text())
        assert not doc["passed"]
        assert doc["best_response"]["worst_relative_gain"] < 1e-3
        for entry in doc["slots"].values():
            assert entry["bundle_price"] == pytest.approx(1.48e7, rel=0.01)
            assert entry["price"] == pytest.approx(10.63, rel=0.01)
            assert entry["price_gap"] > 1e6

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

    @pytest.mark.parametrize("edit, code", [
        ("none", 0), ("zero all", 6), ("halve te 0", 6), ("negative", 6),
        ("below base", 6), ("no load", 6), ("negative bid", 6),
        ("bid total below zero", 6), ("swap bids", 6)])
    def test_infeasible_demand_flagged(self, certified_market, tmp_path,
                                       edit, code):
        # the certified bundle passes; one whose rows miss shiftable_total,
        # or that moves demand below zero keeping its rows, or served
        # demand below zero keeping each slot's load, or a slot's load
        # below zero keeping the rows, must not; nor one that moves bid
        # between suppliers keeping each slot's price, nor one whose
        # negative bid takes a slot's bid total below zero
        scn, run_dir = certified_market
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        for name in ("demands.csv", "bids.csv"):
            lines = (run_dir / name).read_text().splitlines()
            rows = [r.split(",") for r in lines[1:]]
            value = np.array([float(r[-1]) for r in rows])
            te0 = np.flatnonzero([r[0] == "0" for r in rows])
            slot0 = np.flatnonzero([r[1] == "0" for r in rows])
            if name == "demands.csv" and edit == "zero all":
                value[:] = 0.0
            elif name == "demands.csv" and edit == "halve te 0":
                value[te0] /= 2
            elif name == "demands.csv" and edit == "negative":
                value[te0[1]] += value[te0[0]] + 1.0
                value[te0[0]] = -1.0
            elif name == "demands.csv" and edit == "below base":
                # customer 1 takes what customer 0 gives up at slot 0
                target = -(load_scenario(scn).base_demand[0, 0] + 1000.0)
                value[slot0[1]] += value[slot0[0]] - target
                value[slot0[0]] = target
            elif name == "demands.csv" and edit == "no load":
                # customer 0 moves to slot 1 all of slot 0's load and 1000
                load = (value[slot0]
                        + load_scenario(scn).base_demand[:, 0]).sum()
                value[te0[0]] -= load + 1000.0
                value[te0[1]] += load + 1000.0
            elif name == "bids.csv" and edit == "negative bid":
                # supplier 0's bid at slot 0 negated, supplier 1's raised
                # by twice as much: the slot's bid total stays
                value[slot0[1]] += 2 * value[slot0[0]]
                value[slot0[0]] *= -1
            elif name == "bids.csv" and edit == "bid total below zero":
                # supplier 0's bid at slot 0 is minus its rivals' and 1:
                # the slot's bid total is -1, so it has no price
                value[slot0[0]] = -(value[slot0[1:]].sum() + 1.0)
            elif name == "bids.csv" and edit == "swap bids":
                value[slot0[:2]] = value[slot0[1::-1]]
            (bundle / name).write_text("\n".join(
                [lines[0]] + [",".join(r[:-1] + [repr(float(v))])
                              for r, v in zip(rows, value)]) + "\n")
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(scn), "--result", str(bundle),
                  "-o", str(report_path))
        assert out.returncode == code, out.stderr
        doc = json.loads(report_path.read_text())
        feasibility = doc["feasibility"]
        # a slot without load has no supplier equilibrium, nor bid gap
        bid_gap = max(e.get("bid_gap", np.inf) for e in doc["slots"].values())
        assert (feasibility["max_row_sum_error"] <= 1e-9
                and feasibility["min_demand"] >= 0
                and feasibility["min_bid"] >= 0
                and bid_gap <= 1e-3) == (code == 0)
        if edit in ("negative bid", "swap bids"):
            assert doc["slots"]["0"]["price_gap"] < 1e-3
            assert doc["best_response"]["worst_relative_gain"] < 1e-3
        if edit in ("below base", "no load", "bid total below zero"):
            # negative served demand has no utility, and a slot whose bid
            # total is not positive no price, so no payoff to certify
            assert "best_response" not in doc
            assert out.stderr == ""
        if edit == "no load":
            assert doc["slots"]["0"] == {"load": pytest.approx(-1000.0)}

    def test_zero_bid_slot_is_degenerate(self, tmp_path):
        # a bundle whose bids sum to zero at a slot has no price there
        scn, run_dir = tmp_path / "s.json", tmp_path / "run"
        assert cli("gen", "--seed", "2", "--tes", "5", "--ess", "3",
                   "--slots", "4", "-o", str(scn)).returncode == 0
        assert cli("run", "--scenario", str(scn), "--out-dir",
                   str(run_dir)).returncode == 0
        lines = (run_dir / "bids.csv").read_text().splitlines()
        lines[1:] = [line[:line.rindex(",")] + ",0.0"
                     if line.split(",")[1] == "0" else line
                     for line in lines[1:]]
        (run_dir / "bids.csv").write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(scn), "--result",
                  str(run_dir), "-o", str(report_path))
        assert out.returncode == 4
        assert "all bids are zero at slot 0" in error_line(out)
        assert not report_path.exists()

    def test_zero_starting_bids_are_degenerate(self, tmp_path):
        # the gradient check scales its sampled bids from lambda_init
        scn = tmp_path / "s.json"
        assert cli("gen", "--seed", "1", "--tes", "20", "--ess", "3",
                   "--slots", "4", "--param", "solver.lambda_init=0",
                   "-o", str(scn)).returncode == 0
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(scn), "-o", str(report_path))
        assert out.returncode == 4
        assert "solver.lambda_init must be positive" in error_line(out)
        assert not report_path.exists()

    @pytest.mark.parametrize("seed, slot", [("-1", None), ("-5", "4")])
    def test_negative_seed(self, tmp_path, seed, slot):
        # the oracle's draws take the seed modulo 2**64, as generation does
        scn = tmp_path / "s.json"
        assert cli("gen", f"--seed={seed}", "--tes", "10", "--ess", "3",
                   "--slots", "6", "-o", str(scn)).returncode == 0
        run = cli("run", "--scenario", str(scn), "--out-dir",
                  str(tmp_path / "run"))
        assert run.returncode == 0, run.stderr
        out = cli("oracle", "--scenario", str(scn), "-o",
                  str(tmp_path / "r.json"), *(("--slot", slot) if slot else ()))
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr

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
    def test_not_utf8_bundle_named(self, small_scenario, small_bundle,
                                   tmp_path, name):
        bundle = tmp_path / "latin1"
        bundle.mkdir()
        for csv in ("demands.csv", "bids.csv"):
            data = (small_bundle / csv).read_bytes()
            (bundle / csv).write_bytes(data + b"\xff\n" if csv == name
                                       else data)
        report_path = tmp_path / "r.json"
        out = cli("oracle", "--scenario", str(small_scenario), "--slot", "0",
                  "--samples", "5", "--result", str(bundle),
                  "-o", str(report_path))
        assert out.returncode == 1
        line = error_line(out)
        assert str(bundle / name) in line and "not valid UTF-8" in line
        assert not report_path.exists()

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


@pytest.mark.parametrize("args, named", [
    # the solver runs one numpy code path: there is no thread count
    (("run", "--scenario", "s.json", "--out-dir", "o", "--threads", "1"),
     "--threads"),
    (("gen", "--seed", "x", "-o", "s.json"), "--seed"),
    ((), "command"),
])
def test_bad_flag_one_error_line(tmp_path, args, named):
    out = cli(*(str(tmp_path / a) if a in ("s.json", "o") else a
                for a in args))
    assert out.returncode == 2
    assert named in error_line(out)
    assert not any(tmp_path.iterdir())


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
