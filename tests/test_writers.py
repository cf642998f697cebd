"""The output writers against the row-at-a-time writers they replaced.

The reference writers below spell one value at a time: ``repr`` for a
float and ``str`` otherwise in a CSV, and ``json.dump(doc, fh,
indent=1)`` for a JSON document. The block writers must write the same
bytes, and hold one block of text at a time.
"""

import _pyio
import json
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak

from mec_bazaar import _writers
from mec_bazaar._writers import write_indented_json, write_table
from mec_bazaar.bidding_games import run_dtoa
from mec_bazaar.market_model import SolverConfig
from mec_bazaar.metrics_report import build_report, compute_baseline, emit
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    save_result,
)

_NUMBERS = st.one_of(st.floats(), st.integers(-10**20, 10**20),
                     st.just(10**400))
_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3))
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=5),
    st.lists(st.lists(_NUMBERS, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3),
)


def _reference_csv(path, header, rows) -> None:
    """The CSV as written one row, and one value, at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in row) + "\n")


def _reference_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _reference_save_result(out_dir, result, scenario) -> None:
    os.makedirs(out_dir, exist_ok=True)
    econ = result.economics
    _reference_json(os.path.join(out_dir, "result.json"), {
        "status": result.status,
        "iterations": result.iterations_used,
        "final_delta": (float(result.trace.delta[-1])
                        if result.trace.delta.size else None),
        "epsilon": scenario.solver.epsilon,
        "seed": scenario.seed,
        "load": result.state.load.tolist(),
        "price": result.state.price.tolist(),
        "es_daily_profit": econ.es_profit.sum(axis=1).tolist(),
        "es_daily_revenue": econ.es_revenue.sum(axis=1).tolist(),
        "te_daily_payout": econ.te_payout.sum(axis=1).tolist(),
        "te_payoff": econ.te_payoff.tolist(),
    })
    trace = result.trace
    slots = range(scenario.num_slots)
    _reference_csv(
        os.path.join(out_dir, "trace.csv"),
        ["iteration", "slot", "price", "load", "frobenius_delta", "eta1",
         "eta2"],
        ((k + 1, t, float(trace.price[k, t]), float(trace.load[k, t]),
          float(trace.delta[k]), float(trace.eta1[k]), float(trace.eta2[k]))
         for k in range(trace.delta.size) for t in slots))
    _reference_csv(
        os.path.join(out_dir, "demands.csv"),
        ["te_id", "slot", "chi_before", "chi_after"],
        ((i, t, float(scenario.initial_demand[i, t]),
          float(result.demand[i, t]))
         for i in range(scenario.num_te) for t in slots))
    _reference_csv(
        os.path.join(out_dir, "bids.csv"), ["es_id", "slot", "lambda_final"],
        ((j, t, float(result.bids[j, t]))
         for j in range(scenario.num_es) for t in slots))


_REFERENCE_FIGURES = (
    ("fig_demand", ["slot", "load_before", "load_after"], "load"),
    ("fig_payout", ["te_id", "payout_before", "payout_after"], "te_payout"),
    ("fig_payoff", ["te_id", "payoff_before", "payoff_after"], "te_payoff"),
    ("fig_profit", ["es_id", "profit_before", "profit_after"], "es_profit"),
)


def _reference_emit(doc, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _reference_json(os.path.join(out_dir, "report.json"), doc)
    for name, header, stem in _REFERENCE_FIGURES:
        _reference_csv(
            os.path.join(out_dir, name + ".csv"), header,
            ((i, b, a) for i, (b, a) in enumerate(zip(
                doc[stem + "_before"], doc[stem + "_after"]))))
    _reference_csv(os.path.join(out_dir, "fig_par.csv"),
                   ["num_te", "par_before", "par_after"],
                   [(doc["num_te"], doc["par_before"], doc["par_after"])])


def _files(out_dir) -> dict:
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))}


_EDGE = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -1.5e-300,
         1e308, 123456.789]


def _floats(rng, *shape) -> np.ndarray:
    """Random floats of every magnitude, a third of them edge values."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    edge = rng.random(shape) < 1 / 3
    values[edge] = rng.choice(_EDGE, int(edge.sum()))
    return values


def _fake_run(rng, n, m, t, g):
    """A scenario and a result with ``n`` customers, ``m`` suppliers,
    ``t`` slots and ``g`` recorded iterations, holding edge values."""
    scenario = SimpleNamespace(
        num_te=n, num_es=m, num_slots=t, seed=7,
        solver=SolverConfig(epsilon=1e-3),
        initial_demand=_floats(rng, n, t))
    result = SimpleNamespace(
        status="converged", iterations_used=g,
        demand=_floats(rng, n, t), bids=_floats(rng, m, t),
        state=SimpleNamespace(load=_floats(rng, t), price=_floats(rng, t)),
        economics=SimpleNamespace(
            es_profit=_floats(rng, m, t), es_revenue=_floats(rng, m, t),
            te_payout=_floats(rng, n, t), te_payoff=_floats(rng, n)),
        trace=SimpleNamespace(
            price=_floats(rng, g, t), load=_floats(rng, g, t),
            delta=_floats(rng, g), eta1=_floats(rng, g),
            eta2=_floats(rng, g)))
    return scenario, result


def _fake_report(rng, n, m, t) -> dict:
    doc = {"num_te": n, "num_es": m, "iterations": 3, "status": "capped",
           "baseline_converged": False, "runtime_seconds": None,
           "note": "caf\u00e9 \u2013 \u00fc", "empty": [],
           "mixed": [1, True, None, "\u00e9", 2.5, -0.0],
           "par_before": float(rng.choice(_EDGE)), "par_after": 1.0}
    for stem, size in (("load", t), ("te_payout", n), ("te_payoff", n),
                       ("es_profit", m)):
        for side in ("before", "after"):
            doc[f"{stem}_{side}"] = _floats(rng, size).tolist()
    return doc


_BLOCK = _writers._BLOCK_LINES
_GRID_ROWS = _BLOCK // 24  # rows of a T=24 grid in one block


class TestBlockWriters:
    """The block writers write the bytes of the row-at-a-time reference:
    one row, T=1, and line counts on and off a multiple of the block."""

    @pytest.mark.parametrize("n, m, t, g", [
        (1, 2, 1, 1), (1, 2, 24, 1), (3, 2, 1, 2 * _BLOCK),
        (_BLOCK, 2, 1, _BLOCK + 1), (2 * _BLOCK + 1, 3, 1, 1),
        (2 * _GRID_ROWS, 4, 24, 2 * _GRID_ROWS + 1),
        (2 * _GRID_ROWS + 1, 4, 24, _GRID_ROWS), (5, 3, 7, 0)])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_bundle(self, tmp_path, n, m, t, g):
        scenario, result = _fake_run(np.random.default_rng(n + t + g), n, m,
                                     t, g)
        save_result(tmp_path / "got", result, scenario)
        _reference_save_result(tmp_path / "want", result, scenario)
        assert _files(tmp_path / "got") == _files(tmp_path / "want")

    @pytest.mark.parametrize("n, m, t", [
        (1, 1, 1), (_BLOCK, 2, 24), (_BLOCK + 1, _BLOCK, 1),
        (2 * _BLOCK, 3, 2 * _BLOCK + 1)])
    def test_report_and_figures(self, tmp_path, n, m, t):
        doc = _fake_report(np.random.default_rng(n + m + t), n, m, t)
        emit(doc, tmp_path / "got")
        _reference_emit(doc, tmp_path / "want")
        assert _files(tmp_path / "got") == _files(tmp_path / "want")

    def test_run_bundle_and_report(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=6, num_es=3,
                                               num_slots=4, seed=3))
        res = run_dtoa(s)
        doc = build_report(s, compute_baseline(s), res, runtime_seconds=0.5)
        save_result(tmp_path / "got", res, s)
        emit(doc, tmp_path / "got")
        _reference_save_result(tmp_path / "want", res, s)
        _reference_emit(doc, tmp_path / "want")
        assert _files(tmp_path / "got") == _files(tmp_path / "want")

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.dictionaries(st.text(max_size=3), _VALUES, max_size=6))
    def test_json_matches_json_dump(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
            write_indented_json(got, doc)
            _reference_json(want, doc)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("size", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    def test_json_arrays_and_long_lists(self, tmp_path, size):
        values = _floats(np.random.default_rng(size), size)
        doc = {"array": values, "list": values.tolist(),
               "ints": list(range(size)), "tuple": tuple(values.tolist()),
               "table": [values[:3].tolist()] * 2}
        write_indented_json(tmp_path / "got", doc)
        _reference_json(tmp_path / "want", {**doc, "array": doc["list"]})
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("size", [1, _BLOCK, 2 * _BLOCK + 1])
    def test_table(self, tmp_path, size):
        rng = np.random.default_rng(size)
        columns = [range(size), _floats(rng, size),
                   _floats(rng, size).tolist()]
        write_table(tmp_path / "got", "id,a,b", columns)
        _reference_csv(tmp_path / "want", ["id", "a", "b"], zip(
            columns[0], columns[1].tolist(), columns[2]))
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    def test_lines_end_in_lf_whatever_the_platform(self, tmp_path):
        # the pure-Python io writes os.linesep for "\n" unless the file
        # is opened with newline="\n"
        scenario, result = _fake_run(np.random.default_rng(0), 3, 2, 4, 2)
        doc = _fake_report(np.random.default_rng(0), 3, 2, 4)
        with mock.patch.object(_writers, "open", _pyio.open,
                               create=True), \
                mock.patch("os.linesep", "\r\n"):
            save_result(tmp_path, result, scenario)
            emit(doc, tmp_path)
        files = _files(tmp_path)
        assert len(files) == 10
        for name, data in files.items():
            assert b"\r" not in data, name


class TestWriterMemory:
    """Writing the bundle and the report holds one block of text at a
    time: on an N=10,000 result (240,000 lines of demands.csv) the peak
    stays below 1 KB per line of a block, and above an N=1,000 result's
    it grows by less than two float64 per added customer (a list of the
    customers' values as Python floats takes 32 bytes per value)."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for n in (1000, 10_000):
            s = generate_scenario(GenerationParams(
                num_te=n, seed=1, solver=SolverConfig(max_iterations=3)))
            res = run_dtoa(s)
            out[n] = s, res, build_report(s, compute_baseline(s), res)
        return out

    def test_save_result(self, runs, tmp_path):
        peak = {n: traced_peak(save_result, str(tmp_path / str(n)), res, s)
                for n, (s, res, _) in runs.items()}
        assert peak[10_000] < 1024 * _BLOCK
        assert peak[10_000] - peak[1000] < 16 * 9000

    def test_emit(self, runs, tmp_path):
        peak = {n: traced_peak(emit, doc, str(tmp_path / str(n)))
                for n, (_, _, doc) in runs.items()}
        assert peak[10_000] < 1024 * _BLOCK
        assert peak[10_000] - peak[1000] < 16 * 9000
