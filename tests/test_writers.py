"""The output writers against the row-at-a-time writers they replaced.

The reference writers below spell one value at a time: ``repr`` for a
float and ``str`` otherwise in a CSV, ``json.dump(doc, fh, indent=1)``
for an indented JSON document and ``json.dump(doc, fh)`` for a scenario
file. The block writers must write the same bytes, and hold one block
of text at a time.
"""

import _pyio
import io
import json
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cli, traced_peak

from mec_bazaar import _writers
from mec_bazaar._writers import (
    write_grid,
    write_indented_json,
    write_json,
    write_table,
)
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
    doc = {k: v.tolist() if isinstance(v, np.ndarray) else v
           for k, v in doc.items()}
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

    def test_manifest_and_oracle_report(self, tmp_path):
        # run's manifest and oracle's report hold only JSON values, so
        # json.dump of what they parse back to writes their bytes
        scn, out_dir = tmp_path / "s.json", tmp_path / "run"
        report = tmp_path / "oracle.json"
        for args in (("gen", "--seed", "3", "--tes", "6", "--ess", "3",
                      "--slots", "4", "-o", scn),
                     ("run", "--scenario", scn, "--out-dir", out_dir,
                      "--param", "solver.max_iterations=500"),
                     ("oracle", "--scenario", scn, "--result", out_dir,
                      "--samples", "5", "-o", report)):
            out = cli(*map(str, args))
            assert out.returncode == 0, out.stderr
        for path in (out_dir / "manifest.json", report):
            _reference_json(tmp_path / "want", json.loads(path.read_text()))
            assert path.read_bytes() == (tmp_path / "want").read_bytes()

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

    @pytest.mark.parametrize("size", [0, 1, _BLOCK, _BLOCK + 1])
    def test_json_with_tables(self, tmp_path, size):
        # a document and tables drawn from its lists, each written on its
        # own as emit writes them: one table's keys out of order and apart
        # in the document, and a second table whose keys follow one another
        rng = np.random.default_rng(size)
        a, b, c, d = (_floats(rng, size) for _ in range(4))
        doc = {"b": b.tolist(), "x": 1, "a": a, "c": c.tolist(),
               "d": d.tolist()}
        write_indented_json(tmp_path / "got.json", doc)
        write_table(tmp_path / "got1.csv", "id,a,b",
                    [range(size), doc["a"], doc["b"]])
        write_table(tmp_path / "got2.csv", "id,c,d",
                    [range(size), doc["c"], doc["d"]])
        _reference_json(tmp_path / "want.json", {**doc, "a": a.tolist()})
        _reference_csv(tmp_path / "want1.csv", ["id", "a", "b"],
                       zip(range(size), a.tolist(), b.tolist()))
        _reference_csv(tmp_path / "want2.csv", ["id", "c", "d"],
                       zip(range(size), c.tolist(), d.tolist()))
        for name in ("", "1", "2"):
            suffix = ".csv" if name else ".json"
            assert (tmp_path / f"got{name}{suffix}").read_bytes() == \
                (tmp_path / f"want{name}{suffix}").read_bytes()

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


# values at each edge of [1e-4, 1e16), the magnitudes where orjson spells
# a float as repr does, and whether a table of them is spelled by orjson
_ORJSON_EDGES = [
    ("below 1e-4", np.nextafter(1e-4, 0), False), ("1e-4", 1e-4, True),
    ("below 1e16", np.nextafter(1e16, 0), True), ("1e16", 1e16, False),
    ("5e-324", 5e-324, False), ("0.0", 0.0, True), ("-0.0", -0.0, True),
    ("nan", np.nan, False), ("inf", np.inf, False),
    ("-inf", -np.inf, False), ("2**53 + 2", 2.0**53 + 2, True)]


def _edge_table(value, rows=_GRID_ROWS + 3, slots=24) -> np.ndarray:
    """A table of ``value`` and its negation, in a checkerboard."""
    table = np.full((rows, slots), value)
    table[(np.add.outer(np.arange(rows), np.arange(slots)) % 2) == 1] *= -1
    return table


def _mixed_table() -> np.ndarray:
    """A table whose first block holds one value below 1e-4 among values
    in range, and whose later blocks hold only values in range."""
    rng = np.random.default_rng(8)
    shape = (_GRID_ROWS + 3, 24)
    table = rng.uniform(1.0, 1e6, shape) * rng.choice([-1.0, 1.0], shape)
    table[0, 5] = 4.76e-5
    return table


class TestSpellingEdges:
    """Every writer writes the bytes of the ``repr`` reference on each side
    of the range that orjson spells, on a constant 0.5 table and on a
    table that mixes blocks in and out of that range; orjson spells just
    the array blocks inside it. A list is spelled by ``repr``, or written
    whole by ``json.dumps``, with the same bytes."""

    CASES = [pytest.param(_edge_table(v), {expect}, id=name)
             for name, v, expect in _ORJSON_EDGES] + [
        pytest.param(np.full((7, 24), 0.5), {True}, id="0.5 table"),
        pytest.param(_mixed_table(), {False, True}, id="mixed")]

    @staticmethod
    def _writes(write, expect):
        """Call ``write()``; its blocks of float arrays must be spelled by
        orjson (True) or by repr (False) as the set ``expect`` says."""
        seen = set()
        spelled = _writers._spelled

        def spy(block):
            text = spelled(block)
            if isinstance(block, np.ndarray):
                seen.add(text is not None)
            return text

        with mock.patch.object(_writers, "_spelled", spy):
            write()
        assert seen == expect

    @pytest.mark.parametrize("table, expect", CASES)
    def test_json(self, table, expect):
        doc = {"table": table, "column": table[:, 0].copy(),
               "list": table[:, 1].tolist()}
        got = io.StringIO()
        self._writes(lambda: write_json(got, doc), expect)
        assert got.getvalue() == json.dumps(
            {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in doc.items()})

    @pytest.mark.parametrize("table, expect", CASES)
    def test_indented_json(self, tmp_path, table, expect):
        values = table.ravel()
        doc = {"array": values, "list": values.tolist()}
        self._writes(lambda: write_indented_json(tmp_path / "got", doc),
                     expect)
        _reference_json(tmp_path / "want", {**doc, "array": doc["list"]})
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("table, expect", CASES)
    def test_table(self, tmp_path, table, expect):
        values = table.ravel()
        columns = [range(values.size), values, values[::-1].tolist()]
        self._writes(lambda: write_table(tmp_path / "got", "id,a,b",
                                         columns), expect)
        _reference_csv(tmp_path / "want", ["id", "a", "b"], zip(
            columns[0], values.tolist(), columns[2]))
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()

    @pytest.mark.parametrize("table, expect", CASES)
    def test_grid(self, tmp_path, table, expect):
        per_row = table[:, 3].copy()
        self._writes(lambda: write_grid(tmp_path / "got", "id,slot,a,b",
                                        [table], per_row=[per_row]), expect)
        rows, slots = table.shape
        _reference_csv(tmp_path / "want", ["id", "slot", "a", "b"], (
            (i, t, float(table[i, t]), float(per_row[i]))
            for i in range(rows) for t in range(slots)))
        assert (tmp_path / "got").read_bytes() == \
            (tmp_path / "want").read_bytes()


class TestCompactJson:
    """``write_json`` writes the bytes of ``json.dump`` of the document
    with each array as its ``tolist()``: a block of rows, or of a 1-D
    array's elements, per encoder call, whatever the shape."""

    @staticmethod
    def _check(doc):
        got = io.StringIO()
        write_json(got, doc)
        assert got.getvalue() == json.dumps(
            {k: v.tolist() if isinstance(v, np.ndarray) else v
             for k, v in doc.items()})

    @pytest.mark.parametrize("rows, slots", [
        (_GRID_ROWS - 1, 24), (_GRID_ROWS, 24), (_GRID_ROWS + 1, 24),
        (3 * _GRID_ROWS - 1, 24), (3, _BLOCK + 1), (2, 2 * _BLOCK),
        (_BLOCK + 1, 1), (1, 24), (1, 1), (0, 3), (2, 0), (0, 0)])
    def test_tables(self, rows, slots):
        rng = np.random.default_rng(rows * 7 + slots)
        table = _floats(rng, rows, slots)
        self._check({"schema_version": 1, "table": table,
                     "rows": table.tolist(), "other": -table,
                     "solver": {"epsilon": 0.3, "max_iterations": 10}})

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK,
                                      _BLOCK + 1, 2 * _BLOCK + 1])
    def test_lists_and_1d_arrays(self, size):
        values = _floats(np.random.default_rng(size), size)
        self._check({"shiftable_total": values, "list": values.tolist(),
                     "ints": list(range(size)),
                     "cost_coeffs": [[1e-5, 0.001, 0.001]] * size,
                     "mixed": [None, True, "caf\u00e9", 2, 0.1] * size})

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.dictionaries(st.text(max_size=3), _VALUES, max_size=6))
    def test_matches_json_dump(self, doc):
        self._check(doc)


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
