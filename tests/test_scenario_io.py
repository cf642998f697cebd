"""Unit tests for generation determinism and file round trips."""

import json

import numpy as np
import pytest

from mec_bazaar.errors import ScenarioFormatError, SchemaVersionError, DomainError
from mec_bazaar.market_model import SolverConfig
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    load_scenario,
    _write_json,
    save_result,
    save_scenario,
)


class TestGeneration:
    def test_same_seed_same_scenario(self):
        a = generate_scenario(GenerationParams(num_te=30, num_es=4,
                                               num_slots=6, seed=42))
        b = generate_scenario(GenerationParams(num_te=30, num_es=4,
                                               num_slots=6, seed=42))
        assert np.array_equal(a.base_demand, b.base_demand)
        assert np.array_equal(a.initial_demand, b.initial_demand)
        assert np.array_equal(a.cost_coeffs, b.cost_coeffs)
        assert np.array_equal(a.utility_w, b.utility_w)

    def test_different_seed_differs(self):
        a = generate_scenario(GenerationParams(num_te=5, num_es=3,
                                               num_slots=4, seed=1))
        b = generate_scenario(GenerationParams(num_te=5, num_es=3,
                                               num_slots=4, seed=2))
        assert not np.array_equal(a.base_demand, b.base_demand)

    def test_keyed_streams_are_order_independent(self):
        # entity (i, t) draws do not depend on how many other entities
        # exist, so enlarging the market preserves existing agents
        small = generate_scenario(GenerationParams(num_te=5, num_es=3,
                                                   num_slots=4, seed=11))
        large = generate_scenario(GenerationParams(num_te=9, num_es=6,
                                                   num_slots=4, seed=11))
        assert np.array_equal(small.base_demand, large.base_demand[:5])
        assert np.array_equal(small.cost_coeffs[:, 0],
                              large.cost_coeffs[:3, 0])

    def test_collapsed_ranges(self):
        p = GenerationParams(num_te=4, num_es=3, num_slots=5, seed=0,
                             base_demand_range=(100.0, 100.0),
                             shiftable_fraction_range=(0.10, 0.10),
                             a2_range=(1e-5, 1e-5), w_range=(0.9, 0.9))
        s = generate_scenario(p)
        assert np.all(s.base_demand == 100.0)
        np.testing.assert_allclose(s.initial_demand, 10.0)
        np.testing.assert_allclose(s.shiftable_total, 0.10 * 100.0 * 5)

    def test_totals_within_fraction_band(self):
        for seed in range(5):
            s = generate_scenario(GenerationParams(num_te=50, num_es=3,
                                                   num_slots=24, seed=seed))
            daily_base = s.base_demand.sum(axis=1)
            assert np.all(s.shiftable_total >= 0.10 * daily_base - 1e-9)
            assert np.all(s.shiftable_total <= 0.12 * daily_base + 1e-9)

    def test_invalid_ranges(self):
        with pytest.raises(DomainError):
            GenerationParams(base_demand_range=(10.0, 5.0)).validate()
        with pytest.raises(DomainError):
            GenerationParams(a2_range=(0.0, 1e-5)).validate()
        with pytest.raises(DomainError):
            GenerationParams(num_te=0).validate()


class TestScenarioRoundTrip:
    def test_lossless(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=7, num_es=3,
                                               num_slots=5, seed=77))
        path = tmp_path / "s.json"
        save_scenario(path, s)
        loaded = load_scenario(path)
        assert np.array_equal(loaded.base_demand, s.base_demand)
        assert np.array_equal(loaded.initial_demand, s.initial_demand)
        assert np.array_equal(loaded.cost_coeffs, s.cost_coeffs)
        assert np.array_equal(loaded.utility_w, s.utility_w)
        assert np.array_equal(loaded.shiftable_total, s.shiftable_total)
        assert loaded.solver == s.solver
        assert loaded.seed == s.seed

    def test_save_twice_identical_bytes(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=4, num_es=3,
                                               num_slots=3, seed=5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scenario(p1, s)
        save_scenario(p2, s)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_json_dump(self, tmp_path):
        params = GenerationParams(num_te=5, num_es=3, num_slots=4, seed=6)
        path = tmp_path / "s.json"
        save_scenario(path, generate_scenario(params), params)
        text = path.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_writer_matches_json_dump_on_edge_values(self):
        import io
        doc = {"empty": [], "nested": [[], [1.5, -0.0], [[1e-300]]],
               "text": "caf\u00e9 \"q\"\n", "block": {"a": [1, 2]},
               "none": None, "flag": True, "big": 1e308, "tiny": 5e-324}
        want, got = io.StringIO(), io.StringIO()
        json.dump(doc, want)
        _write_json(got, doc)
        assert got.getvalue() == want.getvalue()

    def test_negative_a2_names_field(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=3, num_es=3,
                                               num_slots=3, seed=2))
        path = tmp_path / "s.json"
        save_scenario(path, s)
        doc = json.loads(path.read_text())
        doc["cost_coeffs"][0][0] = -1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert err.value.field == "cost_coeffs"

    def test_truncated_file(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=3, num_es=3,
                                               num_slots=3, seed=2))
        path = tmp_path / "s.json"
        save_scenario(path, s)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)

    def test_schema_version_mismatch(self, tmp_path):
        s = generate_scenario(GenerationParams(num_te=3, num_es=3,
                                               num_slots=3, seed=2))
        path = tmp_path / "s.json"
        save_scenario(path, s)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError):
            load_scenario(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": 1, "num_es": 3}))
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)


class TestResultBundle:
    def test_bundle_files(self, tmp_path):
        from mec_bazaar.bidding_games import run_dtoa
        s = generate_scenario(GenerationParams(num_te=6, num_es=3,
                                               num_slots=4, seed=3))
        res = run_dtoa(s)
        paths = save_result(tmp_path / "out", res, s)
        doc = json.loads(open(paths["result"]).read())
        assert doc["status"] == res.status
        assert doc["iterations"] == res.iterations_used
        assert len(doc["te_daily_payout"]) == 6

        trace_lines = open(paths["trace"]).read().splitlines()
        assert trace_lines[0] == \
            "iteration,slot,price,load,frobenius_delta,eta1,eta2"
        assert len(trace_lines) == 1 + res.iterations_used * 4

        demand_lines = open(paths["demands"]).read().splitlines()
        assert demand_lines[0] == "te_id,slot,chi_before,chi_after"
        assert len(demand_lines) == 1 + 6 * 4

        bid_lines = open(paths["bids"]).read().splitlines()
        assert bid_lines[0] == "es_id,slot,lambda_final"
        assert len(bid_lines) == 1 + 3 * 4

    def test_demands_rows_round_trip(self, tmp_path):
        from mec_bazaar.bidding_games import run_dtoa
        s = generate_scenario(GenerationParams(num_te=6, num_es=3,
                                               num_slots=4, seed=3))
        res = run_dtoa(s)
        paths = save_result(tmp_path / "out", res, s)
        lines = open(paths["demands"]).read().splitlines()[1:]
        for k, line in enumerate(lines):
            i, t, before, after = line.split(",")
            assert (i, t) == (str(k // 4), str(k % 4))
            assert float(before) == s.initial_demand[k // 4, k % 4]
            assert float(after) == res.demand[k // 4, k % 4]

    def test_bundle_deterministic(self, tmp_path):
        from mec_bazaar.bidding_games import run_dtoa
        s = generate_scenario(GenerationParams(num_te=6, num_es=3,
                                               num_slots=4, seed=3))
        res = run_dtoa(s)
        p1 = save_result(tmp_path / "o1", res, s)
        p2 = save_result(tmp_path / "o2", res, s)
        for key in p1:
            assert open(p1[key], "rb").read() == open(p2[key], "rb").read()
