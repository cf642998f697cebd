"""Unit tests for generation determinism and file round trips."""

import dataclasses
import hashlib
import io
import json
import os
import shutil
import stat
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak

from mec_bazaar import scenario_io
from mec_bazaar._writers import write_json
from mec_bazaar.errors import ScenarioFormatError, SchemaVersionError, DomainError
from mec_bazaar.market_model import SolverConfig
from mec_bazaar.scenario_io import (
    GenerationParams,
    generate_scenario,
    load_scenario,
    _loads,
    _TABLES,
    save_result,
    save_scenario,
)

deterministic = settings(derandomize=True, deadline=None, max_examples=300)


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
        doc = {"empty": [], "nested": [[], [1.5, -0.0], [[1e-300]]],
               "text": "caf\u00e9 \"q\"\n", "block": {"a": [1, 2]},
               "none": None, "flag": True, "big": 1e308, "tiny": 5e-324}
        want, got = io.StringIO(), io.StringIO()
        json.dump(doc, want)
        write_json(got, doc)
        assert got.getvalue() == want.getvalue()

    def test_writer_matches_json_dump_on_arrays(self):
        table = np.array([[1.5, -0.0, 1e-300], [5e-324, 1e308, 0.1],
                          [np.nan, np.inf, -np.inf]])
        doc = {"table": table, "no_rows": np.empty((0, 3)),
               "empty_rows": np.empty((2, 0)), "list": [1.0, 2]}
        want, got = io.StringIO(), io.StringIO()
        json.dump({k: v.tolist() if isinstance(v, np.ndarray) else v
                   for k, v in doc.items()}, want)
        write_json(got, doc)
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("field, value", [
        ("cost_coeffs", [[-1.0, 0.001, 0.001]] * 3), ("num_es", 1),
        ("solver.epsilon", -1), ("solver.eta1_init", 0),
        ("solver.eta2_decay", 1.5), ("solver.lambda_init", -1.0),
        ("solver.max_iterations", 0)])
    def test_negative_a2_names_field(self, tmp_path, field, value):
        # the check that fails names its field, whatever its message says
        s = generate_scenario(GenerationParams(num_te=3, num_es=3,
                                               num_slots=3, seed=2))
        path = tmp_path / "s.json"
        save_scenario(path, s)
        doc = json.loads(path.read_text())
        block, _, key = field.rpartition(".")
        (doc[block] if block else doc)[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert err.value.field == field

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

    @pytest.mark.parametrize("name,value", [
        ("num_es", [10]), ("num_te", float("inf")),
        ("num_slots", float("nan")), ("seed", {"x": 1}),
        ("num_es", 3.9), ("seed", 2.9), ("seed", True), ("num_te", False),
        ("num_slots", "3")])
    def test_bad_count_or_seed_names_field(self, tmp_path, name, value):
        path = tmp_path / "s.json"
        save_scenario(path, generate_scenario(GenerationParams(
            num_te=3, num_es=3, num_slots=3, seed=2)))
        doc = json.loads(path.read_text())
        doc[name] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert err.value.field == name
        assert f"{name} is not an integer" in str(err.value)

    def test_integral_float_count_and_seed_load(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(path, generate_scenario(GenerationParams(
            num_te=3, num_es=3, num_slots=3, seed=2)))
        doc = json.loads(path.read_text())
        doc.update(num_es=3.0, seed=2.0)
        path.write_text(json.dumps(doc))
        loaded = load_scenario(path)
        assert (loaded.num_es, loaded.seed) == (3, 2)
        assert type(loaded.num_es) is int and type(loaded.seed) is int

    def test_deeply_nested_is_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        depth = 100000
        path.write_text('{"utility_w": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(ScenarioFormatError,
                           match="not valid JSON .nested too deeply"):
            load_scenario(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": 1, "num_es": 3}))
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)


# --------------------------------------------------------------------------
# The scenario reader against json.loads
# --------------------------------------------------------------------------

_WS = st.sampled_from(["", " ", "\n", "\t", "\r\n  ", "\n\n"])
_NUMBERS = st.one_of(st.floats(), st.integers(-10**20, 10**20),
                     st.just(10**400))
_SCALARS = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3))
_VALUES = st.one_of(
    _SCALARS,
    st.integers(1, 3).flatmap(lambda c: st.lists(
        st.lists(_NUMBERS, min_size=c, max_size=c), max_size=4)),
    st.lists(_NUMBERS, max_size=4),
    st.lists(st.lists(_NUMBERS, max_size=3), max_size=4),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), _SCALARS, max_size=3),
)
_KEYS = st.sampled_from(_TABLES + (
    "schema_version", "num_es", "num_te", "seed", "solver", "", "x",
    "utility_w ", "caf\u00e9"))


def _escaped(key: str) -> str:
    return '"' + "".join(f"\\u{ord(c):04x}" for c in key) + '"'


@st.composite
def _objects(draw, pairs=st.lists(st.tuples(_KEYS, _VALUES), max_size=8)):
    """An object's text from (key, value) pairs, duplicates allowed, with
    random whitespace, escaped keys and pretty-printed values."""
    parts = [
        draw(_WS) + (_escaped(key) if draw(st.booleans()) else json.dumps(key))
        + draw(_WS) + ":" + draw(_WS)
        + json.dumps(value, indent=draw(st.sampled_from([None, 1])))
        + draw(_WS)
        for key, value in draw(pairs)]
    return draw(_WS) + "{" + (",".join(parts) or draw(_WS)) + "}" + draw(_WS)


@st.composite
def _documents(draw):
    text = draw(st.one_of(
        _objects(),
        st.builds(lambda a, v, b: a + json.dumps(v) + b, _WS, _VALUES, _WS)))
    if draw(st.booleans()):  # damage it: one character in, or one out
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(list(',:{}[]" x0'))) \
                + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def _small_scenario_text(indent=None) -> str:
    params = GenerationParams(num_te=2, num_es=2, num_slots=2, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        save_scenario(path, generate_scenario(params), params)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return text if indent is None else json.dumps(json.loads(text),
                                                  indent=indent)


@st.composite
def _scenario_texts(draw):
    """A small valid scenario, possibly with fields replaced, dropped or
    repeated."""
    pairs = list(json.loads(_small_scenario_text()).items())
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["replace", "drop", "repeat"]))
        at = draw(st.integers(0, len(pairs) - 1))
        if kind == "drop":
            del pairs[at]
        else:
            item = (pairs[at][0], draw(_VALUES))
            if kind == "replace":
                pairs[at] = item
            else:
                pairs.append(item)
    return draw(_objects(st.just(pairs)))


def _outcome(loads, text):
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        return ("JSONDecodeError", exc.msg, exc.lineno, exc.colno)


def _converts(value) -> bool:
    try:
        np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError):
        return False
    return True


def assert_reads_like_json(text):
    """``_loads`` gives json.loads's document, with each convertible table
    replaced by a bit-equal float array, or json's error at the same line
    and column."""
    want, got = _outcome(json.loads, text), _outcome(_loads, text)
    if isinstance(want, tuple):
        assert got == want
        return
    assert type(got) is type(want)
    if not isinstance(want, dict):
        assert json.dumps(got) == json.dumps(want)
        return
    assert list(got) == list(want)
    for key, value in want.items():
        if key in _TABLES and isinstance(value, list) and _converts(value):
            expect = np.asarray(value, dtype=float)
            assert isinstance(got[key], np.ndarray), key
            assert got[key].dtype == expect.dtype
            assert got[key].shape == expect.shape
            assert got[key].tobytes() == expect.tobytes()
        else:
            assert type(got[key]) is type(value), key
            assert json.dumps(got[key]) == json.dumps(value)


class TestReader:
    @deterministic
    @given(text=_documents())
    def test_agrees_with_json_loads(self, text):
        assert_reads_like_json(text)

    @pytest.mark.parametrize("indent", [None, 1])
    def test_truncated_at_every_byte(self, indent):
        text = _small_scenario_text(indent)
        for end in range(len(text) + 1):
            assert_reads_like_json(text[:end])

    @pytest.mark.parametrize("text", [
        "\ufeff{}", "", "  ", "{} {}", "{}\n\n", '{"a": 1} x', "[] ",
        "NaN", '{"utility_w": [[NaN, Infinity, -Infinity, -0.0]]}',
        '{"utility_w": [[1]], "utility_w": [[2, 3]]}',
        '{"utility_w": [[1], [2, 3]]}', '{"utility_w": [["1"]]}',
        '{"base_demand": ' + "1" * 400 + "}",
        '{"base_demand": [' + "1" * 400 + "]}",
        '{"cost_coeffs": [], "seed": [1.5]}',
    ])
    def test_edge_documents(self, text):
        assert_reads_like_json(text)

    @deterministic
    @given(text=_scenario_texts())
    def test_load_scenario_fails_as_with_json_loads(self, text):
        """The same exception type and message, or the same scenario, as
        load_scenario reading the file through json.loads."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            with mock.patch.object(scenario_io, "_loads", json.loads):
                want = _load_outcome(path)
            got = _load_outcome(path)
        if isinstance(want, tuple):
            assert got == want
            return
        assert not isinstance(got, tuple), got
        for name in _TABLES:
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes()
        assert (got.num_es, got.num_te, got.num_slots, got.seed,
                got.solver) == (want.num_es, want.num_te, want.num_slots,
                                want.seed, want.solver)


def _load_outcome(path):
    try:
        return load_scenario(path)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return (type(exc), str(exc))


# --------------------------------------------------------------------------
# The binary companion
# --------------------------------------------------------------------------

def companion(path) -> str:
    return os.fspath(path) + ".cache"


def _read_records(path) -> list:
    """Every ``.npy`` record of the file at ``path``, in order."""
    records = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            records.append(np.lib.format.read_array(fh, allow_pickle=True))
    return records


def _write_records(path, records) -> None:
    with open(path, "wb") as fh:
        for record in records:
            np.save(fh, record, allow_pickle=True)


def _assert_same_scenario(got, want):
    for name in _TABLES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(got, name).shape == getattr(want, name).shape
    assert (got.num_es, got.num_te, got.num_slots, got.seed, got.solver) \
        == (want.num_es, want.num_te, want.num_slots, want.seed, want.solver)


def _cold_outcome(path):
    """``load_scenario(path)`` with the companion moved aside."""
    aside = os.fspath(path) + ".aside"
    os.replace(companion(path), aside)
    try:
        return _load_outcome(path)
    finally:
        os.replace(aside, companion(path))


def _parsed_loads():
    """A spy on the JSON reader: its calls tell a JSON load from a
    companion load."""
    return mock.patch.object(scenario_io, "_loads", side_effect=_loads)


class TestCompanion:
    PARAMS = GenerationParams(num_te=30, num_es=4, num_slots=5, seed=11,
                              solver=SolverConfig(epsilon=0.25,
                                                  max_iterations=700))

    @pytest.fixture
    def scenario_path(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(path, generate_scenario(self.PARAMS), self.PARAMS)
        return path

    def test_written_beside_the_scenario(self, scenario_path):
        records = _read_records(companion(scenario_path))
        header = json.loads(records[0].tobytes())
        assert header["sha256"] == hashlib.sha256(
            scenario_path.read_bytes()).hexdigest()
        # the six tables, and nothing after them
        tables = records[1:]
        assert [r.dtype for r in tables] == [np.float64] * len(_TABLES)
        assert set(header) == {"sha256", "fields"}
        doc = json.loads(scenario_path.read_text())
        for name, table in zip(_TABLES, tables):
            assert table.tolist() == doc[name]

    def test_trailing_record_is_not_read(self, scenario_path):
        """A companion that keeps the JSON text of initial_demand in a
        last record, as older saves wrote it, loads without the JSON."""
        records = _read_records(companion(scenario_path))
        header = json.loads(records[0].tobytes())
        text = json.dumps(records[-1].tolist()).encode()
        header["initial_demand_json"] = len(text)
        records[0] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        _write_records(companion(scenario_path),
                       [*records, np.frombuffer(text, np.uint8)])
        with _parsed_loads() as spy:
            warm = load_scenario(scenario_path)
        assert spy.call_count == 0
        _assert_same_scenario(warm, generate_scenario(self.PARAMS))

    def test_warm_load_bit_equal_to_cold_load(self, scenario_path):
        with _parsed_loads() as spy:
            warm = load_scenario(scenario_path)
        assert spy.call_count == 0
        cold = _cold_outcome(scenario_path)
        _assert_same_scenario(warm, cold)
        _assert_same_scenario(warm, generate_scenario(self.PARAMS))

    def test_digest_is_of_the_file(self, scenario_path):
        want = hashlib.sha256(scenario_path.read_bytes()).hexdigest()
        _, warm = load_scenario(scenario_path, with_digest=True)
        os.remove(companion(scenario_path))
        _, cold = load_scenario(scenario_path, with_digest=True)
        assert warm == cold == want

    def test_without_companion_the_file_is_read_once(self, scenario_path):
        """With no companion, a load hashes the file only when asked for
        its digest."""
        os.remove(companion(scenario_path))
        with mock.patch.object(scenario_io, "_sha256",
                               side_effect=scenario_io._sha256) as spy:
            load_scenario(scenario_path)
            assert spy.call_count == 0
            load_scenario(scenario_path, with_digest=True)
            assert spy.call_count == 1

    def test_one_byte_edit_reads_the_json(self, scenario_path):
        """Every one-byte edit gives the JSON's scenario or its error,
        exactly as with no companion beside the file."""
        text = scenario_path.read_bytes()
        rng = np.random.default_rng(5)
        for at in rng.choice(len(text), size=40, replace=False):
            for byte in (b"7", b"[", b" "):
                if text[at:at + 1] == byte:
                    continue
                scenario_path.write_bytes(text[:at] + byte + text[at + 1:])
                got, want = _load_outcome(scenario_path), \
                    _cold_outcome(scenario_path)
                if isinstance(want, tuple):
                    assert got == want
                else:
                    _assert_same_scenario(got, want)

    def test_edited_value_is_the_jsons(self, scenario_path):
        doc = json.loads(scenario_path.read_text())
        doc["utility_w"][2][3] = 0.875
        doc["seed"] = 12
        scenario_path.write_text(json.dumps(doc) + "\n")
        loaded = load_scenario(scenario_path)
        assert loaded.utility_w[2, 3] == 0.875
        assert loaded.seed == 12

    @pytest.mark.parametrize("damage", [
        "empty", "truncated header", "truncated table", "last byte cut",
        "garbage", "garbage after magic", "member missing",
        "object table", "int table", "big-endian table", "header not json",
        "other digest", "other scenario"])
    def test_bad_companion_falls_back_to_json(self, scenario_path, tmp_path,
                                              damage):
        path = companion(scenario_path)
        blob = open(path, "rb").read()
        records = _read_records(path)
        rng = np.random.default_rng(3)
        if damage == "empty":
            blob = b""
        elif damage == "truncated header":
            blob = blob[:40]
        elif damage == "truncated table":
            blob = blob[:len(blob) // 2]
        elif damage == "last byte cut":
            blob = blob[:-1]
        elif damage == "garbage":
            blob = rng.bytes(len(blob))
        elif damage == "garbage after magic":
            blob = blob[:8] + rng.bytes(len(blob) - 8)
        if damage == "member missing":
            _write_records(path, records[:-1])
        elif damage in ("object table", "int table", "big-endian table"):
            dtype = {"object table": object, "int table": np.int64,
                     "big-endian table": ">f8"}[damage]
            records[3] = records[3].astype(dtype)
            _write_records(path, records)
        elif damage == "header not json":
            records[0] = np.frombuffer(b"{not json", np.uint8)
            _write_records(path, records)
        elif damage == "other digest":
            header = json.loads(records[0].tobytes())
            header["sha256"] = hashlib.sha256(b"other").hexdigest()
            records[0] = np.frombuffer(json.dumps(header).encode(), np.uint8)
            _write_records(path, records)
        elif damage == "other scenario":
            params = dataclasses.replace(self.PARAMS, seed=12)
            other = tmp_path / "other.json"
            save_scenario(other, generate_scenario(params), params)
            os.replace(companion(other), path)
        else:
            with open(path, "wb") as fh:
                fh.write(blob)
        with _parsed_loads() as spy:
            got = load_scenario(scenario_path)
        assert spy.call_count == 1
        _assert_same_scenario(got, generate_scenario(self.PARAMS))

    @pytest.mark.parametrize("retired,loads", [
        ({"singularity_delta": 1e-6, "relative_stopping": False}, True),
        ({"relative_stopping": True}, False),
        ({"singularity_delta": 0.01}, False)])
    def test_retired_solver_keys(self, scenario_path, retired, loads):
        """A file and companion written while the solver block still held
        ``singularity_delta`` and ``relative_stopping``: each key at its
        one old value is dropped, any other value refused naming it,
        alike from the companion and from the JSON."""
        doc = json.loads(scenario_path.read_text())
        doc["solver"].update(retired)
        text = json.dumps(doc)
        scenario_path.write_text(text)
        scenario_io._write_companion(
            scenario_path, doc, hashlib.sha256(text.encode()).hexdigest())
        with _parsed_loads() as spy:
            warm = _load_outcome(scenario_path)
        assert spy.call_count == 0
        cold = _cold_outcome(scenario_path)
        if loads:
            _assert_same_scenario(warm, generate_scenario(self.PARAMS))
            _assert_same_scenario(cold, generate_scenario(self.PARAMS))
        else:
            assert warm == cold
            assert warm[0] is ScenarioFormatError
            assert f"solver.{next(iter(retired))}" in warm[1]

    def test_keyed_to_the_bytes_written(self, scenario_path, tmp_path):
        """A save that another save overwrites before its companion is
        written leaves a companion that does not match the file, so the
        load reads the JSON on disk."""
        params = dataclasses.replace(self.PARAMS, seed=12)
        other = tmp_path / "other.json"
        save_scenario(other, generate_scenario(params), params)
        is_regular = stat.S_ISREG

        def overwritten_first(mode):
            # the save asks whether its path is a regular file once the
            # JSON is closed and before the companion is written
            shutil.copyfile(other, scenario_path)
            return is_regular(mode)

        with mock.patch("stat.S_ISREG", overwritten_first):
            save_scenario(scenario_path, generate_scenario(self.PARAMS),
                          self.PARAMS)
        with _parsed_loads() as spy:
            got = load_scenario(scenario_path)
        assert spy.call_count == 1
        _assert_same_scenario(got, generate_scenario(params))

    @pytest.mark.parametrize("obstacle", ["directory", "long name"])
    def test_companion_that_cannot_be_written_is_skipped(self, tmp_path,
                                                         obstacle):
        if obstacle == "directory":
            path = tmp_path / "s.json"
            os.mkdir(companion(path))
        else:  # the scenario's name fits, the companion's does not
            path = tmp_path / ("s" * (os.pathconf(tmp_path, "PC_NAME_MAX")
                                      - len(".json")) + ".json")
        save_scenario(path, generate_scenario(self.PARAMS), self.PARAMS)
        left = {path.name, os.path.basename(companion(path))} \
            if obstacle == "directory" else {path.name}
        assert set(os.listdir(tmp_path)) == left
        _assert_same_scenario(load_scenario(path),
                              generate_scenario(self.PARAMS))

    def test_saves_write_byte_equal_companions(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b" / "a.json"
        b.parent.mkdir()
        save_scenario(a, generate_scenario(self.PARAMS), self.PARAMS)
        save_scenario(b, generate_scenario(self.PARAMS), self.PARAMS)
        assert open(companion(a), "rb").read() == \
            open(companion(b), "rb").read()

    def test_resave_replaces_the_companion(self, scenario_path):
        params = dataclasses.replace(self.PARAMS, seed=12)
        save_scenario(scenario_path, generate_scenario(params), params)
        with _parsed_loads() as spy:
            got = load_scenario(scenario_path)
        assert spy.call_count == 0
        _assert_same_scenario(got, generate_scenario(params))
        assert sorted(os.listdir(scenario_path.parent)) == \
            ["s.json", "s.json.cache"]


# --------------------------------------------------------------------------
# Memory: one table at a time
# --------------------------------------------------------------------------

def _json_load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestMemory:
    """An N=2000 scenario (about 3.1 MB of text): saving holds no table as
    Python floats, and loading holds at most one."""

    @pytest.fixture(scope="class")
    def scenario_file(self, tmp_path_factory):
        params = GenerationParams(num_te=2000, seed=1)
        path = tmp_path_factory.mktemp("memory") / "s.json"
        save_scenario(path, generate_scenario(params), params)
        os.remove(companion(path))  # measure the JSON reader
        return path, params

    def test_save_peak_below_quarter_of_file(self, scenario_file, tmp_path):
        path, params = scenario_file
        scenario = load_scenario(path)
        peak = traced_peak(save_scenario, tmp_path / "copy.json", scenario,
                           params)
        assert (tmp_path / "copy.json").read_bytes() == path.read_bytes()
        assert peak < os.path.getsize(path) / 4

    def test_load_peak_three_quarters_of_json_load(self, scenario_file):
        path, _ = scenario_file
        assert traced_peak(load_scenario, path) <= \
            0.75 * traced_peak(_json_load, path)

    def test_companion_load_peak_quarter_of_json_load(self, scenario_file,
                                                      tmp_path):
        path, params = scenario_file
        warm = tmp_path / "warm.json"
        save_scenario(warm, load_scenario(path), params)
        assert traced_peak(load_scenario, warm) <= \
            0.25 * traced_peak(_json_load, warm)


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


class TestDemandText:
    """``save_result`` spells ``chi_before`` of demands.csv from the
    scenario's initial demand, whatever the scenario's companion holds:
    a scenario loaded through a companion that is missing, damaged, or
    in the older layout with a trailing text record of the initial
    demand writes the bytes of one loaded from the JSON."""

    PARAMS = GenerationParams(num_te=7, num_es=3, num_slots=4, seed=2,
                              solver=SolverConfig(max_iterations=5))

    @pytest.fixture
    def loaded(self, tmp_path):
        from mec_bazaar.bidding_games import run_dtoa
        path = tmp_path / "s.json"
        save_scenario(path, generate_scenario(self.PARAMS), self.PARAMS)
        shutil.copy(path, tmp_path / "cold.json")
        scenario = load_scenario(tmp_path / "cold.json")
        result = run_dtoa(scenario)
        save_result(tmp_path / "want", result, scenario)
        want = (tmp_path / "want" / "demands.csv").read_bytes()
        return path, result, want

    def demands(self, tmp_path, loaded, tag) -> bytes:
        path, result, _ = loaded
        save_result(tmp_path / tag, result, load_scenario(path))
        return (tmp_path / tag / "demands.csv").read_bytes()

    @staticmethod
    def with_text(path, text: bytes) -> None:
        """Rewrite the companion of ``path`` in the older layout: the
        header names the size of a last record holding ``text``."""
        records = _read_records(companion(path))
        header = json.loads(records[0].tobytes())
        header["initial_demand_json"] = len(text)
        records[0] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        _write_records(companion(path),
                       [*records, np.frombuffer(text, np.uint8)])

    @pytest.mark.parametrize("text", [
        "[[1.0, 2.0, 3.0, 4.0]]",                      # too few rows
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.0]"] * 8) + "]",  # too many
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.0]"] * 6
                        + ["[1.0, 2.0, 3.0, 4.0, 5.0]"]) + "]",
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.0]"] * 6
                        + ["[1.0, 2.0, 3.0]"]) + "]",
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.0, 5.0]", "[1.0, 2.0, 3.0]"]
                        + ["[1.0, 2.0, 3.0, 4.0]"] * 5) + "]",
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.0]"] * 7) + "",  # not closed
        " " + ", ".join(["[1.0, 2.0, 3.0, 4.0]"] * 7) + "]",  # not opened
        "[" + ", ".join(["[1.0, 2.0, 3.0, 4.é]"] * 7) + "]",
    ])
    def test_other_text_spelled_afresh(self, tmp_path, loaded, text):
        """A whole companion in the older layout whose text is not the
        initial demand: the scenario loads from the companion's tables
        and the text is not read."""
        path, _, want = loaded
        self.with_text(path, text.encode())
        with _parsed_loads() as spy:
            assert self.demands(tmp_path, loaded, "other") == want
        assert spy.call_count == 0

    @pytest.mark.parametrize("damage", ["no companion", "cut short",
                                        "other digest", "older"])
    def test_spelled_afresh_without_the_text(self, tmp_path, loaded,
                                             damage):
        path, _, want = loaded
        blob = open(companion(path), "rb").read()
        if damage == "no companion":
            os.remove(companion(path))
        elif damage == "cut short":
            with open(companion(path), "wb") as fh:
                fh.write(blob[:-7])
        elif damage == "older":
            text = json.dumps(json.loads(path.read_text())["initial_demand"])
            self.with_text(path, text.encode())
        else:
            records = _read_records(companion(path))
            header = json.loads(records[0].tobytes())
            header["sha256"] = hashlib.sha256(b"other").hexdigest()
            records[0] = np.frombuffer(json.dumps(header).encode(), np.uint8)
            _write_records(companion(path), records)
        with _parsed_loads() as spy:
            assert self.demands(tmp_path, loaded, damage) == want
        # only a whole companion for these bytes spares the JSON parse
        assert spy.call_count == (0 if damage == "older" else 1)

    def test_peak_does_not_grow_with_n(self, tmp_path):
        """demands.csv is spelled a block at a time: from N=2,000 to
        N=8,000 (about 1 MB more text) the peak of saving the bundle of
        a scenario loaded from its companion grows by less than 64 KiB."""
        from mec_bazaar.bidding_games import run_dtoa
        peak = {}
        for n in (2000, 8000):
            params = GenerationParams(num_te=n, seed=1,
                                      solver=SolverConfig(max_iterations=3))
            path = tmp_path / f"s{n}.json"
            save_scenario(path, generate_scenario(params), params)
            with _parsed_loads() as spy:
                scenario = load_scenario(path)
            assert spy.call_count == 0
            result = run_dtoa(scenario)
            peak[n] = traced_peak(save_result, tmp_path / str(n), result,
                                  scenario)
        assert peak[8000] - peak[2000] < 1 << 16
