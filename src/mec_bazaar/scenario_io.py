"""Seeded scenario generation, serialization, and result bundles.

Random draws come from a counter-based keyed generator: every value is a
pure function of (seed, field id, entity index, slot), built by chaining
splitmix64 finalizers. Generation order therefore cannot matter and
parallel generation is deterministic by construction. The key schedule is
the contract; the mixer is an implementation detail.

Scenario files are single JSON documents with a ``schema_version`` field.
Floats are serialized with ``repr`` (shortest round-trip form), so
load(save(s)) reproduces every number bit-exactly. Both directions handle
one table at a time: a save turns one row into Python floats at a time,
and a load turns each table into an array as soon as it is parsed.

Beside each scenario file, a save also writes a binary companion
(``<scenario>.cache``): the six tables as float64 ``.npy`` records and
the other fields, keyed by the sha256 of the JSON bytes it was written
with. A load uses the companion only while that digest matches the
file; otherwise it parses the JSON, which stays the only source of
truth.

A result bundle is written by ``save_result`` and its final demand and
bids are read back by ``load_result``, so this module alone knows the
bundle's file names and layouts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from ._writers import write_grid, write_indented_json
from .errors import (
    DimensionError,
    DomainError,
    ScenarioFormatError,
    SchemaVersionError,
)
from .market_model import Scenario, SolverConfig

__all__ = [
    "GenerationParams",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "save_result",
    "load_result",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# Field ids of the keyed draw streams (part of the key-schedule contract).
FIELD_BASE_DEMAND = 0
FIELD_SHIFT_FRACTION = 1
FIELD_COST_A2 = 2
FIELD_UTILITY_W = 3

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    z = (z + _GOLDEN).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def keyed_uniform(seed: int, field_id: int, entity: np.ndarray,
                  slot: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draw keyed by (seed, field, entity, slot)."""
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        z = _mix64(z ^ np.asarray(field_id, dtype=np.uint64))
        z = _mix64(z ^ np.asarray(entity, dtype=np.uint64))
        z = _mix64(z ^ np.asarray(slot, dtype=np.uint64))
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _uniform_grid(seed, field_id, n, t, lo, hi):
    i = np.arange(n, dtype=np.uint64)[:, None]
    s = np.arange(t, dtype=np.uint64)[None, :]
    u = keyed_uniform(seed, field_id, i, s)
    return lo + u * (hi - lo)


@dataclass(frozen=True)
class GenerationParams:
    """Draw ranges and counts for scenario generation."""

    num_es: int = 10
    num_te: int = 1000
    num_slots: int = 24
    base_demand_range: tuple[float, float] = (9660.0, 37065.0)
    shiftable_fraction_range: tuple[float, float] = (0.10, 0.12)
    a2_range: tuple[float, float] = (4.76e-6, 4.76e-5)
    a1: float = 0.001
    a0: float = 0.001
    alpha: float = 0.5
    w_range: tuple[float, float] = (0.8, 1.0)
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def validate(self) -> None:
        for name in ("base_demand_range", "shiftable_fraction_range",
                     "a2_range", "w_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise DomainError(f"{name}: lower bound exceeds upper bound")
            if lo < 0:
                raise DomainError(f"{name}: bounds must be nonnegative")
        if self.a2_range[0] <= 0:
            raise DomainError("a2_range: a2 must stay positive")
        if self.w_range[0] <= 0:
            raise DomainError("w_range: w must stay positive")
        if self.a1 < 0 or self.a0 < 0:
            raise DomainError("a1 and a0 must be nonnegative")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")
        if self.num_es < 2 or self.num_te < 1 or self.num_slots < 1:
            raise DomainError(
                "counts must satisfy num_es >= 2, num_te >= 1, num_slots >= 1")
        self.solver.validate()


def generate_scenario(params: GenerationParams) -> Scenario:
    """Draw one market instance from the parameter ranges.

    Base demand r[i][t] is uniform in the base range; the initial
    shiftable profile chi0[i][t] is a uniform fraction of r[i][t]; each
    customer's daily shiftable total is the row sum of chi0, which makes
    the initial point feasible by construction.
    """
    params.validate()
    n, m, t = params.num_te, params.num_es, params.num_slots
    r = _uniform_grid(params.seed, FIELD_BASE_DEMAND, n, t,
                      *params.base_demand_range)
    frac = _uniform_grid(params.seed, FIELD_SHIFT_FRACTION, n, t,
                         *params.shiftable_fraction_range)
    chi0 = frac * r
    w = _uniform_grid(params.seed, FIELD_UTILITY_W, n, t, *params.w_range)
    a2 = _uniform_grid(params.seed, FIELD_COST_A2, m, 1,
                       *params.a2_range)[:, 0]
    coeffs = np.column_stack([
        a2,
        np.full(m, params.a1, dtype=float),
        np.full(m, params.a0, dtype=float),
    ])
    scenario = Scenario(
        num_es=m,
        num_te=n,
        num_slots=t,
        cost_coeffs=coeffs,
        utility_w=w,
        utility_alpha=np.full((n, t), params.alpha, dtype=float),
        base_demand=r,
        shiftable_total=chi0.sum(axis=1),
        initial_demand=chi0,
        solver=params.solver,
        seed=params.seed,
    )
    scenario.validate()
    return scenario


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------

def _solver_to_dict(cfg: SolverConfig) -> dict:
    return dataclasses.asdict(cfg)


def _scenario_to_dict(s: Scenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "num_es": s.num_es,
        "num_te": s.num_te,
        "num_slots": s.num_slots,
        "seed": s.seed,
        "cost_coeffs": s.cost_coeffs.tolist(),
        "utility_w": s.utility_w,
        "utility_alpha": s.utility_alpha,
        "base_demand": s.base_demand,
        "shiftable_total": s.shiftable_total.tolist(),
        "initial_demand": s.initial_demand,
        "solver": _solver_to_dict(s.solver),
    }


def _write_json(fh, doc: dict) -> None:
    """Write ``doc`` with the bytes of ``json.dump(doc, fh)``.

    ``json.dump`` streams through the pure-Python encoder, and one
    ``json.dumps`` of the whole document runs the C encoder but holds all
    of its text in memory. Here each top-level value goes through
    ``json.dumps`` on its own, lists one element (a table row) at a time.
    A 2-D array is written as the list of its rows, each row becoming
    Python floats only while it is written.
    """
    fh.write("{")
    for n, (key, value) in enumerate(doc.items()):
        fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
        if isinstance(value, (list, np.ndarray)):
            fh.write("[")
            for k, item in enumerate(value):
                if isinstance(item, np.ndarray):
                    item = item.tolist()
                fh.write(f"{', ' if k else ''}{json.dumps(item)}")
            fh.write("]")
        else:
            fh.write(json.dumps(value))
    fh.write("}")


class _HashingWriter:
    """Text sink that writes UTF-8 to a binary file and hashes exactly
    the bytes it writes."""

    def __init__(self, fh):
        self.fh = fh
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.fh.write(data)


def save_scenario(path, scenario: Scenario,
                  generation: GenerationParams | None = None) -> None:
    """Write a scenario file and its companion; optionally record the
    generation recipe."""
    scenario.validate()
    doc = _scenario_to_dict(scenario)
    if generation is not None:
        gen = dataclasses.asdict(generation)
        gen.pop("solver", None)  # already mirrored in the solver block
        doc["generation"] = gen
    with open(path, "wb") as fh:
        out = _HashingWriter(fh)
        _write_json(out, doc)
        out.write("\n")
    # The companion is only a cache: skip it beside anything but a regular
    # file (a pipe, or a device link such as /dev/stdout), and when it
    # cannot be written.
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            _write_companion(path, doc, out.digest.hexdigest())
    except OSError:
        pass


_TABLES = ("cost_coeffs", "utility_alpha", "utility_w", "base_demand",
           "shiftable_total", "initial_demand")
_WHITESPACE = json.decoder.WHITESPACE.match


class _LastKey(dict):
    """The key memo of ``json.decoder.JSONObject``, which looks up each
    key just before it scans the key's value; this one remembers it."""

    last = None

    def setdefault(self, key, default=None):
        self.last = key
        return key


def _loads(text: str):
    """``json.loads(text)``, except that each table of a top-level object
    becomes a float array as soon as it is scanned, so at most one table
    is alive as Python floats.

    json's own object parser reads the top level and its C scanner every
    value, so errors with their line and column, NaN and Infinity, and
    last-wins duplicate keys are json's. A table that does not convert
    stays a list, for validation to report.
    """
    start = _WHITESPACE(text, 0).end()
    if text[start:start + 1] != "{":
        return json.loads(text)
    memo = _LastKey()
    scan = json.JSONDecoder().scan_once

    def scan_value(s, idx):
        value, end = scan(s, idx)
        if memo.last in _TABLES and isinstance(value, list):
            try:
                value = np.asarray(value, dtype=float)
            except (ValueError, TypeError, OverflowError):
                pass
        return value, end

    doc, end = json.decoder.JSONObject((text, start + 1), True, scan_value,
                                       None, None, memo)
    end = _WHITESPACE(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return doc


def _sha256(path) -> str:
    """Hex sha256 of the file at ``path``, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _companion_path(path) -> str:
    return os.fspath(path) + ".cache"


def _write_companion(path, doc: dict, digest: str) -> None:
    """Write the companion of the scenario file ``path``, whose bytes
    have sha256 ``digest``: one uint8 record holding the JSON of the
    digest and the non-table fields, then each table as a float64
    record. ``np.save`` writes no timestamps, so the bytes are a pure
    function of the scenario. The file is renamed into place whole.
    """
    target = _companion_path(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    header = {"sha256": digest,
              "fields": {k: v for k, v in doc.items() if k not in _TABLES}}
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.frombuffer(json.dumps(header).encode(), np.uint8))
            for name in _TABLES:
                np.save(fh, np.asarray(doc[name], dtype=np.float64))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_companion(path) -> tuple[dict, str] | None:
    """The document stored in the companion of ``path`` and the sha256 of
    ``path``, or None unless the companion is readable, records that
    digest and holds every table as a float64 array. The scenario file
    is hashed only once its companion has opened."""
    try:
        with open(_companion_path(path), "rb") as fh:
            header = json.loads(
                np.lib.format.read_array(fh, allow_pickle=False).tobytes())
            digest = _sha256(path)
            if not (isinstance(header, dict)
                    and header.get("sha256") == digest
                    and isinstance(header.get("fields"), dict)):
                return None
            doc = header["fields"]
            for name in _TABLES:
                table = np.lib.format.read_array(fh, allow_pickle=False)
                if table.dtype != np.float64:
                    return None
                doc[name] = table
    except (OSError, ValueError, RecursionError):
        return None
    return doc, digest


def load_scenario(path, *, with_digest: bool = False):
    """Parse and validate a scenario file.

    The tables come from the file's companion when it was written for
    these exact bytes, and from the JSON otherwise; both go through the
    same validation. With ``with_digest`` the result is the pair
    (scenario, sha256 of the file's bytes).

    Malformed JSON, missing fields, wrong shapes and violated invariants
    all raise :class:`ScenarioFormatError` naming the offending field;
    an unsupported ``schema_version`` raises :class:`SchemaVersionError`.
    """
    found = _read_companion(path)
    if found is not None:
        doc, digest = found
    else:
        digest = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = _loads(fh.read())
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(
                f"{path}: not valid JSON (line {exc.lineno}, "
                f"col {exc.colno})")
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(
                f"{path}: not valid UTF-8 ({exc.reason})") from None
        except RecursionError:
            raise ScenarioFormatError(
                f"{path}: not valid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: schema_version {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})", field="schema_version")
    required = ["num_es", "num_te", "num_slots", "seed", "cost_coeffs",
                "utility_w", "utility_alpha", "base_demand",
                "shiftable_total", "initial_demand", "solver"]
    for name in required:
        if name not in doc:
            raise ScenarioFormatError(f"{path}: missing field {name!r}",
                                      field=name)
    try:
        solver = SolverConfig(**doc["solver"])
    except TypeError as exc:
        raise ScenarioFormatError(f"{path}: bad solver block ({exc})",
                                  field="solver")
    counts = {}
    for name in ("num_es", "num_te", "num_slots", "seed"):
        try:
            counts[name] = int(doc[name])
        except (ValueError, TypeError, OverflowError) as exc:
            raise ScenarioFormatError(
                f"{path}: {name} is not an integer ({exc})", field=name)
    try:
        scenario = Scenario(
            cost_coeffs=np.asarray(doc["cost_coeffs"], dtype=float),
            utility_w=np.asarray(doc["utility_w"], dtype=float),
            utility_alpha=np.asarray(doc["utility_alpha"], dtype=float),
            base_demand=np.asarray(doc["base_demand"], dtype=float),
            shiftable_total=np.asarray(doc["shiftable_total"], dtype=float),
            initial_demand=np.asarray(doc["initial_demand"], dtype=float),
            solver=solver,
            **counts,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioFormatError(f"{path}: malformed array field ({exc})")
    try:
        scenario.validate()
    except (DimensionError, DomainError) as exc:
        raise ScenarioFormatError(f"{path}: {exc}", field=_guess_field(exc))
    if not with_digest:
        return scenario
    return scenario, digest if digest is not None else _sha256(path)


def _guess_field(exc: Exception) -> str | None:
    text = str(exc)
    for name in _TABLES + ("solver",):
        if name in text:
            return name
    return None


# --------------------------------------------------------------------------
# Result bundles
# --------------------------------------------------------------------------

def save_result(out_dir: str, result, scenario: Scenario) -> dict:
    """Persist a solver result bundle under ``out_dir``.

    Writes result.json plus trace.csv, demands.csv and bids.csv; returns
    a dict of the paths written. The bundle is a pure function of the
    result (no timestamps or timings), so identical runs produce
    bit-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    econ = result.economics
    trace = result.trace
    summary = {
        "status": result.status,
        "iterations": result.iterations_used,
        "final_delta": float(trace.delta[-1]) if trace.delta.size else None,
        "epsilon": scenario.solver.epsilon,
        "seed": scenario.seed,
        "load": result.state.load,
        "price": result.state.price,
        "es_daily_profit": econ.es_profit.sum(axis=1),
        "es_daily_revenue": econ.es_revenue.sum(axis=1),
        "te_daily_payout": econ.te_payout.sum(axis=1),
        "te_payoff": econ.te_payoff,
    }
    paths = {
        "result": os.path.join(out_dir, "result.json"),
        "trace": os.path.join(out_dir, "trace.csv"),
        "demands": os.path.join(out_dir, "demands.csv"),
        "bids": os.path.join(out_dir, "bids.csv"),
    }
    write_indented_json(paths["result"], summary)
    write_grid(paths["trace"],
               "iteration,slot,price,load,frobenius_delta,eta1,eta2",
               [trace.price, trace.load],
               per_row=[trace.delta, trace.eta1, trace.eta2], first=1)
    write_grid(paths["demands"], "te_id,slot,chi_before,chi_after",
               [scenario.initial_demand, result.demand])
    write_grid(paths["bids"], "es_id,slot,lambda_final", [result.bids])
    return paths


def _read_grid(path: str, shape: tuple[int, int], fields: int) -> np.ndarray:
    """Read an ``id,slot,...,value`` CSV of a result bundle into a matrix.

    Each (id, slot) pair must appear exactly once and in range, with a
    finite value; anything else raises ValueError naming the file and
    line.
    """
    out = np.empty(shape)
    seen = np.zeros(shape, dtype=bool)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            fh.readline()  # header
            for lineno, line in enumerate(fh, start=2):
                cells = line.rstrip("\n").split(",")
                try:
                    if len(cells) != fields:
                        raise ValueError(f"expected {fields} fields")
                    row, slot = int(cells[0]), int(cells[1])
                    if not (0 <= row < shape[0] and 0 <= slot < shape[1]):
                        raise ValueError(f"({row}, {slot}) is out of range")
                    if seen[row, slot]:
                        raise ValueError(f"({row}, {slot}) appears twice")
                    value = float(cells[-1])
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite value {cells[-1]!r}")
                    seen[row, slot] = True
                    out[row, slot] = value
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    if not seen.all():
        raise ValueError(f"{path}: {(~seen).sum()} (id, slot) pairs missing")
    return out


def load_result(out_dir: str,
                scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Read the final (demand, bids) of a bundle ``save_result`` wrote
    under ``out_dir`` for ``scenario``, from demands.csv and bids.csv.

    Raises ValueError naming the file (and line) when either is not a
    complete, finite grid of the scenario's shape.
    """
    demand = _read_grid(os.path.join(out_dir, "demands.csv"),
                        (scenario.num_te, scenario.num_slots), fields=4)
    bids = _read_grid(os.path.join(out_dir, "bids.csv"),
                      (scenario.num_es, scenario.num_slots), fields=3)
    return demand, bids
