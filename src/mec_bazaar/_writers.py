"""Writers of the program's text outputs: JSON documents and CSV tables.

Each output is laid out as text a block of about a thousand lines or
values at a time: the block's floats are spelled by ``repr`` (or by
json's C encoder, which spells them alike), its strings are joined once
and written with one write, so what a writer holds does not grow with
the market. A JSON document and CSV tables that hold the same floats
share one spelling of them (``write_indented_json``'s ``tables``), and
a table's spelling in one output can be kept (``write_json``'s ``tee``)
and written again into a CSV (``write_grid``'s already spelled cells).
``scenario_io`` writes scenario files and the result bundle with them,
``metrics_report.emit`` the report and its figures, and ``cli`` the run
manifest and the oracle report.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import tempfile

import numpy as np

__all__ = ["write_json", "write_indented_json", "write_table", "write_grid"]

# At most about this many lines (or list elements, or table values) of an
# output are laid out as text at once: enough that one join and one write
# carry each block, few enough that its strings stay far below the arrays.
_BLOCK_LINES = 1000

# A list whose elements all have one of these types is written through
# the C encoder, one element a line at the indent of a top-level value.
_SCALARS = frozenset({float, int, bool, str, type(None)})
_ELEMENTS = json.JSONEncoder(separators=(",\n  ", ": ")).encode
_ENCODE = json.JSONEncoder().encode
# json's spelling of the floats that repr spells otherwise
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _open_text(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _values(block) -> list:
    """A block of a list, a range or an array as Python values."""
    return block.tolist() if isinstance(block, np.ndarray) else block


def write_json(fh, doc: dict, tee=None) -> None:
    """Write ``doc`` to the text sink ``fh`` with the bytes of
    ``json.dump(doc, fh)``, an array standing for its ``tolist()``. A list
    or an array goes through json's C encoder ``_BLOCK_LINES`` elements
    (or rows of about as many values) at a time, anything else whole.

    ``tee``, (key, sink), also writes the JSON text of ``doc[key]`` to the
    text sink ``sink``, the same strings as they are written to ``fh``.
    """
    fh.write("{")
    for n, (key, value) in enumerate(doc.items()):
        fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
        out = _Tee(fh, tee[1]) if tee and key == tee[0] else fh
        if not isinstance(value, (list, np.ndarray)):
            out.write(json.dumps(value))
            continue
        width = value[:1].size if isinstance(value, np.ndarray) else 1
        step = max(1, _BLOCK_LINES // max(1, width))
        out.write("[")
        for lo in range(0, len(value), step):
            text = _ENCODE(_values(value[lo:lo + step]))
            out.write(f"{', ' if lo else ''}{text[1:-1]}")
        out.write("]")
    fh.write("}")


class _Tee:
    """Text sink that writes each string to two sinks."""

    def __init__(self, first, second):
        self.first, self.second = first, second

    def write(self, text: str) -> None:
        self.first.write(text)
        self.second.write(text)


def write_indented_json(path, doc: dict, tables=()) -> None:
    """Write ``doc`` and a newline to ``path``, with the bytes of
    ``json.dump(doc, fh, indent=1)``.

    A 1-D array value, or a list of scalars, goes through json's C
    encoder at most ``_BLOCK_LINES`` elements at a time; any other value
    goes through ``json.dumps`` whole.

    Each of ``tables``, (path, header, keys), is also written: the CSV
    that ``write_table(path, header, [range(n), *(doc[k] for k in
    keys)])`` writes, the keys naming lists (or 1-D arrays) of n floats.
    Their floats are spelled once, by ``repr``, for both files, a block
    at a time; the JSON list takes the same strings, save JSON's
    ``NaN``, ``Infinity`` and ``-Infinity`` for the CSV's ``nan``,
    ``inf`` and ``-inf``. Only the first of a table's keys in ``doc`` is
    written as it is spelled; the lists of the others wait in unnamed
    temporary files until their keys come.
    """
    table_of = {key: table for table in tables for key in table[2]}
    waiting = {}
    with _open_text(path) as fh, contextlib.ExitStack() as stack:
        fh.write("{")
        for n, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if n else ''}\n {json.dumps(key)}: ")
            if key in waiting:
                spill = waiting.pop(key)
                spill.seek(0)
                shutil.copyfileobj(spill, fh)
                continue
            if key in table_of:
                table_path, header, keys = table_of[key]
                sinks = [fh if k == key else stack.enter_context(
                    tempfile.TemporaryFile("w+", encoding="utf-8",
                                           newline="\n")) for k in keys]
                _write_spelled(table_path, header, [doc[k] for k in keys],
                               sinks)
                waiting.update((k, sink) for k, sink in zip(keys, sinks)
                               if sink is not fh)
                continue
            if not (isinstance(value, np.ndarray) and value.ndim == 1
                    or isinstance(value, list)
                    and _SCALARS.issuperset(map(type, value))):
                fh.write(json.dumps(value, indent=1).replace("\n", "\n "))
                continue
            if not len(value):
                fh.write("[]")
                continue
            for lo in range(0, len(value), _BLOCK_LINES):
                text = _ELEMENTS(_values(value[lo:lo + _BLOCK_LINES]))
                fh.write(f"{',' if lo else '['}\n  {text[1:-1]}")
            fh.write("\n ]")
        fh.write("\n}\n" if doc else "}\n")


def _write_spelled(path, header: str, columns: list, sinks: list) -> None:
    """Write the CSV of ``write_table(path, header, [range(n),
    *columns])``, and each of the float ``columns`` as a JSON list at the
    indent of a top-level value to its text sink in ``sinks``; each float
    is spelled once, by ``repr``."""
    count = len(columns[0])
    with _open_text(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, count, _BLOCK_LINES):
            hi = min(lo + _BLOCK_LINES, count)
            spelled = [list(map(repr, _values(c[lo:hi]))) for c in columns]
            fh.write(_csv_lines([map(repr, range(lo, hi)), *spelled],
                                hi - lo))
            for sink, strings in zip(sinks, spelled):
                sink.write(f"{',' if lo else '['}\n  " + ",\n  ".join(
                    map(_JSON_SPELLING.get, strings, strings)))
            del spelled, strings  # one block's strings at a time
    for sink in sinks:
        sink.write("\n ]" if count else "[]")


def _csv_lines(columns: list, count: int) -> str:
    """The text of ``count`` CSV lines: line k joins the k-th string of
    each column with commas."""
    width = 2 * len(columns)
    parts = ([","] * (width - 1) + ["\n"]) * count
    for c, column in enumerate(columns):
        parts[2 * c::width] = column
    return "".join(parts)


def write_table(path, header: str, columns: list) -> None:
    """Write a CSV to ``path``: the ``header`` line, then one line per
    index k of the equal-length ``columns`` (lists, ranges or 1-D
    arrays), holding each column's k-th value as ``repr`` spells it."""
    count = len(columns[0])
    with _open_text(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, count, _BLOCK_LINES):
            hi = min(lo + _BLOCK_LINES, count)
            fh.write(_csv_lines(
                [map(repr, _values(c[lo:hi])) for c in columns], hi - lo))


def write_grid(path, header: str, cells: list, per_row=(),
               first: int = 0) -> None:
    """Write a CSV to ``path``: the ``header`` line, then one line per
    (row, slot) of the equal-shape 2-D arrays ``cells``, in row-major
    order. A line holds the row (counted from ``first``), the slot, the
    value of each of ``cells`` there, and the row's value of each 1-D
    array of ``per_row``; each value is spelled once, by ``repr``.

    A cell may also come already spelled: an iterator over the rows of
    the grid, each the list of its strings, one a slot, which are written
    as they are. The iterator is advanced a block of rows at a time and
    left just past the grid's last row; a block it cuts short raises
    ValueError.
    """
    rows, slots = next(c for c in cells if isinstance(c, np.ndarray)).shape
    step = max(1, _BLOCK_LINES // slots)
    slot_ids = [str(t) for t in range(slots)]

    def each_slot(strings):
        return [s for s in strings for _ in slot_ids]

    def spelled(cell, lo, hi):
        if isinstance(cell, np.ndarray):
            return map(repr, cell[lo:hi].ravel().tolist())
        return itertools.chain.from_iterable(itertools.islice(cell, hi - lo))

    with _open_text(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            fh.write(_csv_lines(
                [each_slot(map(str, range(first + lo, first + hi))),
                 slot_ids * (hi - lo),
                 *(spelled(c, lo, hi) for c in cells),
                 *(each_slot(map(repr, v[lo:hi].tolist()))
                   for v in per_row)],
                (hi - lo) * slots))
