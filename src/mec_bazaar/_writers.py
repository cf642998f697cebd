"""Writers of the run's text outputs: indented JSON and CSV tables.

Each output is laid out as text a block of about a thousand lines at a
time: the block's floats are spelled by ``repr`` (or by json's C encoder,
which spells them alike), its strings are joined once and written with
one write, so what a writer holds does not grow with the market.
``scenario_io.save_result`` writes the result bundle with them and
``metrics_report.emit`` the report and its figure tables.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["write_indented_json", "write_table", "write_grid"]

# At most about this many lines (or list elements) of an output are laid
# out as text at once: enough that one join and one write carry each
# block, few enough that a block's strings stay far below the arrays.
_BLOCK_LINES = 1000

# A list whose elements all have one of these types is written through
# the C encoder, one element a line at the indent of a top-level value.
_SCALARS = frozenset({float, int, bool, str, type(None)})
_ELEMENTS = json.JSONEncoder(separators=(",\n  ", ": ")).encode


def _open_text(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _values(block) -> list:
    """A block of a list, a range or a 1-D array as Python values."""
    return block.tolist() if isinstance(block, np.ndarray) else block


def write_indented_json(path, doc: dict) -> None:
    """Write ``doc`` and a newline to ``path``, with the bytes of
    ``json.dump(doc, fh, indent=1)``.

    A 1-D array value, or a list of scalars, goes through json's C
    encoder at most ``_BLOCK_LINES`` elements at a time; any other value
    goes through ``json.dumps`` whole.
    """
    with _open_text(path) as fh:
        fh.write("{")
        for n, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if n else ''}\n {json.dumps(key)}: ")
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
    """
    rows, slots = cells[0].shape
    step = max(1, _BLOCK_LINES // slots)
    slot_ids = [str(t) for t in range(slots)]

    def each_slot(strings):
        return [s for s in strings for _ in slot_ids]

    with _open_text(path) as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            fh.write(_csv_lines(
                [each_slot(map(str, range(first + lo, first + hi))),
                 slot_ids * (hi - lo),
                 *(map(repr, c[lo:hi].ravel().tolist()) for c in cells),
                 *(each_slot(map(repr, v[lo:hi].tolist()))
                   for v in per_row)],
                (hi - lo) * slots))
