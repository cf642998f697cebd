"""Writers of the program's text outputs: JSON documents and CSV tables.

Each output is laid out as text a block of about a thousand lines or
values at a time, its strings joined once and written with one write,
so what a writer holds does not grow with the market. A block of a
float64 array whose values are all zero or finite with magnitude in
[1e-4, 1e16) is spelled by orjson, whose shortest round-trip digits and
positional notation there are those of ``repr``; any other block is
spelled by ``repr`` (or by json's C encoder, which spells a float
alike). The JSON writers stream only arrays: a list, like any other
value, is written whole by ``json.dumps``. ``scenario_io`` writes scenario
files and the result bundle with them, ``metrics_report.emit`` the
report and its figures, and ``cli`` the run manifest and the oracle
report.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["write_json", "write_indented_json", "write_table", "write_grid"]

# At most about this many lines (or array elements, or table values) of an
# output are laid out as text at once: enough that one join and one write
# carry each block, few enough that its strings stay far below the arrays.
_BLOCK_LINES = 1000

# the C encoder, one element a line at the indent of a top-level value
_ELEMENTS = json.JSONEncoder(separators=(",\n  ", ": ")).encode
_ENCODE = json.JSONEncoder().encode


def _open_text(path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _spelled(block) -> str | None:
    """orjson's compact JSON text of ``block``, a non-empty float64 array,
    when each of its values is zero or finite with magnitude in
    [1e-4, 1e16): there orjson spells every float as ``repr`` does. None
    for any other block."""
    if not (isinstance(block, np.ndarray) and block.dtype == np.float64
            and block.size):
        return None
    magnitude = np.abs(block)
    if not (((magnitude >= 1e-4) & (magnitude < 1e16)) | (block == 0)).all():
        return None
    # imported here, by its one user: orjson's extension imports uuid,
    # platform and zoneinfo, which ``--version`` and ``oracle``, writing
    # no float array, need not load
    import orjson
    return orjson.dumps(np.ascontiguousarray(block),
                        option=orjson.OPT_SERIALIZE_NUMPY).decode()


def _cells(block) -> list:
    """The strings of a block of a 1-D array, a list or a range, each
    value as ``repr`` spells it."""
    text = _spelled(block)
    if text is not None:
        return text[1:-1].split(",")
    if isinstance(block, np.ndarray):
        block = block.tolist()
    return list(map(repr, block))


def write_json(fh, doc: dict) -> None:
    """Write ``doc`` to the text sink ``fh`` with the bytes of
    ``json.dump(doc, fh)``, an array standing for its ``tolist()``. An
    array is written ``_BLOCK_LINES`` elements (or rows of about as many
    values) at a time, anything else, lists included, whole by
    ``json.dumps``."""
    fh.write("{")
    for n, (key, value) in enumerate(doc.items()):
        fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
        if not isinstance(value, np.ndarray):
            fh.write(json.dumps(value))
            continue
        step = max(1, _BLOCK_LINES // max(1, value[:1].size))
        fh.write("[")
        for lo in range(0, len(value), step):
            block = value[lo:lo + step]
            text = _spelled(block)
            text = (_ENCODE(block.tolist()) if text is None
                    else text.replace(",", ", "))
            fh.write(f"{', ' if lo else ''}{text[1:-1]}")
        fh.write("]")
    fh.write("}")


def write_indented_json(path, doc: dict) -> None:
    """Write ``doc`` and a newline to ``path``, with the bytes of
    ``json.dump(doc, fh, indent=1)``.

    A 1-D array value is written at most ``_BLOCK_LINES`` elements at a
    time; any other value, lists included, goes through ``json.dumps``
    whole.
    """
    with _open_text(path) as fh:
        fh.write("{")
        for n, (key, value) in enumerate(doc.items()):
            fh.write(f"{',' if n else ''}\n {json.dumps(key)}: ")
            if not (isinstance(value, np.ndarray) and value.ndim == 1):
                fh.write(json.dumps(value, indent=1).replace("\n", "\n "))
                continue
            if not len(value):
                fh.write("[]")
                continue
            for lo in range(0, len(value), _BLOCK_LINES):
                block = value[lo:lo + _BLOCK_LINES]
                text = _spelled(block)
                text = (_ELEMENTS(block.tolist()) if text is None
                        else text.replace(",", ",\n  "))
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
            fh.write(_csv_lines([_cells(c[lo:hi]) for c in columns],
                                hi - lo))


def write_grid(path, header: str, cells: list, per_row=(),
               first: int = 0) -> None:
    """Write a CSV to ``path``: the ``header`` line, then one line per
    (row, slot) of the equal-shape 2-D arrays ``cells``, in row-major
    order. A line holds the row (counted from ``first``), the slot, the
    value of each of ``cells`` there, and the row's value of each 1-D
    array of ``per_row``, each value as ``repr`` spells it."""
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
                 *(_cells(c[lo:hi].ravel()) for c in cells),
                 *(each_slot(_cells(v[lo:hi])) for v in per_row)],
                (hi - lo) * slots))
