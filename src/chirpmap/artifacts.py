"""Every file read and write of the package, with one mapping of errors.

Reads raise a DataError (exit 2) naming the file for an absent or
unreadable file, bytes that are not UTF-8, invalid JSON, a JSON top level
that is not an object, and a CSV table with the wrong header, a row of
the wrong width, a numeric cell that is not a finite number, or no rows.
Writes go to a temporary file in the target's directory, which then
replaces the target, so a crash leaves the old file or the new one,
never a truncated one. A directory that cannot be created and a file
that cannot be written, such as a path through an existing file, are a
DataError naming the path too.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Iterable, Sequence

from .errors import DataError


def read_text(path: str, missing: str | None = None) -> str:
    """The file's text, line endings untouched; `missing` replaces the
    message for an absent file (say, which stage writes it)."""
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise DataError(missing or f"cannot read {path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def make_dir(path: str) -> None:
    """Create the directory and any missing parents; an existing one is kept."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create directory {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def read_json(path: str, missing: str | None = None) -> dict:
    try:
        doc = json.loads(read_text(path, missing))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} is not a JSON object")
    return doc


def write_json(path: str, doc: dict) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_csv(path: str, header: Sequence[str], parse: Sequence, missing: str | None = None) -> list[list]:
    """The data rows of a table whose first line is exactly `header`.

    `parse` holds one callable per column: `str` keeps the text, any
    other (float, int) must give a finite number.
    """
    reader = csv.reader(io.StringIO(read_text(path, missing), newline=""))
    try:
        if next(reader, None) != list(header):
            raise DataError(f"{path} does not have the header {','.join(header)}")
        rows = [_parse_row(path, line, header, parse, row) for line, row in enumerate(reader, start=2)]
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} contains no rows")
    return rows


def _parse_row(path: str, line: int, header: Sequence[str], parse: Sequence, row: list[str]) -> list:
    if len(row) != len(header):
        raise DataError(f"{path} line {line}: expected {len(header)} fields, got {len(row)}")
    return [cell if fn is str else _numeric_cell(path, line, header[j], cell, fn)
            for j, (fn, cell) in enumerate(zip(parse, row))]


def _numeric_cell(path: str, line: int, column: str, cell: str, fn):
    try:
        value = fn(cell)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise DataError(f"{path} line {line}, column {column!r}: {cell!r} is not a finite number")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buffer.getvalue())
