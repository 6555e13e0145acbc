"""Every file read and write of the package, with one mapping of errors.

Reads raise a DataError (exit 2) naming the file for an absent or
unreadable file, bytes that are not UTF-8, invalid JSON, a JSON top level
that is not an object, and a CSV table with the wrong header, a row of
the wrong width, a numeric cell that is not a finite number, or no rows.
Writes go to a temporary file in the target's directory, which then
replaces the target, so a crash leaves the old file or the new one,
never a truncated one. A directory that cannot be created, a file that
cannot be written (say, a path through an existing file) and a JSON
document holding NaN or an infinity are a DataError naming the path too.

Every JSON value is read through one predicate and one accessor: `fits`
says whether a value has a type hint's type, and `json_value` walks an
object by keys and raises a DataError naming the file and the dotted key
for a value that is absent, of the wrong type or out of range. `build`
makes a dataclass from an object through both.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import chain
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

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


# what a value of each type is called, one and many
_NAMES = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
          str: ("a string", "strings"), bool: ("true or false", "booleans"),
          dict: ("an object", "objects"), list: ("a list", "lists"), tuple: ("a list", "lists"),
          NoneType: ("null", "nulls")}


def fits(value, hint) -> bool:
    """Whether a JSON value has a type hint's type: an int takes an
    integer, a float any finite number, neither a boolean; `X | None`
    also takes null, list[T] a list whose every entry fits T, and
    dict[str, T] an object whose every value does."""
    return _all_fit((value,), hint)


def _all_fit(values, hint) -> bool:
    """Whether every value fits `hint`, checked in one pass over the
    values' types (and one over floats for finiteness), not one call per
    value, unless `hint` is a union."""
    if get_origin(hint) in (Union, UnionType):
        return all(any(fits(v, h) for h in get_args(hint)) for v in values)
    types = set(map(type, values))
    if get_origin(hint) in (list, dict):  # JSON keys are strings, so a dict's values are checked
        entries = chain.from_iterable(map(dict.values, values) if get_origin(hint) is dict else values)
        return types <= {get_origin(hint)} and _all_fit(list(entries), get_args(hint)[-1])
    if hint is float:  # NaN, +-inf and an integer past the float range all fail
        try:
            return types <= {int, float} and all(map(math.isfinite, values))
        except OverflowError:
            return False
    return types <= {get_origin(hint) or hint}


def _describe(hint, plural: bool = False) -> str:
    if get_origin(hint) in (Union, UnionType):
        return " or ".join(_describe(h, plural) for h in get_args(hint))
    if get_origin(hint) in (list, dict):
        return f"{_NAMES[get_origin(hint)][plural]} of {_describe(get_args(hint)[-1], True)}"
    return _NAMES[get_origin(hint) or hint][plural]


def json_value(doc, keys: Sequence, where: str, hint, ok=None, what: str | None = None):
    """doc[keys[0]][keys[1]]..., a value that fits `hint` and, if given,
    `ok`; otherwise a DataError naming `where` (the file) and the dotted
    key, and saying what the value must be: `what`, or the hint's type."""
    value = doc
    for depth, key in enumerate(keys, start=1):
        if not isinstance(value, dict) or key not in value:
            raise DataError(f"{where} has no {'.'.join(keys[:depth])}")
        value = value[key]
    if not (fits(value, hint) and (ok is None or ok(value))):
        raise DataError(f"{where} has {'.'.join(keys)} = {reprlib.repr(value)}, "
                        f"not {what or _describe(hint)}")
    return value


_field_types = cache(get_type_hints)  # a dataclass's field types, resolved once


def build(cls, doc: dict, keys: Sequence, where: str, reserved=(), **fixed):
    """cls(**doc[keys...], **fixed) from an object whose keys are fields of
    cls outside `reserved` (fields the pipeline sets) and whose values
    have their fields' types, read by `json_value`; an unknown key, and a
    value that cls itself rejects, are DataErrors naming `where` too."""
    values = json_value(doc, keys, where, dict)
    hints = _field_types(cls)
    unknown = sorted(set(values) - (set(hints) - set(reserved)))
    if unknown:
        note = " (set by the pipeline)" if set(unknown) & set(reserved) else ""
        names = ", ".join(".".join((*keys, k)) for k in unknown)
        raise DataError(f"unknown {where} keys: {names}{note}")
    for key in values:
        json_value(doc, (*keys, key), where, hints[key])
    try:
        return cls(**values, **fixed)
    except DataError as exc:
        raise DataError(f"{where} has a bad {'.'.join(keys)}: {exc}") from exc


def json_text(path: str, doc: dict) -> str:
    """The text `write_json` writes to `path`, for a caller that must
    refuse a document before it writes anything."""
    try:  # NaN and the infinities are not JSON, and no reader of an artifact takes them
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_json(path: str, doc: dict) -> None:
    write_text(path, json_text(path, doc))


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
    except (ValueError, OverflowError):  # an integer past the float range overflows
        pass
    raise DataError(f"{path} line {line}, column {column!r}: {cell!r} is not a finite number")


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buffer.getvalue())
