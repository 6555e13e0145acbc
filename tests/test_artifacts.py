import ast
import csv
import io
import json
import os
from pathlib import Path

import pytest

import chirpmap
from chirpmap import artifacts
from chirpmap.artifacts import write_csv, write_json, write_text
from chirpmap.errors import DataError

PACKAGE = Path(chirpmap.__file__).parent
# calls that touch a file, allowed only in artifacts.py
FILE_CALLS = {"open", "io.open", "os.open", "os.fdopen", "os.makedirs", "json.dump", "json.load",
              "csv.writer", "csv.reader", "csv.DictReader"}
# ingest parses the input table from text that artifacts.read_text returned
ALLOWED = {("ingest.py", "csv.DictReader")}


def call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return ""


def test_only_artifacts_module_does_file_io():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "artifacts.py":
            continue
        rel = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in FILE_CALLS and (rel, name) not in ALLOWED:
                    found.append(f"{rel}:{node.lineno} {name}")
    assert found == []


def test_writers_keep_the_former_bytes(tmp_path):
    doc = {"b": [1.5, 0.1, 1e-300], "a": {"z": None, "y": "é"}, "c": True}
    with open(tmp_path / "former.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_json(str(tmp_path / "new.json"), doc)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "former.json").read_bytes()

    rows = [["r0001", repr(0.1), "a,b", 3], ["r0002", repr(-2e-17), 'say "hi"', 4]]
    with open(tmp_path / "former.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "note", "n"])
        for row in rows:
            writer.writerow(row)
    write_csv(str(tmp_path / "new.csv"), ("id", "x", "note", "n"), iter(rows))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()


class HalfWriter(io.StringIO):
    """A handle that writes the first half of the text to disk, then fails."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def write(self, text):
        with io.open(self.path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


def fail_partway(monkeypatch):
    monkeypatch.setattr(artifacts, "open", lambda path, *a, **k: HalfWriter(path), raising=False)


def fail_replace(monkeypatch):
    def replace(src, dst):
        raise OSError(18, "Invalid cross-device link")

    monkeypatch.setattr(artifacts.os, "replace", replace)


@pytest.mark.parametrize("break_write", [fail_partway, fail_replace], ids=["write", "replace"])
def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch, break_write):
    target = tmp_path / "eval_report.json"
    write_text(str(target), "old contents\n")
    before = sorted(os.listdir(tmp_path))
    break_write(monkeypatch)
    with pytest.raises(DataError, match=f"cannot write {target}"):
        write_text(str(target), "new contents, long enough to be cut in half\n")
    assert target.read_bytes() == b"old contents\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_with_a_non_finite_number_is_not_written(tmp_path, value):
    target = tmp_path / "model.json"
    write_text(str(target), "old contents\n")
    with pytest.raises(DataError, match=f"cannot write {target}: .*not JSON compliant"):
        write_json(str(target), {"parameters": {"w": [0.5, value]}})
    assert target.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["model.json"]
