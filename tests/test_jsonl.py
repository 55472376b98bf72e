import json

import pytest

from rlvrloop.errors import TaskFormatError
from rlvrloop.jsonl import (
    SCHEMA_VERSION,
    canonical_file_hash,
    derive_seed,
    dumps,
    read_records,
    write_records,
)


def test_write_then_read_round_trip(tmp_path):
    path = tmp_path / "data.jsonl"
    records = [{"a": 1}, {"b": [1, 2]}, {"c": {"d": "e"}}]
    assert write_records(path, "demo", records) == 3
    got = list(read_records(path, schema="demo"))
    assert [rec for _, rec in got] == records
    # line numbers are physical: header is line 1
    assert [lineno for lineno, _ in got] == [2, 3, 4]


def test_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    write_records(path, "demo", [{"a": 1}])
    with pytest.raises(TaskFormatError, match="does not match"):
        list(read_records(path, schema="other"))


def test_newer_schema_version_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(dumps({"schema": "demo", "schema_version": SCHEMA_VERSION + 1}) + "\n")
    with pytest.raises(TaskFormatError, match="newer than supported"):
        list(read_records(path, schema="demo"))


def test_bad_json_names_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(dumps({"schema": "demo", "schema_version": 1}) + "\n{oops\n")
    with pytest.raises(TaskFormatError, match="line 2"):
        list(read_records(path, schema="demo"))


def test_non_object_record_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(dumps({"schema": "demo", "schema_version": 1}) + "\n[1,2]\n")
    with pytest.raises(TaskFormatError, match="expected an object"):
        list(read_records(path, schema="demo"))


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(dumps({"schema": "demo", "schema_version": 1}) + "\n\n" + dumps({"a": 1}) + "\n")
    assert [rec for _, rec in read_records(path, schema="demo")] == [{"a": 1}]


def test_canonical_hash_sees_real_changes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(a, "demo", [{"x": 1}])
    write_records(b, "demo", [{"x": 2}])
    assert canonical_file_hash(a) != canonical_file_hash(b)


def test_canonical_hash_raw_bytes_for_non_json(tmp_path):
    """JSON and JSONL hash their raw bytes too, like every other file."""
    import hashlib

    write_records(tmp_path / "a.jsonl", "demo", [{"x": 1, "wall_time_s": 0.25}])
    (tmp_path / "b.json").write_text(json.dumps({"outer": {"wall_time_s": 1.0, "v": 3}}, indent=1))
    (tmp_path / "c.csv").write_text("epoch,loss\n0,1.0\n")
    for path in sorted(tmp_path.iterdir()):
        assert canonical_file_hash(path) == hashlib.sha256(path.read_bytes()).hexdigest(), path.name


def test_derive_seed_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)
    # 63-bit: always a valid numpy/random seed
    for parts in (("x",), ("x", 0), (0, "x"), tuple(range(5))):
        s = derive_seed(*parts)
        assert 0 <= s < 2**63
