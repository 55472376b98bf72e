import hashlib
import json
import random

import pytest

from doubles import run_python

from rlvrloop.errors import TaskFormatError
from rlvrloop.jsonl import (
    HASH_CHUNK_BYTES,
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


@pytest.mark.parametrize("line, error", [
    ('{"a":1} {"b":2}', "Extra data: line 1 column 9 (char 8)"),
    ('{"a":1}x', "Extra data: line 1 column 8 (char 7)"),
    ("not json", "Expecting value: line 1 column 1 (char 0)"),
    ('{"a":', "Expecting value: line 1 column 6 (char 5)"),
])
def test_a_line_that_is_not_one_json_value_names_the_file_and_line(tmp_path, line, error):
    """The messages json.loads gives: trailing data after a record is refused, not dropped."""
    path = tmp_path / "data.jsonl"
    path.write_text(dumps({"schema": "demo", "schema_version": 1}) + "\n" + dumps({"a": 0}) + "\n" + line + "\n")
    with pytest.raises(TaskFormatError) as excinfo:
        list(read_records(path, schema="demo"))
    assert str(excinfo.value) == f"{path}: line 3: invalid JSON: {error}"
    with pytest.raises(json.JSONDecodeError, match=error.replace("(", r"\(").replace(")", r"\)")):
        json.loads(line)


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
    write_records(tmp_path / "a.jsonl", "demo", [{"x": 1, "wall_time_s": 0.25}])
    (tmp_path / "b.json").write_text(json.dumps({"outer": {"wall_time_s": 1.0, "v": 3}}, indent=1))
    (tmp_path / "c.csv").write_text("epoch,loss\n0,1.0\n")
    for path in sorted(tmp_path.iterdir()):
        assert canonical_file_hash(path) == hashlib.sha256(path.read_bytes()).hexdigest(), path.name


@pytest.mark.parametrize("size", [0, 1, HASH_CHUNK_BYTES - 1, HASH_CHUNK_BYTES, HASH_CHUNK_BYTES + 1,
                                  3 * HASH_CHUNK_BYTES + 7])
def test_canonical_hash_reads_in_chunks_and_equals_the_whole_file_digest(tmp_path, monkeypatch, size):
    data = random.Random(size).randbytes(size)
    path = tmp_path / "blob.bin"
    path.write_bytes(data)
    # the hash never holds the whole file
    monkeypatch.setattr(type(path), "read_bytes", lambda self: pytest.fail("read the whole file at once"))
    assert canonical_file_hash(path) == hashlib.sha256(data).hexdigest()
    assert canonical_file_hash(str(path)) == hashlib.sha256(data).hexdigest()


def test_derive_seed_stable_and_distinct():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)
    # 63-bit: always a valid numpy/random seed
    for parts in (("x",), ("x", 0), (0, "x"), tuple(range(5))):
        s = derive_seed(*parts)
        assert 0 <= s < 2**63


# derive_seed of 0 to 5 parts against values computed with the ":".join(str(p) ...) key, so every
# Python the suite runs on checks the same seeds; 2 and 3 parts take the f-string key.
DERIVE_SEED_PINS = [
    ((), 8203414616412130826),
    ((10**30,), 9023359920530733085),
    (("ünï—码",), 8733320662739598611),
    ((0, -1), 498520148498213834),
    ((True, 0.6), 2356888185050959426),
    (("ünï—码", 2**63 - 1), 7850179017326585880),
    ((0, -1, 2**63 - 1), 1948872813017967765),
    ((10**30, True, 0.6), 586960779320862108),
    (("ünï—码", 0, -1), 4787757083912506791),
    ((0, -1, 2**63 - 1, 10**30, True), 4484111770935729489),
    ((True, 0.6, "ünï—码", 0, -1), 4779401670904773287),
]


@pytest.mark.parametrize("parts, seed", DERIVE_SEED_PINS)
def test_derive_seed_pins(parts, seed):
    assert derive_seed(*parts) == seed == sha256_seed(parts)


def random_seed_parts(n):
    """n tuples of the labels derive_seed is given: ints of every size, floats and strings, some not ASCII."""
    rng = random.Random(23)
    atoms = (
        lambda: rng.getrandbits(rng.choice((1, 8, 32, 63, 64, 100))) * rng.choice((1, -1)),
        lambda: rng.uniform(-1e3, 1e3),
        lambda: "".join(rng.choice("abc-/:_ 0é漢") for _ in range(rng.randrange(12))),
    )
    return [tuple(rng.choice(atoms)() for _ in range(rng.randrange(1, 5))) for _ in range(n)]


def sha256_seed(parts):
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def test_derive_seed_is_hashlibs_sha256():
    keys = random_seed_parts(10_000)
    assert [derive_seed(*parts) for parts in keys] == [sha256_seed(parts) for parts in keys]


def test_derive_seed_without_the_builtin_sha256_falls_back_to_hashlib():
    """With _sha2 (3.12+) and _sha256 unimportable, derive_seed takes hashlib's sha256 and gives the same seeds."""
    script = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from rlvrloop.jsonl import derive_seed\n"
        "assert '_hashlib' in sys.modules\n"
        "keys = json.load(sys.stdin)\n"
        "print(json.dumps([derive_seed(*parts) for parts in keys]))\n"
    )
    keys = random_seed_parts(10_000)
    out = run_python(script, stdin=json.dumps(keys))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [sha256_seed(parts) for parts in json.loads(json.dumps(keys))]
