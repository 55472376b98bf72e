import functools
import hashlib
import inspect
import json
import operator
import pickle
import random
import re
import tempfile
from collections import abc
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass, replace
from types import MappingProxyType, UnionType
from typing import Annotated, ClassVar, Mapping, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doubles import run_python

from rlvrloop.backends import SamplingParams
from rlvrloop.errors import CheckpointError, TaskFormatError
from rlvrloop.evaluator import EvaluationFailure, RewardRecord, read_rewards, write_rewards
from rlvrloop.guidance import Guidance
from rlvrloop.jsonl import (
    HASH_CHUNK_BYTES,
    SCHEMA_VERSION,
    Once,
    Shared,
    canonical_file_hash,
    derive_seed,
    dumps,
    read_declared,
    read_records,
    record,
    record_lines,
    write_records,
)
from rlvrloop.loop import read_guidance, write_guidance
from rlvrloop.pairs import PairSide, PreferencePair, RlvrDataset, SFTExample, emit_dataset, load_dataset
from rlvrloop.policy import TabularPolicy
from rlvrloop.rollout import Patch, Step, Trajectory, read_trajectories, write_trajectories
from rlvrloop.tasks import EnvSpec, RealTask, SynthTask, TestSuite, generate_synth_suite, load_tasks, save_tasks


@dataclass(frozen=True)
class Leaf:
    name: Shared[str]
    weight: float


@dataclass(frozen=True)
class Branch:
    leaf: Shared[Leaf]
    leaves: tuple[Shared[Leaf], ...]
    span: tuple[int, int] | None


@dataclass(frozen=True)
class Tree:
    kind: ClassVar[str] = "tree"

    task_id: Shared[str]
    label: str
    branch: Branch | None
    tags: Mapping[str, str]
    names: tuple[str, ...]
    note: Shared[str | None]
    seconds: float = field(default=0.0, compare=False)
    cache: dict = field(default_factory=dict, init=False, compare=False)


def test_a_new_record_type_needs_only_its_declaration(tmp_path):
    a, b = Leaf("a", 1.5), Leaf("b \u00e9", 2.0)
    trees = [
        Tree("t1", "one", Branch(a, (a, b), (3, 4)), MappingProxyType({"z": "1", "a": "2"}), ("x",), None, 9.5),
        Tree("t1", "two", Branch(b, (), None), {"k": "v"}, (), "a note"),
        Tree("t2", "three", None, {"z": "1", "a": "2"}, ("y", "x"), "a note"),
    ]
    path = tmp_path / "trees.jsonl"
    assert write_records(path, "trees", trees) == 3
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    assert lines == [dumps(json.loads(line)) for line in lines]  # sorted keys, compact separators
    leaf = {"name": "a", "weight": 1.5}
    assert json.loads(lines[0]) == {
        "kind": "tree", "task_id": "t1", "label": "one", "tags": {"a": "2", "z": "1"}, "names": ["x"], "note": None,
        "branch": {"leaf": leaf, "leaves": [leaf, {"name": "b \u00e9", "weight": 2.0}], "span": [3, 4]},
    }
    assert json.loads(lines[1])["branch"]["span"] is None and json.loads(lines[2])["branch"] is None

    back = read_declared(path, "trees", Tree)
    assert back == trees
    # equal Shared values and equal maps are one object each; a map reads back read-only
    assert back[0].branch.leaves[0] is back[0].branch.leaf and back[1].branch.leaf is back[0].branch.leaves[1]
    assert back[1].note is back[2].note and back[0].tags is back[2].tags
    with pytest.raises(TypeError):
        back[1].tags["k"] = "w"
    # a value reads as the JSON states it; a missing optional key reads as None, and a key no field declares is
    # ignored
    old = json.loads(lines[2])
    del old["note"]
    write_records(path, "trees", [old, {**json.loads(lines[1].replace('"weight":2.0', '"weight":2')), "x": 1}])
    assert read_declared(path, "trees", Tree) == [replace(trees[2], note=None), back[1]]
    assert type(read_declared(path, "trees", Tree)[1].branch.leaf.weight) is int
    write_records(path, "trees", [json.loads(lines[0]), json.loads(lines[1].replace('"label"', '"title"'))])
    with pytest.raises(TaskFormatError, match="trees.jsonl: line 3: missing field 'label'"):
        read_declared(path, "trees", Tree)


@dataclass(frozen=True)
class Turn:
    said: Once[str]
    by: Shared[str]


@dataclass(frozen=True)
class Talk:
    turns: Shared[tuple[Shared[Turn], ...]]  # declared before topic and task_id, but written after them
    topic: Once[str]
    task_id: Shared[str]
    opener: Shared[Turn | None]  # declared last, but written first


def turn_record(turn: Turn) -> dict:
    return {"by": turn.by, "said": turn.said}


def talk_record(talk: Talk) -> dict:
    return {"opener": talk.opener and turn_record(talk.opener), "task_id": talk.task_id, "topic": talk.topic,
            "turns": [turn_record(u) for u in talk.turns]}


def with_ordinals(records: list[dict]) -> list[dict]:
    """The records as a file holds them: a Once string seen earlier in the text is the ordinal of its first
    occurrence among the file's distinct ones. A line's text holds the opener's said, topic, then each turn's said."""
    seen: dict[str, int] = {}

    def once(text):
        if text in seen:
            return seen[text]
        seen[text] = len(seen)
        return text

    for record in records:
        if record["opener"] is not None:
            record["opener"]["said"] = once(record["opener"]["said"])
        record["topic"] = once(record["topic"])
        for turn in record["turns"]:
            turn["said"] = once(turn["said"])
    return records


# few distinct strings, so values repeat within and across tasks; "0" and "" look like no ordinal
words = st.sampled_from(["", "0", "1", "hello", "h\u00e9llo \u6f22", "a \"quote\"\n", "hello "])
turns = st.builds(Turn, said=words, by=st.sampled_from(["ann", "bo"]))
talks = st.lists(st.builds(
    Talk,
    turns=st.lists(turns, max_size=4).map(tuple),
    topic=words,
    task_id=st.sampled_from(["t1", "t2", "t3"]),
    opener=st.none() | turns,
), max_size=12)
# One Shared record or tuple of records, written again: its first occurrence writes its Once strings in full
# and its later ones as ordinals, so the same object's text differs between occurrences.
ONE_TUPLE = (Turn("a new prompt", "ann"), Turn("hello", "bo"))
ONE_OPENER = Turn("an opening", "bo")


@settings(max_examples=150, deadline=None)
@given(talks=talks)
@example(talks=[Talk(ONE_TUPLE, "hello", "t1", None), Talk(ONE_TUPLE, "0", "t1", None),
                Talk(ONE_TUPLE, "0", "t2", ONE_TUPLE[1])])
@example(talks=[Talk((), "hello", "t1", ONE_OPENER), Talk(ONE_TUPLE, "1", "t2", ONE_OPENER),
                Talk((), "", "t3", ONE_OPENER)])
def test_once_strings_are_written_once_and_read_back_in_text_order(talks):
    with tempfile.TemporaryDirectory() as tmp:
        path, again, v1 = (f"{tmp}/{name}.jsonl" for name in ("talks", "again", "v1"))
        assert write_records(path, "talks", talks) == len(talks)
        with open(path, encoding="utf-8") as fh:
            header, *lines = fh.read().splitlines()
        assert json.loads(header)["schema_version"] == SCHEMA_VERSION == 2
        assert lines == [dumps(r) for r in with_ordinals([talk_record(t) for t in talks])]
        back = read_declared(path, "talks", Talk)
        assert back == talks
        write_records(again, "talks", back)
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()
        # a version-1 file writes every value in full, and reads back as the same records
        with open(v1, "w", encoding="utf-8") as fh:
            fh.writelines(dumps(r) + "\n" for r in [{"schema": "talks", "schema_version": 1}, *map(talk_record, talks)])
        assert read_declared(v1, "talks", Talk) == talks
        # equal strings, turns and turn tuples of one file are one object each
        objects = {}
        for talk in back:
            for x in (talk.topic, talk.turns, talk.opener, *talk.turns, *(u.said for u in talk.turns)):
                assert objects.setdefault(x, x) is x


_STEPS = (Step("p1", "c1"), Step("p2", "c2"))
_PATCH = Patch((("line:1", "x1 = 2"),), "(1, 0)", (1, 0))
# type -> (arguments of one record, {field: its default}, [(a change __post_init__ refuses, its message)])
RECORDS = {
    SamplingParams: ((0.6, 7), {"max_tokens": 256}, [({"temperature": -0.5}, "temperature"),
                                                      ({"max_tokens": 0}, "max_tokens")]),
    Patch: (((("line:1", "x1 = 2"),), "(1, 0)"), {"synth": None}, []),
    Step: (("p2", "c2"), {}, []),
    Trajectory: (("t1", _STEPS, _PATCH, None, SamplingParams(0.0, 3, 64), "t1/tabular/3/u"), {}, []),
    # a plain dict of tests, which pickles where a read-only map would not, for a plain dataclass either
    RewardRecord: (("t1", "t1/tabular/3/u", 1, {"a": "pass"}, False, None), {"wall_time_s": 0.0},
                   [({"reward": True}, "reward"), ({"reward": 1, "empty_patch": True}, "empty patch")]),
    EvaluationFailure: (("t1", "t1/tabular/3/u", "backend died"), {}, []),
}


def plain_twin(cls):
    """cls's declaration under a plain @dataclass(frozen=True, slots=True), its __init__ written by dataclasses."""
    namespace = {"__annotations__": dict(cls.__annotations__), "__module__": cls.__module__}
    namespace.update({f.name: field(default=f.default, compare=f.compare) for f in fields(cls)
                      if f.default is not MISSING})
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclass(frozen=True, slots=True)(type(cls.__name__, (), namespace))


def type_error(call) -> str:
    with pytest.raises(TypeError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_constructor_keeps_the_frozen_dataclass_contract(cls):
    args, defaults, refusals = RECORDS[cls]
    twin = plain_twin(cls)
    names = [f.name for f in fields(cls)]
    x = cls(*args)
    assert x == cls(**dict(zip(names, args))) and [getattr(x, n) for n in names[:len(args)]] == list(args)
    assert {n: getattr(x, n) for n in names[len(args):]} == defaults
    assert inspect.signature(cls) == inspect.signature(twin)
    assert repr(x) == repr(twin(*args)) and not hasattr(x, "__dict__")
    # a class without a docstring gets dataclasses' default, its name and signature
    assert cls.__doc__ == twin.__doc__ or not cls.__doc__.startswith(f"{cls.__name__}(")
    assert x != cls(*args[:-1], "other")
    try:  # a record holding a map is unhashable, as its twin is
        assert hash(x) == hash(twin(*args)) == hash(cls(*args))
    except TypeError:
        assert type_error(lambda: hash(x)) == type_error(lambda: hash(twin(*args)))
    # the same TypeErrors, word for word, as dataclasses' __init__
    for call in (lambda c: c(*args[:-1]), lambda c: c(), lambda c: c(*args, **{names[0]: args[0]}),
                 lambda c: c(*args, nonfield=1)):
        assert type_error(lambda: call(cls)) == type_error(lambda: call(twin))
    for change, message in refusals:
        with pytest.raises(ValueError, match=message):
            replace(x, **change)
        with pytest.raises(ValueError, match=message):
            twin(**{**dict(zip(names, args)), **change})
    with pytest.raises(FrozenInstanceError):
        setattr(x, names[0], args[0])
    changed = replace(x, **{names[1]: args[0]})
    assert replace(x) == x and changed == cls(args[0], args[0], *args[2:]) != x
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is cls and back == x and [getattr(back, n) for n in names] == [getattr(x, n) for n in names]


def test_a_record_field_is_positional_with_at_most_a_plain_default():
    for spec in (field(default_factory=tuple), field(default=0, init=False), field(default=0, kw_only=True)):
        with pytest.raises(TypeError, match="Bad.y: a record field is positional"):
            record(type("Bad", (), {"__annotations__": {"x": "int", "y": "int"}, "y": spec}))


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
    # 63-bit, as seeds have always been: a seed fits a signed 64-bit integer in any reader
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


# ---------------------------------------------------------------------------
# Artifact files: what a read accepts
# ---------------------------------------------------------------------------


# Lines as the previous format wrote them: each step's role, each trajectory's backend id, a synthetic task's
# constant workspace, env_spec, tests and repo name, and a checkpoint's provenance, all since dropped.
OLD_TRAJECTORIES = [
    '{"schema":"trajectories","schema_version":2}',
    '{"backend_id":"tabular","guidance_id":null,"patch":{"edits":[["line:0","x0 = 2"]],"rendering":"(0, 0)",'
    '"synth":[0,0]},"sampling":{"max_tokens":256,"seed":62,"temperature":0.0},"steps":[{"completion":"```\\nLINE: '
    '0\\n```","prompt":"Task: synth-0000\\nlocalize","role":"localization"},{"completion":"```\\nCANDIDATE: 0\\n```",'
    '"prompt":"Task: synth-0000\\nrepair 0","role":"repair"}],"task_id":"synth-0000",'
    '"traj_id":"synth-0000/tabular/62/u"}',
    '{"backend_id":"tabular","guidance_id":null,"patch":null,"sampling":{"max_tokens":256,"seed":7,"temperature":0.6},'
    '"steps":[{"completion":"junk","prompt":0,"role":"localization"},{"completion":"","prompt":1,"role":"repair"}],'
    '"task_id":"synth-0000","traj_id":"synth-0000/tabular/7/u"}',
]
OLD_TASKS = [
    '{"schema":"tasks","schema_version":2}',
    '{"buggy_line":1,"candidates":[["x0 = 2","x0 = 7 + 2","x0 = 4"],["x1 = x0 - 9","x1 = x0 - 8","x1 = x0 * 2"],'
    '["x2 = x1 - 7","x2 = x0 * x0","x2 = x0 - x1"]],"env_spec":{"isolation":"in_memory_synthetic","setup_commands":[],'
    '"test_command":"","timeout_s":1.0},"expected_output":16,"id":"synth-0000","issue":"Running program synth-0000 '
    'yields the wrong result.","kind":"synth","lines":["x0 = 5","x1 = x0 - 2","x2 = x1 * x1"],'
    '"repo_name":"synthetic-programs","tests":{"focused":["output_matches"],"regression":["program_parses"]},'
    '"workspace":"inline"}',
]
OLD_POLICY = [
    '{"fine_tuned":true,"heads":{"synth-0000":{"cand_logits":[[0.5,0.0],[0.0,-1.25]],"line_logits":[0.0,2.0]}},'
    '"provenance":{"phase":"sft"},"schema":"tabular_policy","schema_version":2}',
]


def test_files_the_previous_format_wrote_still_read_and_rewrite_without_the_dropped_fields(tmp_path):
    def check(old_lines, read, write, dropped, expected, values=lambda x: x):
        """The old lines read as expected, and rewrite as themselves less the dropped keys and steps' roles."""
        old, new = tmp_path / "old", tmp_path / "new"
        old.write_text("\n".join(old_lines) + "\n", encoding="utf-8")
        write(read(old), new)
        assert values(read(old)) == values(read(new)) == expected
        recs = [json.loads(line) for line in old_lines]
        for step in (step for rec in recs for step in rec.get("steps", ())):
            del step["role"]
        lines = [dumps({k: v for k, v in rec.items() if k not in dropped}) for rec in recs]
        assert new.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    loc, repair = "Task: synth-0000\nlocalize", "Task: synth-0000\nrepair 0"
    live = Trajectory("synth-0000", (Step(loc, "```\nLINE: 0\n```"), Step(repair, "```\nCANDIDATE: 0\n```")),
                      Patch((("line:0", "x0 = 2"),), "(0, 0)", (0, 0)), None, SamplingParams(0.0, 62),
                      "synth-0000/tabular/62/u")
    dead = Trajectory("synth-0000", (Step(loc, "junk"), Step(repair, "")), None, None, SamplingParams(0.6, 7),
                      "synth-0000/tabular/7/u")
    check(OLD_TRAJECTORIES, read_trajectories, write_trajectories, {"backend_id"}, [live, dead])

    task = SynthTask("synth-0000", "Running program synth-0000 yields the wrong result.",
                     ("x0 = 5", "x1 = x0 - 2", "x2 = x1 * x1"), 1,
                     (("x0 = 2", "x0 = 7 + 2", "x0 = 4"), ("x1 = x0 - 9", "x1 = x0 - 8", "x1 = x0 * 2"),
                      ("x2 = x1 - 7", "x2 = x0 * x0", "x2 = x0 - x1")), 16)
    check(OLD_TASKS, load_tasks, save_tasks, {"workspace", "env_spec", "tests", "repo_name"}, [task], list)

    check(OLD_POLICY, TabularPolicy.load, TabularPolicy.save, {"provenance"},
          (True, {"synth-0000": ([0.0, 2.0], [[0.5, 0.0], [0.0, -1.25]])}),
          lambda p: (p.fine_tuned, {t: (h.line_logits.tolist(), h.cand_logits.tolist()) for t, h in p.heads.items()}))


def _reward_file(path):
    write_rewards([RewardRecord("t1", "t1/tabular/3/u", 0, {"a": "fail"}, False, "FAIL a")], path)


def _real_task_file(path):
    save_tasks([RealTask("real-1", "x", str(path.parent), EnvSpec(("make",), "true", 10.0, "process_sandbox"),
                         TestSuite(("a",), ("b",)), "r")], path)


def _trajectory_file(path):
    write_trajectories([Trajectory("synth-0000", (Step("Task: synth-0000\nlocalize", "```\nLINE: 0\n```"),),
                                   Patch((("line:0", "x0 = 2"),), "(0, 0)", (0, 0)), None, SamplingParams(0.0, 62),
                                   "synth-0000/tabular/62/u")], path)


# kind of file -> (its writer of one valid record, its reader, the error a bad record raises)
FILES = {
    "rewards": (_reward_file, read_rewards, TaskFormatError),
    "synthetic task": (lambda path: save_tasks(generate_synth_suite(1, 3, 3, seed=0), path), load_tasks,
                       TaskFormatError),
    "real task": (_real_task_file, load_tasks, TaskFormatError),
    "trajectory": (_trajectory_file, read_trajectories, TaskFormatError),
    "policy": (lambda path: TabularPolicy.uniform(generate_synth_suite(1, 3, 3, seed=0)).save(path),
               TabularPolicy.load, CheckpointError),
}
NESTED = {"timeout_s": "env_spec", "setup_commands": "env_spec", "synth": "patch"}  # key -> the record holding it


@pytest.mark.parametrize("kind, key, value", [
    ("rewards", "reward", 1.7), ("rewards", "reward", True), ("rewards", "reward", "0"),
    ("rewards", "empty_patch", 0),
    ("synthetic task", "expected_output", 10.5), ("synthetic task", "buggy_line", 1.9),
    ("synthetic task", "buggy_line", True), ("real task", "timeout_s", "10"), ("real task", "timeout_s", False),
    ("policy", "fine_tuned", "false"), ("policy", "fine_tuned", 0),
    # a string where a list is declared would read as its characters: "make" as four shell commands
    ("synthetic task", "lines", "ab"), ("synthetic task", "candidates", "abc"),
    ("synthetic task", "candidates", ["ab", "cd", "ef"]), ("real task", "setup_commands", "make"),
    ("trajectory", "synth", "01"), ("trajectory", "synth", {"0": 1}),
])
def test_a_read_refuses_a_value_of_a_type_its_writer_never_writes(tmp_path, kind, key, value):
    """No value is converted on the way in: one of the wrong type is an error naming the file, its line in a
    JSONL file, and the field."""
    write, read, error = FILES[kind]
    path = tmp_path / "file"
    write(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[-1])
    (rec[NESTED[key]] if key in NESTED else rec)[key] = value
    path.write_text("\n".join([*lines[:-1], dumps(rec)]) + "\n", encoding="utf-8")
    where = f"{path}: " if error is CheckpointError else f"{path}: line 2: "
    with pytest.raises(error, match=re.escape(where) + f".*{key}"):
        read(path)


# Each record type a reader decodes -> (a writer of a file whose last line is one such record, every tuple in it
# holding an item and every optional record set, its reader of the file's records)
DECLARED = {
    SynthTask: (FILES["synthetic task"][0], lambda path: load_tasks(path).tasks),
    RealTask: (_real_task_file, lambda path: load_tasks(path).tasks),
    Trajectory: (_trajectory_file, read_trajectories),
    RewardRecord: (_reward_file, read_rewards),
    EvaluationFailure: (lambda path: write_rewards([EvaluationFailure("t1", "t1/tabular/3/u", "lost")], path),
                        read_rewards),
    Guidance: (lambda path: write_guidance([Guidance("g-1", "t1", "t1/tabular/3/u", "plan", "feedback", "line 0",
                                                     "teacher")], path), read_guidance),
    PreferencePair: (lambda path: emit_dataset(RlvrDataset(pairs=(PreferencePair(
        "t1", "prompt", PairSide("t1/a", "right", (0, 1)), PairSide("t1/b", "wrong", (1, 0)), "rollout_pair"),)), path),
        lambda path: load_dataset(path).pairs),
    SFTExample: (lambda path: emit_dataset(RlvrDataset(sft=(SFTExample("t1", "prompt", "right", (0, 1)),)), path),
                 lambda path: load_dataset(path).sft),
}
# A value of each JSON type. 0 is no Once string's ordinal: each file's first Once string is the one replaced.
SAMPLES = ("text", 0, 2.5, True, None, [], {})
# The Python types of the JSON values each scalar type reads: an int is not a bool, and a float is any number.
READS = {str: (str,), int: (int,), float: (int, float), bool: (bool,)}


def declared(hint) -> tuple[type, bool]:
    """(the type, whether it is optional) of a field's hint, its Shared or Once marks dropped."""
    if get_origin(hint) is Annotated:
        hint = hint.__origin__
    if get_origin(hint) in (Union, UnionType) and type(None) in get_args(hint):
        return next(arg for arg in get_args(hint) if arg is not type(None)), True
    return hint, False


def field_paths(cls, path=()):
    """(JSON path, hint) of each field a record type's line holds, and of each field of the records in it."""
    hints = get_type_hints(cls, include_extras=True)
    for f in fields(cls):
        if f.init and f.compare:
            yield (*path, f.name), hints[f.name]
            kind, where = declared(hints[f.name])[0], (*path, f.name)
            if get_origin(kind) is tuple:  # of records, the fields of its first
                kind, where = declared(get_args(kind)[0])[0], (*where, 0)
            if is_dataclass(kind):
                yield from field_paths(kind, where)


def wrong(hint, valid) -> list:
    """JSON values that a field of the hint never holds, given one it does: each sample of another JSON type,
    [] for an optional field, a list holding a wrong item or of a fixed tuple's wrong length, and an object holding
    a wrong value or a list of pairs in place of a map."""
    kind, optional = declared(hint)
    origin, args = get_origin(kind), get_args(kind)
    reads = (dict,) if is_dataclass(kind) or origin is abc.Mapping else (list,) if origin is tuple else READS[kind]
    out = [x for x in SAMPLES if type(x) not in reads and not (optional and x is None)] + [[]] * optional
    if origin is tuple:
        out += [[x, *valid[1:]] for x in wrong(args[0], valid[0])]
        if args[-1] is not Ellipsis:
            out += [valid + valid[:1], valid[:-1]]
    if origin is abc.Mapping:
        key, value = next(iter(valid.items()))
        out += [{**valid, key: x} for x in wrong(args[1], value)] + [[[key, 7]]]
    return out


@pytest.mark.parametrize("cls, path, hint", [
    pytest.param(cls, path, hint, id=f"{cls.__name__}-{'.'.join(map(str, path))}")
    for cls in DECLARED for path, hint in field_paths(cls)
])
def test_a_read_refuses_each_value_its_field_does_not_declare(tmp_path, cls, path, hint):
    """Each field of each record type a reader decodes, given a value of a JSON type its declaration does not read,
    is an error naming the file, the line and the field's key."""
    write, read = DECLARED[cls]
    file = tmp_path / "file"
    write(file)
    *lines, last = file.read_text(encoding="utf-8").splitlines()
    assert type(read(file)[-1]) is cls
    rec = json.loads(last)
    holder = functools.reduce(operator.getitem, path[:-1], rec)
    for value in wrong(hint, holder[path[-1]]):
        holder[path[-1]] = value
        file.write_text("\n".join([*lines, dumps(rec)]) + "\n", encoding="utf-8")
        with pytest.raises(TaskFormatError, match=re.escape(f"{file}: line {len(lines) + 1}: {path[-1]}: ")):
            read(file)
