"""JSONL persistence helpers, the record codec, and the package's seeds and random stream.

Every artifact file starts with a header record carrying the schema name and
a schema_version so old files fail loudly instead of deserializing garbage;
a checkpoint is one JSON document whose top level carries the same header.
No artifact records a wall-clock value, so reruns of a deterministic
pipeline write identical bytes and a plain content hash tells them apart.

A record type is a dataclass whose declaration is its file format: a line is
dumps of the fields its equality compares, each under its name, and its
ClassVar tags, nested records, tuples and read-only maps as the type hints
say. A read refuses, naming the key, a value of a JSON type its field's hint
does not declare (see _Codecs._convert); one that passes reads as the JSON
holds it, for the type's __post_init__ to check its range, and a key no
field declares is ignored. Shared values are escaped once per file and read
as one object each. A Once string is written in full at its first occurrence
in a file and as its ordinal after that: the position of that first
occurrence among the file's distinct Once strings, counted in text order
(line by line, and within a line by sorted key and list order).

Each record type compiles one encoder and one decoder: a line is one
f-string, a nested record its own type's encoder call, and the text of a map
is made once per file, by identity. The record decorator makes a frozen,
slotted dataclass whose constructor is compiled from the same fields.
"""
from __future__ import annotations

import inspect
import itertools
import json
import math
import struct
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType, UnionType
from typing import (
    Annotated, Any, Callable, ClassVar, Iterable, Iterator, TypeVar, Union, get_args, get_origin, get_type_hints,
)

import numpy as np

from .errors import CheckpointError, TaskFormatError

# The interpreter's own SHA-256, as the random module takes its SHA-512: it loads no OpenSSL,
# and on derive_seed's short keys it is faster than hashlib's.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# 2: a repeated Once string is written as its ordinal; a version-1 file is one that has no ordinals.
SCHEMA_VERSION = 2

# canonical_file_hash's read size.
HASH_CHUNK_BYTES = 1 << 16

# One encoder for every record: json.dumps with these arguments would build a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# read_records' scanner: json.loads would check its argument's type and call decode per line.
_RAW_DECODE = json.JSONDecoder().raw_decode

# derive_seed's reader of a digest's first 8 bytes as a big-endian integer.
_FIRST_U64 = struct.Struct(">Q").unpack_from

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the stream's increment and its finalizer's constants.
_GOLDEN, _MIX1, _MIX2 = (np.uint64(v) for v in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_U27, _U30, _U31 = (np.uint64(v) for v in (27, 30, 31))


def dumps(record: dict[str, Any]) -> str:
    return _ENCODER.encode(record)


class DumpsMemo(dict):
    """value -> dumps(value), each computed on first use; a tuple encodes as the list it stands for.

    Keys compare by value, so a memo must only see values whose equal ones encode alike
    (strings and None, say, but not True beside 1)."""

    def __missing__(self, value):
        self[value] = text = dumps(value)
        return text


class _Ordinals(dict):
    """Once string -> the text a file writes for it: dumps of it at its first occurrence, its ordinal after that."""

    def __missing__(self, value):
        self[value] = str(len(self))
        return dumps(value)


def dumps_scalar(x) -> str:
    """x as dumps renders it (0 stays 0, inf is Infinity); a bool, a plain int or a finite float skips the encoder."""
    if x is True or x is False:
        return "true" if x else "false"
    return repr(x) if type(x) is int or (type(x) is float and math.isfinite(x)) else dumps(x)


def write_records(path: str | Path, schema: str, records: Iterable) -> int:
    """Write a header line, then each record's line (see record_lines). Returns record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps({"schema": schema, "schema_version": SCHEMA_VERSION}) + "\n")
        for line in record_lines(records):
            fh.write(line + "\n")
            n += 1
    return n


T = TypeVar("T")
Shared = Annotated[T, "shared"]
Once = Annotated[T, "once"]  # a string


def _parse(hint) -> tuple[Any, tuple, bool]:
    """(type, Annotated markers, whether None is allowed) of a field's type hint."""
    marks = ()
    if get_origin(hint) is Annotated:
        hint, marks = hint.__origin__, hint.__metadata__
    if get_origin(hint) in (Union, UnionType) and type(None) in get_args(hint):
        return next(arg for arg in get_args(hint) if arg is not type(None)), marks, True
    return hint, marks, False


def record(cls: type[T]) -> type[T]:
    """cls made a frozen, slotted dataclass whose __init__ is compiled from its fields, as the codec is.

    The __init__ has dataclasses' signature and annotations. It stores each argument through its slot's member
    descriptor, where the frozen __init__ of dataclasses calls object.__setattr__ per field, and then calls
    __post_init__ if cls has one. Every field is a positional argument with at most a plain default. A class
    without a docstring gets dataclasses' default one, its name and signature."""
    # a docstring for now, so that dataclasses does not write one from the signature of an __init__ cls has not got
    doc, cls.__doc__ = cls.__doc__, "record"
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    env, params, body = {}, [], []
    for f in fields(cls):
        if not f.init or f.kw_only or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field is positional, with at most a plain default")
        env[f"_set_{f.name}"], env[f"_default_{f.name}"] = cls.__dict__[f.name].__set__, f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}")
        body.append(f" _set_{f.name}(self, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()\n")
    exec(compile(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", f"<{cls.__qualname__} __init__>",
                 "exec"), env)
    init = cls.__init__ = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in fields(cls)}, "return": None}
    cls.__doc__ = doc or cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


def _map_text(texts: dict, value: Mapping) -> str:
    """dumps of map value's items, made once per file per map object; texts keeps value alive, so no later object
    takes its id."""
    hit = texts.get(id(value))
    if hit is None:
        hit = texts[id(value)] = value, dumps(dict(value))
    return hit[1]


def _once(v, table: list, shared: dict, key: str) -> str:
    """The Once string JSON value v, which is not the ordinal of a table entry, stands for: the table's next entry."""
    if type(v) is not str:
        raise ValueError(f"{key}: {v!r} is neither a string nor the ordinal of one of the {len(table)} before it")
    table.append(v := shared.setdefault(v, v))
    return v


# The JSON values each scalar type reads: the test of one, {v} being its first use and {t} the others, and what a
# refusal names. An int is not a bool, and a float field also reads an integer, as a hand-written timeout of 10.
_SCALARS = {
    str: ("type({v}) is str", "a string"),
    int: ("type({v}) is int", "an integer"),
    float: ("type({v}) in (int, float)", "a number"),
    bool: ("{v} is True or {t} is False", "true or false"),
}


def _refuse(v, key: str, expected: str):
    raise ValueError(f"{key}: expected {expected}, got {v!r}")


def _list(v, key: str, n: int = -1) -> list:
    """JSON value v, which a tuple field is read from, if it is a list (of n items unless n is -1); a function, as
    a comprehension's iterable cannot bind a name."""
    if type(v) is not list or n != -1 and len(v) != n:
        _refuse(v, key, "a list" if n == -1 else f"a list of {n}")
    return v


def _shared_map(value, shared: dict) -> Mapping:
    """A read-only view of dict value, one object for every equal map read through shared."""
    key = (Mapping, tuple(value.items()))
    hit = shared.get(key)
    if hit is None:
        hit = shared[key] = MappingProxyType(value)
    return hit


class _Codecs(dict):
    """Record type -> (enc(record, memo, ordinals, texts) -> its line, dec(rec, shared, table) -> the record rec
    holds).

    Both are compiled once per type from its declaration, as record compiles __init__, so a line costs one
    f-string and a record one constructor call. A nested record is its own type's enc or dec call. A Shared
    value is escaped once per file, by value, and a map is encoded once per file, by identity (see _map_text).
    A plain str is escaped by the encoder's own C function. dec reads the fields in sorted key order, the order
    of the line's text and so of its Once ordinals, and makes each Shared value, a nested record included, one
    object through shared."""

    def __missing__(self, cls):
        env = {"cls": cls, "d": dumps, "s": dumps_scalar, "a": encode_basestring_ascii, "_map_text": _map_text,
               "_shared_map": _shared_map, "_once": _once, "_list": _list, "_refuse": _refuse}
        hints, temps = get_type_hints(cls, include_extras=True), itertools.count()
        parts = [(name, dumps(getattr(cls, name))) for name, hint in hints.items() if get_origin(hint) is ClassVar]
        names = sorted(f.name for f in fields(cls) if f.init and f.compare)  # each its JSON key, in text order
        parts += [(name, "{" + self._encode(hints[name], f"x.{name}", env, temps) + "}") for name in names]
        line = "{{" + ",".join(f'"{key}":{text}' for key, text in sorted(parts)) + "}}"
        values = [(name, *self._decode(hints[name], name, env, temps)) for name in names]
        args = ", ".join(f"{name}={self._one(code, temps) if shared else code}" for name, code, shared in values)
        source = f"def enc(x, m, o, t):\n return f'{line}'\n"
        source += f"def dec(r, shared, table):\n one = shared.setdefault\n return cls({args})\n"
        exec(compile(source, f"<{cls.__qualname__} codec>", "exec"), env)
        self[cls] = codec = env["enc"], env["dec"]
        return codec

    def _encode(self, hint, v: str, env: dict, temps: Iterator[int]) -> str:
        """Source of the JSON text of expression v's value, m being the file's value memo, o its ordinals and t
        its map texts by identity."""
        kind, marks, optional = _parse(hint)
        args = get_args(kind)
        if is_dataclass(kind):
            env[name := f"e{id(kind)}"] = self[kind][0]
            return f'("null" if {v} is None else {name}({v}, m, o, t))' if optional else f"{name}({v}, m, o, t)"
        if get_origin(kind) is Mapping:
            return f"_map_text(t, {v})"
        if get_origin(kind) is tuple and is_dataclass(_parse(args[0])[0]):
            y = f"_{next(temps)}"
            return f'"[" + ",".join([{self._encode(args[0], y, env, temps)} for {y} in {v}]) + "]"'
        if kind in (bool, int, float):
            return f"s({v})"
        if get_origin(kind) is tuple and optional:
            code = f'"[" + ",".join(map(s, {v})) + "]"' if {bool, int, float}.issuperset(args) else f"d({v})"
            return f'("null" if {v} is None else {code})'
        if "once" in marks:
            return f"o[{v}]"
        if "shared" in marks:
            return f"m[{v}]"
        return f"a({v})" if kind is str and not optional else f"d({v})"

    @staticmethod
    def _one(code: str, temps: Iterator[int]) -> str:
        """Source of the one object of shared equal to code's value."""
        t = f"_{next(temps)}"
        return f"one({t} := {code}, {t})"

    def _decode(self, hint, key: str, env: dict, temps: Iterator[int], v: str = "") -> tuple[str, bool]:
        """(Source of the value of rec r's field key or of JSON value v, whether it is Shared but not yet made one
        object by one()): a map or a Once string is one object already."""
        kind, marks, optional = _parse(hint)
        v, t = v or (f'r.get("{key}")' if optional else f'r["{key}"]'), f"_{next(temps)}"
        if "once" in marks:  # an ordinal is an int in range: not a bool, and never negative
            ordinal = f"type({t} := {v}) is int and 0 <= {t} < len(table)"
            return f"(table[{t}] if {ordinal} else _once({t}, table, shared, {key!r}))", False
        if optional:
            code = f"(None if ({t} := {v}) is None else {self._convert(kind, t, env, temps, key)})"
        else:
            code = self._convert(kind, v, env, temps, key)
        return code, "shared" in marks and get_origin(kind) is not Mapping

    def _convert(self, kind, v: str, env: dict, temps: Iterator[int], key: str) -> str:
        """Source of the value JSON value v stands for if kind reads v's JSON type, else of a ValueError naming key: a
        scalar reads as _SCALARS says, a tuple a list of its items (as many as a fixed one has, each of its first
        item's type), a map an object of its values, and a record an object."""
        args = get_args(kind)
        if is_dataclass(kind):
            env[name := f"d{id(kind)}"] = self[kind][1]
            return f"{name}({self._check(v, 'type({v}) is dict', 'an object', key, temps)}, shared, table)"
        if get_origin(kind) is Mapping:
            test, expected = _SCALARS[args[1]]
            values = f"type({{v}}) is dict and all([{test.format(v='y', t='y')} for y in {{t}}.values()])"
            check = self._check(v, values, f"an object whose every value is {expected}", key, temps)
            return f"_shared_map({check}, shared)"
        if get_origin(kind) is tuple:
            y = f"_{next(temps)}"
            code, shared = self._decode(args[0], key, env, temps, y)
            items = f"_list({v}, {key!r}, {-1 if args[-1] is Ellipsis else len(args)})"
            return f"tuple([{self._one(code, temps) if shared else code} for {y} in {items}])"
        test, expected = _SCALARS[kind]
        return self._check(v, test, expected, key, temps)

    @staticmethod
    def _check(v: str, test: str, expected: str, key: str, temps: Iterator[int]) -> str:
        """Source of JSON value v if test (see _SCALARS) holds of it, else of a ValueError naming key."""
        t = v if v.isidentifier() else f"_{next(temps)}"
        test = test.format(v=v if t == v else f"({t} := {v})", t=t)
        return f"({t} if {test} else _refuse({t}, {key!r}, {expected!r}))"


_CODECS = _Codecs()
# a plain dict is its own line's record
_CODECS[dict] = (lambda record, memo, ordinals, texts: dumps(record)), (lambda rec, shared, table: rec)


def record_lines(records: Iterable) -> Iterator[str]:
    """Each record's line, by its type's compiled encoder (a plain dict's is dumps); a Shared string or tuple and
    a map are encoded once per call, and a Once string is written in full once per call, its later occurrences
    as its ordinal."""
    memo, ordinals, texts = DumpsMemo(), _Ordinals(), {}
    for r in records:
        yield _CODECS[type(r)][0](r, memo, ordinals, texts)


def read_declared(path: str | Path, schema: str, kind: type | Callable[[dict], type]) -> list:
    """The file's records, each decoded as kind or as the type kind(rec) names; all through one shared dict, so
    equal Shared and Once values and maps among them are one object each, and one table of the file's Once
    strings in the order they enter, which its ordinals index. A line whose ordinal names no earlier string is a
    TaskFormatError."""
    shared: dict = {}
    table: list[str] = []
    pick = (lambda rec: kind) if isinstance(kind, type) else kind
    return [x for _, x in read_records(path, schema, lambda rec: _CODECS[pick(rec)][1](rec, shared, table))]


def read_records(
    path: str | Path, schema: str | None = None, decode: Callable[[dict], Any] | None = None
) -> Iterator[tuple[int, Any]]:
    """Yield (line_number, decode(record)) pairs, skipping a leading header record.

    line_number is 1-based and refers to the physical line in the file.
    decode defaults to returning the record dict itself. Any fault in a line
    (invalid JSON, a record that is not an object, a header for another
    schema or version, or a KeyError, TypeError, ValueError or
    TaskFormatError raised by decode) raises TaskFormatError naming the path
    and the line. Files written before a header was standard (no header
    line) are accepted as long as the first record is not itself a header
    for a different schema.
    """
    path = Path(path)
    lineno = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                rec, end = _RAW_DECODE(line)
                if end != len(line):  # at the position json.loads names: past the whitespace after the value
                    raise json.JSONDecodeError("Extra data", line, json.decoder.WHITESPACE.match(line, end).end())
                if not isinstance(rec, dict):
                    raise TypeError("expected an object")
                if lineno == 1 and "schema" in rec and "schema_version" in rec:
                    _check_header(rec, schema)
                    continue
                yield lineno, rec if decode is None else decode(rec)
    except json.JSONDecodeError as exc:
        raise TaskFormatError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
    except KeyError as exc:
        raise TaskFormatError(f"{path}: line {lineno}: missing field {exc}") from exc
    except (TypeError, ValueError, TaskFormatError) as exc:
        raise TaskFormatError(f"{path}: line {lineno}: {exc}") from exc


def write_document(path: str | Path, schema: str, body: dict[str, Any]) -> None:
    """One JSON document, as compact as a record line: the header fields and the body, keys sorted."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps({"schema": schema, "schema_version": SCHEMA_VERSION, **body}) + "\n", encoding="utf-8")


def read_document(path: str | Path, schema: str, what: str) -> dict[str, Any]:
    """The document at path, its header checked if it has one; CheckpointError naming `what` on any fault."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read {what} checkpoint {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("schema") != schema:
        raise CheckpointError(f"{path}: not a {what} checkpoint")
    if "schema_version" in document:
        try:
            _check_header(document, schema)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: {exc}") from exc
    return document


def _check_header(header: dict[str, Any], schema: str | None) -> None:
    if schema is not None and header["schema"] != schema:
        raise ValueError(f"header schema {header['schema']!r} does not match expected {schema!r}")
    version = header["schema_version"]
    if not isinstance(version, int):
        raise TypeError(f"header schema_version {version!r} is not an integer")
    if version > SCHEMA_VERSION:
        raise ValueError(f"schema_version {version} is newer than supported {SCHEMA_VERSION}")


def canonical_file_hash(path: str | Path) -> str:
    """sha256 of a file's bytes; the hash recorded in run manifests.

    The file is read HASH_CHUNK_BYTES at a time into one buffer, so hashing a large artifact never
    holds the whole file. hashlib is imported here: OpenSSL hashes large files several times faster
    than the builtin module, and a process that hashes no file never loads it."""
    import hashlib

    digest, chunk = hashlib.sha256(), bytearray(HASH_CHUNK_BYTES)
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(chunk):
            digest.update(view[:size])
    return digest.hexdigest()


def splitmix64(state, counters: np.ndarray) -> np.ndarray:
    """SplitMix64's outputs mix(state + i * 0x9E3779B97F4A7C15 mod 2**64) at each counter i, as uint64.

    The package's one random stream. state is an np.uint64 or a uint64 array that broadcasts against
    the uint64 counters: every operand is uint64, so numpy 1.x and 2.x wrap alike and warn of no
    overflow. Output i depends only on (state, i), so no generator state is carried or seeded."""
    z = state + counters * _GOLDEN
    z = (z ^ z >> _U30) * _MIX1
    z = (z ^ z >> _U27) * _MIX2
    return z ^ z >> _U31


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary labels.

    Used everywhere a sub-seed is needed (per rollout slot, per phase) so no
    component ever consults the wall clock or global RNG state. The key is the
    parts' str() joined by ":"; the seed is its SHA-256 digest's first 8 bytes,
    big-endian, shifted right by 1. The shift keeps every seed, and so every
    trajectory id and seed written to an artifact, as it was, and a seed
    below 2**63 fits a signed 64-bit integer wherever a reader stores one.
    Two and three parts, the hot arities, build the same key in one f-string.
    """
    if len(parts) == 2:
        a, b = parts
        key = f"{a!s}:{b!s}"
    elif len(parts) == 3:
        a, b, c = parts
        key = f"{a!s}:{b!s}:{c!s}"
    else:
        key = ":".join(map(str, parts))
    return _FIRST_U64(_sha256(key.encode("utf-8")).digest())[0] >> 1
