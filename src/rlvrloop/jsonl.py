"""JSONL persistence helpers.

Every artifact file starts with a header record carrying the schema name and
a schema_version so old files fail loudly instead of deserializing garbage;
a checkpoint is one JSON document whose top level carries the same header.
No artifact records a wall-clock value, so reruns of a deterministic
pipeline write identical bytes and a plain content hash tells them apart.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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

SCHEMA_VERSION = 1

# canonical_file_hash's read size.
HASH_CHUNK_BYTES = 1 << 16

# One encoder for every record: json.dumps with these arguments would build a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# read_records' scanner: json.loads would check its argument's type and call decode per line.
_RAW_DECODE = json.JSONDecoder().raw_decode

# derive_seed's reader of a digest's first 8 bytes as a big-endian integer.
_FIRST_U64 = struct.Struct(">Q").unpack_from


def dumps(record: dict[str, Any]) -> str:
    return _ENCODER.encode(record)


class DumpsMemo(dict):
    """value -> dumps(value), each computed on first use; a tuple encodes as the list it stands for.

    Keys compare by value, so a memo must only see values whose equal ones encode alike
    (strings and None, say, but not True beside 1)."""

    def __missing__(self, value):
        self[value] = text = dumps(value)
        return text


def dumps_scalar(x) -> str:
    """x as dumps renders it (0 stays 0, inf is Infinity); a bool, a plain int or a finite float skips the encoder."""
    if x is True or x is False:
        return "true" if x else "false"
    return repr(x) if type(x) is int or (type(x) is float and math.isfinite(x)) else dumps(x)


def write_records(path: str | Path, schema: str, records: Iterable[dict[str, Any]]) -> int:
    """Write a header line followed by one record per line. Returns record count."""
    return write_lines(path, schema, map(dumps, records))


def write_lines(path: str | Path, schema: str, lines: Iterable[str]) -> int:
    """Write a header line, then stream each already-encoded record line. Returns line count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps({"schema": schema, "schema_version": SCHEMA_VERSION}) + "\n")
        for line in lines:
            fh.write(line + "\n")
            n += 1
    return n


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
    """One JSON document: the header fields and the body, keys sorted, indent 1."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"schema": schema, "schema_version": SCHEMA_VERSION, **body}
    path.write_text(json.dumps(document, sort_keys=True, indent=1) + "\n", encoding="utf-8")


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


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed from arbitrary labels.

    Used everywhere a sub-seed is needed (per rollout slot, per phase) so no
    component ever consults the wall clock or global RNG state. The key is the
    parts' str() joined by ":"; the seed is its SHA-256 digest's first 8 bytes,
    big-endian, shifted right by 1. Two and three parts, the hot arities, build
    the same key in one f-string.
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
