"""File formats, train/held-out splitting, and report rendering.

Formats (all UTF-8; LF written, LF, CRLF and CR accepted on read):

  predictions CSV   header ``sample_id,p0,...,p{C-1}``, one row per sample
  labels CSV        header ``sample_id,label``, label an integer in [0, C)
  fused CSV         header ``sample_id,p0,...,p{C-1},predicted`` (``fuse``)
  manifest JSON     keys ``num_classes``, ``class_names``, ``classifiers``
                    (array of ``{name, path}``), ``labels``; paths resolve
                    relative to the manifest's own directory
  weights JSON      keys ``weights``, ``full_data_nll``
  report JSON       keys ``nll``, ``accuracy_percent``, ``confusion``,
                    ``per_class_accuracy``, ``classifier_names``,
                    ``sample_count``

The manifest, generator spec, weights and report JSON are each checked
by ``_typed`` against one key table, whose entries are ``int``, ``float``
(finite), ``str``, ``[entry]`` for an array and ``{key: entry}`` for an
object with exactly those keys. A missing or extra key, or a value of the
wrong JSON type (a bool or a string for a number, a float for an int, a
non-finite value, a number or null for a name, a scalar for an array), is
an error naming the file and the key path, such as ``confusion[2][1]``;
nothing is coerced. The values then go to one constructor (``GAConfig``
for the GA config, whose keys are optional) through ``_built``, which puts
the file and key path before any range or limit error it raises, such as
a classifier name listed twice. A JSON file that is not UTF-8 text, that
json cannot decode, or that repeats a key in one object is an error too.

Floats are written with Python's shortest round-trip repr, so
write -> read -> write is byte-identical. Every CSV (predictions, labels
and the fused output) comes from one writer that formats one block of
rows at a time. A sample id holding a comma, a double quote, LF or CR is
written double-quoted with its quotes doubled; for ids without CR these
are the bytes of ``csv.writer(lineterminator="\\n")``. Every output file
is written to a new temp file beside the target and then moved onto it,
so a failed write leaves the old file as it was.

Both CSV readers share one reader, ``_read_table``, with the csv module's
default dialect: a cell may be quoted (so an id may hold commas, quotes
or line breaks), LF, CRLF and CR all end a row, and blank rows are
skipped. Row numbers count records from the header's 1, blank ones
included. The first pass only parses: per block of rows, one numpy call
(``_convert``) that parses every cell as ``float()`` or ``int()`` would
and refuses a block with a wrong cell count. The loader's ``build`` then
checks the [0, C) range of labels, which ``LabeledSamples`` cannot check
without C, and calls the type's public constructor, ``PredictionSet`` or
``LabeledSamples``, which checks the ids and every row, once, over the
whole file. If the parse or ``build`` fails, a walk from the
top of the text already decoded names the file and its first bad row, so
a pipe gets the same error as a file. A row is checked for the wrong cell
count (an extra trailing cell included), then a repeated sample id, a
cell that does not parse, and for predictions an entry outside [0, 1]
(which catches infinities), a NaN entry ("non-finite probability") and a
sum that misses 1 (decided by ``math.fsum``, as in ``PredictionSet``);
for labels a value outside [0, C).

Each load of a regular CSV file is cached in ``.softvote-cache/`` beside
it, one entry per file, written after every parse that ``build`` accepted.
``write_predictions`` and ``write_labels`` store the same entry for each
regular file they write whose ids all fit the csv field limit, which a
parse of it requires. An entry holds one JSON line (the key, a CRC-32 of
the payload and the byte count of its ids), then the payload: the sample
ids as a JSON array and the values as raw little-endian float64 or int64.
The key is a BLAKE2b digest of the file's exact bytes, the header's
column name and count, the value dtype, the csv field limit and
``_CACHE_FORMAT``; no file time or size is part of it, so one labels
entry serves every C. A load whose entry's head line holds a key hashes
the CSV into a key as a stream (``_CHUNK`` bytes at a time into one
buffer), and reads the payload only if the keys match. Such a hit keeps
no copy of the CSV and passes the cached ids and values to ``build``, so
every row, id and label range is checked as on a first load. Otherwise
the file is read whole and those bytes are hashed, parsed and stored: a
stale entry costs a second read.
A failed write of an entry is ignored, so the cache changes no result
and no error. Within one ``load_ensemble`` every file whose ids equal
the first file's gets that file's tuple, and an entry's ids JSON that
matches the first file's byte for byte is not decoded.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import sys
import zlib
from _blake2 import blake2b  # hashlib re-exports it, but importing hashlib loads OpenSSL
from contextvars import ContextVar
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import EnsembleInputs, LabeledSamples, PredictionSet, as_weights
from .core import _classifier_names, _file_classifier_name, _first_duplicate, _first_invalid_row, _string, _strings
from .errors import (
    AlignmentError,
    ConfigError,
    FormatError,
    LabelRangeError,
    SplitError,
    ValidationError,
    _integer,
    _real,
    _shown,
)
from .ga import GAConfig
from .metrics import EvaluationReport
from .rng import check_seed, make_rng
from .synthgen import ClassifierProfile, GeneratorSpec

DEFAULT_CLASS_NAMES = (
    "safe driving",
    "text right",
    "talk right",
    "text left",
    "talk left",
    "adjust radio",
    "drink",
    "reach behind",
    "hair and makeup",
    "talk to passenger",
)


def _posture_names(num_classes: int) -> tuple[str, ...] | None:
    """The paper's posture names when there are 10 classes, else None."""
    return DEFAULT_CLASS_NAMES if num_classes == len(DEFAULT_CLASS_NAMES) else None


def _path_string(value, what: str) -> str:
    """``value``, a ``str`` without NUL, which no file path holds; anything else is a ValidationError."""
    if "\0" in _string(value, what):
        raise ValidationError(f"{what} must not hold a NUL character, got {value!r}")
    return value


@dataclass(frozen=True)
class ManifestEntry:
    """A manifest's classifier: a name that ``--subset`` can pick (see ``core._file_classifier_name``) and its CSV path."""

    name: str
    path: str

    def __post_init__(self) -> None:
        _file_classifier_name(_string(self.name, "name"))
        _path_string(self.path, "path")


@dataclass(frozen=True)
class Manifest:
    num_classes: int
    class_names: tuple[str, ...]
    classifiers: tuple[ManifestEntry, ...]
    labels_path: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_classes", _integer(self.num_classes, "num_classes", low=1))
        object.__setattr__(self, "class_names", _strings(self.class_names, "class_names"))
        object.__setattr__(self, "classifiers", tuple(self.classifiers))
        _path_string(self.labels_path, "labels_path")
        if len(self.class_names) != self.num_classes:
            count = _shown(self.num_classes)
            raise ValidationError(f"class_names lists {len(self.class_names)} names for {count} classes")
        _classifier_names([entry.name for entry in self.classifiers])


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        _real(self.train_fraction, "train_fraction", ConfigError, 0, 1, "()")
        object.__setattr__(self, "seed", check_seed(self.seed))


# ---------------------------------------------------------------- CSV I/O


# Rows are parsed in blocks of about this many cells, so a file is never
# held as one Python object per cell.
_BLOCK_CELLS = 1 << 12


def _read_bytes(path: str | Path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decoded(path: str | Path, data: bytes) -> str:
    """``data`` as text; bytes that are not UTF-8 are a FormatError."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _record_blocks(path: Path, text: str, size: int):
    """Split CSV text into lists of at most ``size`` records, as csv.reader does.

    A blank line is the record ``[]``. Text with no quote and one kind of
    line end (LF, CRLF or CR) is split with ``str.split``, a block of
    lines at a time, where csv.reader would split it: at every comma and
    every line end. From its first block with a line over the csv field
    limit, and for other text, such as text that mixes line ends,
    csv.reader reads on: it ends a row at each of CRLF, CR and LF as
    ``open(newline="")`` does, and checks the limit. Its error is a
    FormatError raised after the records before the bad one are yielded.
    """
    done = start = 0
    newline = "\r" if "\n" not in text else "\n" if "\r" not in text else "\r\n"
    if newline == "\r\n" and not text.count("\r") == text.count("\n") == text.count("\r\n"):
        newline = None  # a CR or an LF stands alone
    if newline and '"' not in text:
        limit, end, last = csv.field_size_limit(), 0, newline[-1]
        while end < len(text):
            start = end
            for _ in range(size):
                end = text.find(last, end) + 1 or len(text)
            lines = text[start:end].removesuffix(newline).split(newline)
            if max(map(len, lines)) > limit:
                break
            yield [line.split(",") if line else [] for line in lines]
            done += len(lines)
        else:
            return
    block: list[list[str]] = []
    try:
        for record in csv.reader(io.StringIO(text[start:], newline="")):
            block.append(record)
            if len(block) == size:
                yield block
                done, block = done + size, []
    except csv.Error as exc:
        yield block
        raise FormatError(f"{path}: row {done + len(block) + 1}: {exc}") from None
    if block:
        yield block


def _header(column: str, width: int) -> list[str]:
    """``sample_id``, then ``width`` value columns named ``column.format(i)``: ``p{}`` numbers them."""
    return ["sample_id", *(column.format(i) for i in range(width))]


def _table_blocks(path: Path, column: str, width: int, text: str) -> Iterator[tuple[int, list[list[str]]]]:
    """The records after the header of CSV ``text``, in blocks, each with the row number of its first record.

    Blank records (``[]``) are kept, so the numbers count them. A first
    record other than ``_header(column, width)`` is a FormatError; its
    cell count is compared first, so a wrong one builds no header list.
    """
    number = 1
    for records in _record_blocks(path, text, max(1, _BLOCK_CELLS // (width + 1))):
        if number == 1:
            if not records or len(records[0]) != width + 1 or records[0] != _header(column, width):
                break
            records, number = records[1:], 2
        yield number, records
        number += len(records)
    if number == 1:
        cells = _header(column, width) if width <= 10 else [*_header(column, 1), "...", column.format(width - 1)]
        raise FormatError(f"{path}: bad header, expected {','.join(cells)}")


# Part of every cache key: a change to the entry layout or to what a parse
# accepts or returns must change it, so that older entries stop matching.
_CACHE_FORMAT = "softvote-cache 7"
_CACHE_DIR = ".softvote-cache"
_ENTRY_SCHEMA = {"key": str, "digest": int, "ids": int}
_CHUNK = 1 << 16  # bytes per read when a CSV is hashed to probe its entry
_first_ids: ContextVar[list | None] = ContextVar("first_ids", default=None)  # in ``load_ensemble``: see ``_shared_ids``


def _cache_key(column: str, width: int, dtype: type, data: bytes = b""):
    """A BLAKE2b of everything a parse depends on, then of ``data``; fed all of a CSV's bytes, it is their key."""
    parse = [_CACHE_FORMAT, column, width, np.dtype(dtype).str, csv.field_size_limit()]
    digest = blake2b(json.dumps(parse).encode() + b"\0")
    digest.update(data)
    return digest


def _entry_path(path: Path) -> Path:
    return path.parent / _CACHE_DIR / f"{path.name}.entry"


def _payload_digest(head, tail=b"") -> int:
    """The CRC-32 of an entry's payload, ``head`` then ``tail``: its integrity check (the key is its identity)."""
    return zlib.crc32(tail, zlib.crc32(head))


def _shared_ids(raw: bytes | None, ids: list[str] | None = None) -> tuple | None:
    """The ids of an entry's JSON ``raw`` (None if no array), else ``ids``. ``load_ensemble`` sets ``_first_ids`` to []
    until its first file's [ids, raw] load; then equal ids, or a ``raw`` equal in bytes (not decoded), give those ids."""
    first = _first_ids.get()
    if first and raw is not None and raw == first[1]:
        return first[0]
    ids = json.loads(raw) if raw is not None else ids
    if not isinstance(ids, list):  # a parse's ids are a list too
        return None
    ids = tuple(ids)
    if first == []:
        first += [ids, raw]
    return first[0] if first and ids == first[0] else ids


def _cached(entry: Path, path: Path, column: str, width: int, dtype: type) -> tuple[tuple, np.ndarray] | None:
    """The ids and (rows, ``width``) values ``entry`` holds for ``path``'s bytes; None if it is missing, stale or damaged."""
    try:
        with open(entry, "rb") as fh:
            meta = _typed(json.loads(fh.readline()), _ENTRY_SCHEMA, entry, "cache entry")
            digest, buffer = _cache_key(column, width, dtype), bytearray(_CHUNK)
            with open(path, "rb", buffering=0) as csv_file:  # hashed in place: no copy of the CSV is kept
                while n := csv_file.readinto(buffer):
                    digest.update(memoryview(buffer)[:n])
            if meta["key"] != digest.hexdigest():
                return None
            payload = fh.read()
        if _payload_digest(payload) != meta["digest"]:
            return None
        values = np.frombuffer(payload, np.dtype(dtype).newbyteorder("<"), offset=meta["ids"]).reshape(-1, width)
        # The ids' types are checked by ``build``, which every hit runs.
        ids = _shared_ids(payload[: meta["ids"]])
    except (OSError, ValueError, RecursionError):
        return None
    return None if ids is None else (ids, values)


def _store(entry: Path, key: str, ids: tuple[str, ...], values: np.ndarray) -> None:
    """Write ``ids`` and ``values`` to ``entry`` for ``key``; a failed write is ignored."""
    values = np.ascontiguousarray(values, values.dtype.newbyteorder("<"))
    ids_json = json.dumps(ids).encode()
    meta = {"key": key, "digest": _payload_digest(ids_json, values), "ids": len(ids_json)}
    try:
        entry.parent.mkdir(exist_ok=True)
        _write_bytes(entry, [json.dumps(meta).encode() + b"\n", ids_json, values.data])
    except OSError:
        pass


def _convert(records: list[list[str]], dtype: type, width: int) -> np.ndarray:
    """The value cells of ``records``, each parsed as ``dtype`` does; a block not (rows, ``width``) is a ValueError."""
    values = np.array([record[1:] for record in records], dtype=dtype)
    if values.shape != (len(records), width):
        raise ValueError("wrong cell count")
    return values


def _read_table(
    path: Path,
    column: str,
    width: int,
    dtype: type,
    check_row: Callable[[int, list[str]], None],
    build: Callable[[tuple[str, ...], np.ndarray], PredictionSet | LabeledSamples],
) -> PredictionSet | LabeledSamples:
    """``build(ids, values)`` on the sample ids and value cells of a CSV headed ``_header(column, width)``.

    The first pass only parses: rows of ``width + 1`` cells, whose value
    cells ``_convert`` turns into a (rows, ``width``) ``dtype`` array. If
    the parse or ``build`` fails, the same decoded text is walked from the
    top in the module docstring's order (``check_row(number, record)``
    last); its first bad row raises.

    A regular file's ids and values are cached once ``build`` accepts them,
    keyed by its bytes, ``column``, ``width`` and ``dtype``: all the parse
    reads. A hit skips the parse and still hands the ids and values to
    ``build``.
    """
    entry = _entry_path(path) if path.is_file() else None
    cached = _cached(entry, path, column, width, dtype) if entry is not None else None
    if cached is not None:
        try:
            return build(*cached)
        except ValueError:  # such as a label past this C; the walk names its row
            pass
    data = _read_bytes(path)  # read whole only here, so a stale entry's key is of the bytes parsed
    key = _cache_key(column, width, dtype, data).hexdigest()
    text = _decoded(path, data)
    del data  # the text is kept for the walk; the bytes would be a second copy
    try:
        ids: list[str] = []
        arrays = [np.empty((0, width), dtype)]  # so a header-only file gives zero rows
        for _, records in _table_blocks(path, column, width, text):
            records = [record for record in records if record]
            if not records:
                continue
            arrays.append(_convert(records, dtype, width))
            ids.extend([record[0] for record in records])
        values = np.concatenate(arrays)
        # The split lines went with the finished generator; drop the last
        # block's records and the block arrays before ``build`` copies.
        ids, arrays, records = _shared_ids(None, ids), [], []
        result = build(ids, values)
    except (ValueError, OverflowError):  # ValidationError is a ValueError
        pass
    else:
        if entry is not None:
            _store(entry, key, ids, values)
        return result
    seen: dict[str, int] = {}
    for number, records in _table_blocks(path, column, width, text):
        for n, record in enumerate(records, number):
            if not record:
                continue
            if len(record) != width + 1:
                raise FormatError(f"{path}: row {n}: expected {width + 1} cells, got {len(record)}")
            sid = record[0]
            if sid in seen:
                raise FormatError(f"{path}: row {n}: duplicate sample_id '{sid}' (first at row {seen[sid]})")
            seen[sid] = n
            check_row(n, record)
    raise AssertionError("the file failed to parse or to build, but no row is bad")


# An id holding one of these is written quoted; csv.writer leaves a lone CR
# unquoted, and the reader then ends the row there.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_id(sid: str) -> str:
    return '"' + sid.replace('"', '""') + '"' if _NEEDS_QUOTES.search(sid) else sid


def _csv_text(
    column: str,
    sample_ids: Sequence[str],
    values: np.ndarray,
    predicted: np.ndarray | None = None,
) -> Iterator[str]:
    """A CSV as one string per block of about ``_BLOCK_CELLS`` cells.

    The header is ``_header(column, width)``, plus ``predicted`` for the fused
    CSV. Row i holds sample id i, then ``repr`` of each entry of ``values[i]``
    (shortest round-trip for floats), then ``predicted[i]`` when given. Only
    one block's text and Python objects exist at a time.
    """
    header = _header(column, values.shape[1]) + ([] if predicted is None else ["predicted"])
    yield ",".join(header) + "\n"
    size = max(1, _BLOCK_CELLS // len(header))
    for start in range(0, len(sample_ids), size):
        ids = sample_ids[start : start + size]
        if _NEEDS_QUOTES.search("".join(ids)):
            ids = list(map(_csv_id, ids))
        rows = values[start : start + size].tolist()
        if predicted is None:
            ends = itertools.repeat("\n")
        else:
            ends = [f",{p}\n" for p in predicted[start : start + size].tolist()]
        yield "".join([f"{sid},{','.join(map(repr, row))}{end}" for sid, row, end in zip(ids, rows, ends)])


def _write_bytes(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a new file beside ``path``, then move it onto ``path``.

    The temp file is opened with mode "x", so it is new and the umask sets
    its permissions, and its name's length does not depend on the target's.
    On any exception it is removed and ``path`` is left as it was. A target
    that exists and is not a regular file, such as ``/dev/null`` or a pipe,
    is written in place instead of being replaced.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    tmp = path.with_name(f".softvote-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        exc.filename = str(path)  # the error names the target, not the random temp name
        raise
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """``_write_bytes`` of ``chunks`` encoded as UTF-8."""
    _write_bytes(path, (chunk.encode("utf-8") for chunk in chunks))


def _write_table(path: str | Path, column: str, sample_ids: tuple[str, ...], values: np.ndarray) -> None:
    """Write ``values`` as a CSV headed ``_header(column, width)``, and the entry a load of it would cache.

    The bytes are hashed into the key as they are written. Shortest-repr
    floats parse back bit for bit, and a hit still runs the loader's checks.
    A regular file gets the entry when every id fits the csv field limit,
    as a load of it requires.
    """
    path = Path(path)
    digest = _cache_key(column, values.shape[1], values.dtype)

    def hashed(chunks: Iterable[str]) -> Iterator[bytes]:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            yield data

    _write_bytes(path, hashed(_csv_text(column, sample_ids, values)))
    if path.is_file() and max(map(len, sample_ids), default=0) <= csv.field_size_limit():
        _store(_entry_path(path), digest.hexdigest(), sample_ids, values)


def load_predictions(path: str | Path, num_classes: int, name: str | None = None) -> PredictionSet:
    """Parse one classifier's predictions CSV; errors carry row numbers."""
    path = Path(path)
    num_classes = _integer(num_classes, "num_classes", low=1, message="{name} must be >= 1")

    def check_row(number, record):
        values = []
        for cell in record[1:]:
            try:
                values.append(float(cell))
            except ValueError:
                raise FormatError(f"{path}: row {number}: non-numeric probability {cell!r}") from None
        bad = _first_invalid_row(np.array([values]))
        if bad is not None:
            raise FormatError(f"{path}: row {number}: {bad[1]}")

    def build(ids, probs):
        # PredictionSet is looked up at call time, so a wrapper set on this
        # module's attribute sees the call.
        return PredictionSet(name if name is not None else path.stem, ids, probs)

    return _read_table(path, "p{}", num_classes, np.float64, check_row, build)


def write_predictions(predictions: PredictionSet, path: str | Path) -> None:
    _write_table(path, "p{}", predictions.sample_ids, predictions.probs)


def load_labels(path: str | Path, num_classes: int) -> LabeledSamples:
    path = Path(path)
    num_classes = _integer(num_classes, "num_classes", low=1, message="{name} must be >= 1")

    def check_row(number, record):
        try:
            label = int(record[1])
        except ValueError:
            raise FormatError(f"{path}: row {number}: non-integer label {record[1]!r}") from None
        if not 0 <= label < num_classes:
            raise LabelRangeError(f"{path}: row {number}: label {label} outside [0, {num_classes})")

    def build(ids, labels):
        # LabeledSamples refuses a negative label but has no C. One entry serves every C, so a hit is checked too.
        if labels.max(initial=0) >= num_classes:
            raise ValueError("label outside [0, num_classes)")
        return LabeledSamples(ids, labels[:, 0])

    return _read_table(path, "label", 1, np.int64, check_row, build)


def write_labels(labels: LabeledSamples, path: str | Path) -> None:
    _write_table(path, "label", labels.sample_ids, labels.labels.reshape(-1, 1))


# --------------------------------------------------------------- JSON I/O


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key it repeats is a ValueError, where json alone would keep the last value."""
    key = _first_duplicate([k for k, _ in pairs])
    if key is not None:
        raise ValueError(f"repeated key '{key}'")
    return dict(pairs)


def _load_json(path: str | Path):
    # Line ends as universal-newlines mode reads them, which json's error
    # positions count.
    text = _decoded(path, _read_bytes(path)).replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None


def _dump_json(obj, path: str | Path) -> None:
    _write_text(path, [json.dumps(obj, indent=2) + "\n"])


def _number(value, key: str, kind: type, path: str | Path) -> int | float:
    """JSON ``value`` of ``key`` as an int, or as a finite float when ``kind`` is float."""
    name = f"{path}: {key}"
    if kind is int:
        return _integer(value, name, FormatError)
    finite, big = "{name} must be a finite number, got {value}", sys.float_info.max
    return float(_real(value, name, FormatError, -big, big, message=finite, one_message=True))


def _typed(value, schema, path: str | Path, what: str, key: str = ""):
    """``value`` checked against ``schema`` (see the module docstring), as plain JSON values.

    ``key`` is the key path of ``value``, "" for the document, which errors call ``what``.
    """
    if isinstance(schema, dict):
        name = key or what
        if not isinstance(value, dict):
            raise FormatError(f"{path}: {name} must be a JSON object")
        missing = [k for k in schema if k not in value]
        extra = [k for k in value if k not in schema]
        if missing or extra:
            raise FormatError(
                f"{path}: {name} keys must be exactly {{{', '.join(schema)}}}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        return {k: _typed(value[k], item, path, what, f"{key}.{k}" if key else k) for k, item in schema.items()}
    if isinstance(schema, list):
        if not isinstance(value, list):
            raise FormatError(f"{path}: {key} must be an array, got {value!r}")
        return [_typed(v, schema[0], path, what, f"{key}[{i}]") for i, v in enumerate(value)]
    if schema is str:
        if not isinstance(value, str):
            raise FormatError(f"{path}: {key} must be a string, got {value!r}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # json decodes an escaped lone surrogate such as "\ud800"
            raise FormatError(f"{path}: {key} must be Unicode text, got {value!r}") from None
        return value
    return _number(value, key, schema, path)


def _built(path: str | Path, where: str, build: Callable, /, **values):
    """``build(**values)``; a ValidationError it raises keeps its class and gains ``"{path}: {where}"``."""
    try:
        return build(**values)
    except ValidationError as exc:
        raise type(exc)(f"{path}: {where}{exc}") from None


_MANIFEST_SCHEMA = {
    "num_classes": int,
    "class_names": [str],
    "classifiers": [{"name": str, "path": str}],
    "labels": str,
}


def read_manifest(path: str | Path) -> Manifest:
    data = _typed(_load_json(path), _MANIFEST_SCHEMA, path, "manifest")
    entries = [_built(path, f"classifiers[{i}].", ManifestEntry, **e) for i, e in enumerate(data.pop("classifiers"))]
    return _built(path, "", Manifest, classifiers=entries, labels_path=data.pop("labels"), **data)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    _dump_json(
        {
            "num_classes": manifest.num_classes,
            "class_names": list(manifest.class_names),
            "classifiers": [{"name": e.name, "path": e.path} for e in manifest.classifiers],
            "labels": manifest.labels_path,
        },
        path,
    )


def load_ensemble(manifest: Manifest, base_dir: str | Path = ".") -> EnsembleInputs:
    """Load every prediction file plus labels; classifier order = manifest order."""
    base = Path(base_dir)
    token = _first_ids.set([])  # every file whose ids equal the first's shares its tuple
    try:
        classifiers = tuple(load_predictions(base / e.path, manifest.num_classes, name=e.name) for e in manifest.classifiers)
        labels = load_labels(base / manifest.labels_path, manifest.num_classes)
    finally:
        _first_ids.reset(token)
    try:
        return EnsembleInputs(classifiers, labels)
    except AlignmentError as exc:
        ids = [ps.sample_ids for ps in classifiers]
        path = next((e.path for e, i in zip(manifest.classifiers, ids) if i != ids[0]), manifest.labels_path)
        raise AlignmentError(f"{base / path}: {exc}") from None


def load_manifest(path: str | Path) -> EnsembleInputs:
    """Read a manifest and load the ensemble it describes."""
    path = Path(path)
    return load_ensemble(read_manifest(path), path.parent)


_WEIGHTS_SCHEMA = {"weights": [float], "full_data_nll": float}


def _weights_file(weights: list[float], full_data_nll: float) -> tuple[np.ndarray, float]:
    if not weights:
        raise FormatError("weights must be a non-empty array")
    if full_data_nll < 0.0:
        raise FormatError(f"full_data_nll must be non-negative, got {full_data_nll!r}")
    # The checks fusion makes, so a bad file fails where it is read.
    as_weights(weights, len(weights))
    return np.array(weights, dtype=np.float64), full_data_nll


def read_weights(path: str | Path) -> tuple[np.ndarray, float]:
    return _built(path, "", _weights_file, **_typed(_load_json(path), _WEIGHTS_SCHEMA, path, "weights file"))


def write_weights(weights: Sequence[float] | np.ndarray, full_data_nll: float, path: str | Path) -> None:
    """Write a weights file; values ``read_weights`` would refuse raise its error, and nothing is written."""
    values = {"weights": np.asarray(weights).tolist(), "full_data_nll": np.asarray(full_data_nll).tolist()}
    checked = _typed(values, _WEIGHTS_SCHEMA, path, "weights file")
    _built(path, "", _weights_file, **checked)
    _dump_json(checked, path)


_REPORT_SCHEMA = {
    "nll": float,
    "accuracy_percent": float,
    "confusion": [[float]],
    "per_class_accuracy": [float],
    "classifier_names": [str],
    "sample_count": int,
}


def read_report(path: str | Path) -> EvaluationReport:
    return _built(path, "", EvaluationReport, **_typed(_load_json(path), _REPORT_SCHEMA, path, "report"))


def report_to_json(report: EvaluationReport) -> str:
    """The report file's text: the fields ``_REPORT_SCHEMA`` names, in its order, the arrays as nested lists."""
    return json.dumps({k: getattr(report, k) for k in _REPORT_SCHEMA}, indent=2, default=np.ndarray.tolist) + "\n"


def render_report_table(report: EvaluationReport, class_names: Sequence[str] | None = None) -> str:
    """Human-readable report: header lines plus a row-percent confusion grid.

    NLL prints with 4 decimals, accuracy with 2, confusion cells with 2.
    Rows for classes with no actual samples render as dashes and are
    footnoted.
    """
    c = report.num_classes
    if class_names is not None:
        class_names = _strings(class_names, "class_names")
        if len(class_names) != c:
            raise ValidationError(f"{len(class_names)} class names for {c} classes")
    empty = set(report.empty_classes)
    tags = [f"C{i}" for i in range(c)]
    cells = [
        ["-" if i in empty else f"{report.confusion[i, j]:.2f}" for j in range(c)]
        for i in range(c)
    ]
    width = max(
        6,
        max(len(t) for t in tags),
        max((len(x) for row in cells for x in row), default=0),
    )
    head = max(len("actual"), max(len(t) for t in tags))
    lines = [
        f"NLL: {report.nll:.4f}",
        f"Accuracy: {report.accuracy_percent:.2f}",
        f"Samples: {report.sample_count}",
        "Classifiers: " + ", ".join(report.classifier_names),
        "",
        "Confusion (row %, actual class x predicted class):",
        " " * head + "  " + " ".join(f"{t:>{width}}" for t in tags),
    ]
    for i in range(c):
        lines.append(f"{tags[i]:<{head}}  " + " ".join(f"{x:>{width}}" for x in cells[i]))
    if empty:
        lines.append("")
        lines.append(
            "no samples with actual class: " + ", ".join(f"C{i}" for i in sorted(empty))
        )
    if class_names is not None:
        lines.append("")
        lines.extend(f"C{i} = {name}" for i, name in enumerate(class_names))
    return "\n".join(lines) + "\n"


def write_report(report: EvaluationReport, path: str | Path) -> None:
    _write_text(path, [report_to_json(report)])


# ------------------------------------------------------------ config files

GA_CONFIG_KEYS = tuple(field.name for field in fields(GAConfig))


def read_ga_config(path: str | Path) -> GAConfig:
    """GA settings from JSON; every key is optional and defaults apply."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FormatError(f"{path}: GA config must be a JSON object")
    unknown = [k for k in data if k not in GA_CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"{path}: unknown GA config keys {unknown}")
    return _built(path, "bad GA config: ", GAConfig, **data)


def write_ga_config(config: GAConfig, path: str | Path) -> None:
    _dump_json({k: getattr(config, k) for k in GA_CONFIG_KEYS}, path)


_GENERATOR_SPEC_SCHEMA = {
    "num_classes": int,
    "num_samples": int,
    "seed": int,
    "classifiers": [{"name": str, "accuracy": float, "sharpness": float}],
}


def read_generator_spec(path: str | Path) -> GeneratorSpec:
    data = _typed(_load_json(path), _GENERATOR_SPEC_SCHEMA, path, "generator spec")
    classifiers = enumerate(data.pop("classifiers"))
    profiles = [_built(path, f"classifiers[{i}].", ClassifierProfile, **p) for i, p in classifiers]
    return _built(path, "", GeneratorSpec, profiles=profiles, **data)


# ----------------------------------------------------------- split & bundle


def split_samples(labels: LabeledSamples, spec: SplitSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Seeded shuffle split into (train ids, held-out ids), both non-empty."""
    s = len(labels)
    if s < 2:
        raise SplitError("need at least 2 samples to split")
    order = make_rng(spec.seed).permutation(s)
    n_train = math.floor(spec.train_fraction * s)
    if n_train < 1 or n_train >= s:
        raise SplitError(
            f"train_fraction {spec.train_fraction} leaves an empty side for {s} samples"
        )
    train = tuple(labels.sample_ids[i] for i in order[:n_train])
    heldout = tuple(labels.sample_ids[i] for i in order[n_train:])
    return train, heldout


def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def write_ensemble(inputs: EnsembleInputs, out_dir: str | Path) -> Path:
    """Materialize an ensemble as prediction CSVs, labels CSV, and manifest.

    Returns the manifest path. 10-class ensembles get the default posture
    names and anything else gets ``class_0``...
    """
    class_names = _posture_names(inputs.num_classes) or tuple(f"class_{i}" for i in range(inputs.num_classes))
    # Every file name is resolved and the manifest checked before any file
    # is written, so a clash leaves no partial bundle behind. Names that
    # differ only in letter case clash too: macOS and Windows file systems
    # take them for one file.
    files = [_safe_filename(name) + ".csv" for name in inputs.classifier_names]
    names = ["labels.csv", *files]
    folded = [name.lower() for name in names]
    clash = _first_duplicate(folded)
    if clash is not None:
        raise ValidationError(f"classifier file name clash: {names[folded.index(clash, folded.index(clash) + 1)]}")
    manifest = Manifest(
        num_classes=inputs.num_classes,
        class_names=class_names,
        classifiers=tuple(map(ManifestEntry, inputs.classifier_names, files)),
        labels_path="labels.csv",
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for ps, filename in zip(inputs.classifiers, files):
        write_predictions(ps, out / filename)
    # inputs.labels is in classifier row order, so the bundle stands alone.
    write_labels(inputs.labels, out / "labels.csv")
    manifest_path = out / "manifest.json"
    write_manifest(manifest, manifest_path)
    return manifest_path
