"""What the predictions and labels readers accept, reject and report.

The first group pins the readers' CSV semantics: quoting, line ends,
blank rows, cell counts, and which bad row is reported first. The
Hypothesis tests check that every valid set reads back bit for bit, that
arbitrary text raises only ``ValidationError`` or ``OSError``, and that
fuzzed CSV text gives exactly what a row-at-a-time reference reader gives.
Each of them loads twice, so the second load, served from the entry that
the first one cached, must give the same result. ``TestLoadCache`` pins
when that cache is used, written and refused, and that a failed load
reads its file once, so a pipe fails as a regular file does.
``TestStreamedKey`` pins that a load hashes its CSV as a stream to probe
the entry, and ``TestSharedIds`` that the files of one ensemble share one
sample-id tuple.
"""

import csv
import json
import math
import os
import re
import shutil
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softvote import (
    AlignmentError,
    ClassifierProfile,
    FormatError,
    GeneratorSpec,
    LabeledSamples,
    LabelRangeError,
    PredictionSet,
    ValidationError,
    generate,
    load_labels,
    load_manifest,
    load_predictions,
    write_ensemble,
    write_labels,
    write_predictions,
)
from softvote import core, ingest
from softvote.core import ROW_SUM_TOLERANCE

ODD_IDS = ("plain", "comma,inside", 'quote"inside', '"quoted"', "#hash", " leading space", "", "trailing ")

# Rows are read and checked in blocks; a block of one or a few rows puts
# every interesting row on a block boundary.
BLOCK_SIZES = (None, 1, 3, 7)
DEFAULT_BLOCK_CELLS = ingest._BLOCK_CELLS


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block{b}")
def block_cells(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", request.param, raising=False)
    return request.param


def _use_block(monkeypatch, block):
    # Hypothesis runs every example under one function-scoped monkeypatch,
    # which is not undone between examples, so each example sets its size,
    # the default (None) included.
    monkeypatch.setattr(ingest, "_BLOCK_CELLS", DEFAULT_BLOCK_CELLS if block is None else block)


# Five valid rows: blocks of 1, 3 or 7 cells end inside them.
CLEAN_ROWS = "".join(f"s{i},0.5,0.5\n" for i in range(1, 6))


def _write(tmp_path, text, name="m.csv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def _entry(p):
    """Where a load of ``p`` caches what it parsed."""
    return p.parent / ".softvote-cache" / f"{p.name}.entry"


@pytest.fixture
def convert_calls(monkeypatch):
    """A list that gets the record count of every ``_convert`` call a load makes."""
    calls = []
    convert = ingest._convert

    def counting(records, dtype, width):
        calls.append(len(records))
        return convert(records, dtype, width)

    monkeypatch.setattr(ingest, "_convert", counting)
    return calls


def _loaded(load):
    """What ``load`` gives, comparable: (ids, value bytes), or (error class, message)."""
    try:
        loaded = load()
    except ValidationError as exc:
        return type(exc), str(exc)
    values = loaded.probs if isinstance(loaded, PredictionSet) else loaded.labels
    return loaded.sample_ids, values.tobytes()


def _fails_alike_with_a_stale_entry(p, load, clean):
    """The error ``load`` raises on ``p``: it writes no entry, and an entry
    cached from the text ``clean`` at the same path changes nothing."""
    bad = p.read_bytes()
    with pytest.raises(ValidationError) as first:
        load()
    assert not _entry(p).exists()
    p.write_bytes(clean.encode("utf-8"))
    load()
    stale = _entry(p).read_bytes()
    p.write_bytes(bad)
    with pytest.raises(ValidationError) as again:
        load()
    assert (type(again.value), str(again.value)) == (type(first.value), str(first.value))
    assert _entry(p).read_bytes() == stale
    return first.value


class TestPinnedSemantics:
    def test_odd_ids_round_trip(self, tmp_path, block_cells):
        rng = np.random.default_rng(5)
        ps = PredictionSet("m", ODD_IDS, rng.dirichlet(np.ones(3), size=len(ODD_IDS)))
        p = tmp_path / "m.csv"
        write_predictions(ps, p)
        again = load_predictions(p, 3)
        assert again.sample_ids == ODD_IDS
        assert again.probs.tobytes() == ps.probs.tobytes()

    def test_odd_ids_round_trip_labels(self, tmp_path, block_cells):
        labels = LabeledSamples(ODD_IDS, [i % 3 for i in range(len(ODD_IDS))])
        p = tmp_path / "l.csv"
        write_labels(labels, p)
        again = load_labels(p, 3)
        assert again.sample_ids == ODD_IDS
        assert again.labels.tolist() == labels.labels.tolist()

    def test_ids_with_quoted_line_breaks_round_trip(self, tmp_path, block_cells):
        # The writer quotes ids holding "\n", so they read back whole; the
        # row number counts records, not physical lines.
        ids = ("a\nb", "c\r\nd", "e")
        ps = PredictionSet("m", ids, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "m.csv"
        write_predictions(ps, p)
        assert load_predictions(p, 2).sample_ids == ids
        text = p.read_text(encoding="utf-8").replace("0.0,1.0", "0.0,0.9")
        p.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(FormatError, match=r"row 4: probabilities sum to 0\.9"):
            load_predictions(p, 2)

    def test_id_with_lone_carriage_return_round_trips(self, tmp_path, block_cells):
        # An unquoted lone "\r" would end the row on read; the writer quotes it.
        ids = ("ok", "a\rb", "\r")
        ps = PredictionSet("m", ids, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "m.csv"
        write_predictions(ps, p)
        again = load_predictions(p, 2)
        assert again.sample_ids == ids
        assert again.probs.tobytes() == ps.probs.tobytes()
        write_labels(LabeledSamples(ids, [1, 0, 1]), tmp_path / "l.csv")
        assert load_labels(tmp_path / "l.csv", 2).sample_ids == ids

    def test_extra_trailing_cell_is_rejected(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,p0,p1\ns1,0.5,0.5\ns2,0.5,0.5,\n")
        with pytest.raises(FormatError, match="row 3: expected 3 cells, got 4"):
            load_predictions(p, 2)

    def test_extra_label_cell_is_rejected(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,label\na,0\nb,1,1\n")
        with pytest.raises(FormatError, match="row 3: expected 2 cells, got 3"):
            load_labels(p, 3)

    def test_crlf_with_blank_lines_is_accepted(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,p0,p1\r\n\r\ns1,1.0,0.0\r\n\r\n\r\ns2,0.25,0.75\r\n\r\n")
        ps = load_predictions(p, 2)
        assert ps.sample_ids == ("s1", "s2")
        assert ps.probs.tolist() == [[1.0, 0.0], [0.25, 0.75]]
        labels = _write(tmp_path, "sample_id,label\r\n\r\ns1,1\r\n\r\ns2,0\r\n", "l.csv")
        assert load_labels(labels, 2).labels.tolist() == [1, 0]

    def test_blank_lines_count_in_row_numbers(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,p0,p1\r\n\r\ns1,1.0,0.0\r\n\r\ns2,0.5,0.4\r\n")
        with pytest.raises(FormatError, match="row 5: probabilities sum"):
            load_predictions(p, 2)

    def test_lone_cr_and_mixed_line_ends(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,p0,p1\rs1,1.0,0.0\r\r\ns2,0.5,0.5\ns3,0.0,1.0")
        assert load_predictions(p, 2).sample_ids == ("s1", "s2", "s3")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_cost_no_copy_of_the_text(self, tmp_path, newline):
        # A 1500 x 100 predictions file of about 3 MB: a CR-free copy of its
        # whole text held beside it would add about 1.9 MB to the peak. Both
        # loads parse: the entry ``write_predictions`` stores is removed.
        probs = np.random.default_rng(0).dirichlet(np.ones(100), size=1500)
        ps = PredictionSet("m", [f"s{i}" for i in range(1500)], probs)
        peaks = []
        for name, end in (("lf", "\n"), ("cr", newline)):
            p = tmp_path / name / "m.csv"
            p.parent.mkdir()
            write_predictions(ps, p)
            p.write_bytes(p.read_bytes().replace(b"\n", end.encode()))
            shutil.rmtree(p.parent / ".softvote-cache")
            tracemalloc.start()
            try:
                loaded = load_predictions(p, 100)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert loaded.probs.tobytes() == probs.tobytes()
        assert peaks[1] - peaks[0] <= 0.5 * 2**20, peaks

    def test_quoted_header_and_cells(self, tmp_path, block_cells):
        p = _write(tmp_path, '"sample_id","p0",p1\n"s1","0.5",0.5\n')
        ps = load_predictions(p, 2)
        assert ps.sample_ids == ("s1",)
        assert ps.probs.tolist() == [[0.5, 0.5]]

    def test_cells_parse_like_python_float(self, tmp_path, block_cells):
        # Whitespace, underscores, exponents and non-ASCII digits are read
        # as float() reads them.
        p = _write(tmp_path, "sample_id,p0,p1\na, 0.5 ,5_0e-2\nb,١,0\nc,2.5E-1,.75\n")
        ps = load_predictions(p, 2)
        assert ps.probs.tolist() == [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]

    def test_header_only_gives_empty_set(self, tmp_path, block_cells):
        ps = load_predictions(_write(tmp_path, "sample_id,p0,p1\n"), 2)
        assert ps.sample_ids == ()
        assert ps.probs.shape == (0, 2)

    def test_empty_file_is_bad_header(self, tmp_path, block_cells):
        with pytest.raises(FormatError, match="bad header"):
            load_predictions(_write(tmp_path, ""), 2)
        with pytest.raises(FormatError, match="bad header"):
            load_labels(_write(tmp_path, "\nsample_id,label\n", "l.csv"), 2)

    def test_a_huge_class_count_fails_on_the_header_cell_count_alone(self, tmp_path):
        # No list, cache key or message grows with C before the first
        # record's cell count is compared with C + 1.
        p = _write(tmp_path, "sample_id\na\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                load_predictions(p, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{p}: bad header, expected sample_id,p0,...,p999999"
        assert len(str(info.value)) < 200
        assert peak < 2**20, peak

    @pytest.mark.parametrize("c, shown", [(10, ",".join(f"p{i}" for i in range(10))), (11, "p0,...,p10")])
    def test_a_wide_header_is_shown_by_its_ends(self, tmp_path, c, shown):
        with pytest.raises(FormatError, match=f"bad header, expected sample_id,{re.escape(shown)}$"):
            load_predictions(_write(tmp_path, "sample_id,p0\na,1.0\n"), c)

    @pytest.mark.parametrize(
        "body, message",
        [
            # an earlier bad value wins over a later malformed row
            ("s1,0.5,0.5\ns2,0.5,0.4\ns3,0.5\n", "row 3: probabilities sum to 0.9"),
            ("s1,0.5,0.5\ns2,0.5,0.4\ns1,0.5,0.5\n", "row 3: probabilities sum to 0.9"),
            ("s1,0.5,0.5\ns2,1.5,-0.5\ns3,abc,1\n", r"row 3: probability outside \[0, 1\]"),
            # within one row: cell count, then duplicate id, then each cell
            ("s1,0.5,0.5\ns1,abc\n", "row 3: expected 3 cells, got 2"),
            ("s1,0.5,0.5\ns1,abc,0.5\n", "row 3: duplicate sample_id 's1' \\(first at row 2\\)"),
            ("s1,0.5,0.5\ns2,1.5,abc\n", "row 3: non-numeric probability 'abc'"),
            ("s1,0.5,0.5\ns2,x,y\n", "row 3: non-numeric probability 'x'"),
            ("s1,0.5,0.5\ns2,2.0,-1.0\n", r"row 3: probability outside \[0, 1\]"),
            ("s1,0.5,0.5\ns2,inf,-inf\n", r"row 3: probability outside \[0, 1\]"),
            ("s1,0.5,0.5\ns2,0.5,0.5\ns3,0.5,0.5\ns4,0.5,0.4\ns5,0.5\n", "row 5: probabilities sum"),
            # faults only the constructor sees: an id repeated across blocks,
            # a bad sum in the last block
            (CLEAN_ROWS + "s2,0.5,0.5\n", "row 7: duplicate sample_id 's2' \\(first at row 3\\)"),
            (CLEAN_ROWS + "s6,0.5,0.4\n", r"row 7: probabilities sum to 0\.9 "),
        ],
    )
    def test_first_bad_row_is_reported(self, tmp_path, block_cells, body, message):
        p = _write(tmp_path, "sample_id,p0,p1\n" + body)
        error = _fails_alike_with_a_stale_entry(p, lambda: load_predictions(p, 2), "sample_id,p0,p1\n" + CLEAN_ROWS)
        assert isinstance(error, FormatError) and re.search(message, str(error))

    @pytest.mark.parametrize(
        "body, error, message",
        [
            ("a,0\nb,5\nc,x\n", LabelRangeError, r"row 3: label 5 outside \[0, 3\)"),
            ("a,0\nb,x\nc,5\n", FormatError, "row 3: non-integer label 'x'"),
            ("a,0\nb,1.0\n", FormatError, "row 3: non-integer label '1.0'"),
            ("a,0\nb,-1\n", LabelRangeError, r"row 3: label -1 outside \[0, 3\)"),
            ("a,0\nb,99999999999999999999\n", LabelRangeError, "row 3: label 99999999999999999999"),
            ("a,0\nb,1\nb,x\n", FormatError, "row 4: duplicate sample_id 'b'"),
            ("a,0\nb,9\nb,1\n", LabelRangeError, "row 3: label 9"),
            ("a,0\nb,1\nc,2\nd,0\nb,1\n", FormatError, r"row 6: duplicate sample_id 'b' \(first at row 3\)"),
        ],
    )
    def test_first_bad_label_row_is_reported(self, tmp_path, block_cells, body, error, message):
        p = _write(tmp_path, "sample_id,label\n" + body, "l.csv")
        raised = _fails_alike_with_a_stale_entry(p, lambda: load_labels(p, 3), "sample_id,label\na,0\nb,1\n")
        assert type(raised) is error and re.search(message, str(raised))

    def test_bad_value_inside_an_otherwise_clean_block(self, tmp_path):
        # One block at the default size: every row has its cells, the
        # conversion or the constructor fails on the third row only, and the
        # walk from the top names that row rather than the block's first.
        rows = "a,0.5,0.5\nb,1,0\nc,{}\nd,0,1\n"
        p = _write(tmp_path, "sample_id,p0,p1\n" + rows.format("0.5,0.4"))
        with pytest.raises(FormatError, match=r"m\.csv: row 4: probabilities sum to 0\.9 "):
            load_predictions(p, 2)
        p = _write(tmp_path, "sample_id,p0,p1\n" + rows.format("0.5,x"))
        with pytest.raises(FormatError, match=r"m\.csv: row 4: non-numeric probability 'x'"):
            load_predictions(p, 2)
        labels = _write(tmp_path, "sample_id,label\na,0\nb,1\nc,99999999999999999999\nd,2\n", "l.csv")
        with pytest.raises(LabelRangeError, match=r"l\.csv: row 4: label 99999999999999999999 outside \[0, 3\)"):
            load_labels(labels, 3)

    def test_each_row_is_validated_once_inside_the_constructor(self, tmp_path, monkeypatch):
        # A valid file of 4 blocks: the reader only parses, and the row and
        # duplicate-id checks run once, over the whole file, in core.
        calls = []

        def counting(name, check):
            def wrapper(arg):
                frame = sys._getframe(1)
                calls.append((name, frame.f_globals["__name__"], frame.f_code.co_name, len(arg)))
                return check(arg)

            return wrapper

        for module in (core, ingest):
            monkeypatch.setattr(module, "_first_invalid_row", counting("row", module._first_invalid_row))
        monkeypatch.setattr(core, "_first_duplicate", counting("dup", core._first_duplicate))
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", 30)
        rng = np.random.default_rng(7)
        ids = tuple(f"s{i}" for i in range(40))
        write_predictions(PredictionSet("m", ids, rng.dirichlet(np.ones(2), size=40)), tmp_path / "m.csv")
        write_labels(LabeledSamples(ids, [i % 2 for i in range(40)]), tmp_path / "l.csv")
        inside = ("softvote.core", "__post_init__", 40)
        # The second load of each file is served from its cache entry, and the
        # constructor still checks it.
        for _ in range(2):
            calls.clear()
            assert load_predictions(tmp_path / "m.csv", 2).sample_ids == ids
            assert sorted(calls) == [("dup", *inside), ("row", *inside)]
            calls.clear()
            assert load_labels(tmp_path / "l.csv", 2).sample_ids == ids
            assert calls == [("dup", *inside)]

    def test_labels_cells_parse_like_python_int(self, tmp_path, block_cells):
        p = _write(tmp_path, "sample_id,label\na, 2 \nb,+1\nc,٠\nd,0_1\n", "l.csv")
        assert load_labels(p, 3).labels.tolist() == [2, 1, 0, 1]


class TestUnreadableText:
    def test_invalid_utf8_is_format_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"sample_id,p0\ns1,1.0\ns\xff,1.0\n")
        with pytest.raises(FormatError, match=r"m\.csv: not UTF-8 text"):
            load_predictions(p, 1)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("quote", ['"', ""])
    def test_field_over_the_csv_limit_names_its_row(self, tmp_path, block_cells, quote, newline):
        huge = quote + "x" * (csv.field_size_limit() + 1) + quote
        p = _write(tmp_path, f"sample_id,label{newline}a,0{newline}{huge},1{newline}", "l.csv")
        with pytest.raises(FormatError, match="l\\.csv: row 3: field larger than field limit"):
            load_labels(p, 2)

    def test_line_over_the_csv_limit_with_short_cells_is_read(self, tmp_path, block_cells):
        # csv.reader limits each field, not each line.
        c = csv.field_size_limit() // 3
        header = "sample_id," + ",".join(f"p{i}" for i in range(c))
        p = _write(tmp_path, f"{header}\na,1.0{',0.0' * (c - 1)}\n")
        assert len(p.read_text(encoding="utf-8").splitlines()[1]) > csv.field_size_limit()
        assert load_predictions(p, c).probs[0, :2].tolist() == [1.0, 0.0]


PREDICTIONS = "sample_id,p0,p1\na1,0.5,0.5\nb2,0.25,0.75\n"
LABELS = "sample_id,label\na1,1\nb2,0\n"
LOADS = {
    "predictions": (PREDICTIONS, lambda p: load_predictions(p, 2)),
    "labels": (LABELS, lambda p: load_labels(p, 2)),
}


def _rewritten_entry(entry, drop_rows=0, ids=None, separators=None):
    """The bytes of ``entry`` less its last ``drop_rows`` value rows, with
    ``ids`` in place of its ids when given, its ids JSON written with
    ``separators`` when given, and its payload digest made to match."""
    head, _, payload = entry.read_bytes().partition(b"\n")
    meta = json.loads(head)
    row = (len(payload) - meta["ids"]) // len(json.loads(payload[: meta["ids"]]))
    ids_json = payload[: meta["ids"]]
    if ids is not None or separators is not None:
        ids_json = json.dumps(json.loads(ids_json) if ids is None else ids, separators=separators).encode()
    payload = ids_json + payload[meta["ids"] : len(payload) - drop_rows * row]
    meta["digest"], meta["ids"] = ingest._payload_digest(payload), len(ids_json)
    return json.dumps(meta).encode() + b"\n" + payload


def _first_value_flipped(good):
    """``good`` with bit 0 of the payload's first byte after the ids flipped: a value that still
    passes every check (the first float's lowest mantissa bit, or the first label's low bit)."""
    head = good.partition(b"\n")[0]
    at = len(head) + 1 + json.loads(head)["ids"]
    return good[:at] + bytes([good[at] ^ 1]) + good[at + 1 :]


class TestLoadCache:
    def test_each_file_gets_one_entry_beside_it(self, tmp_path):
        for text, load in LOADS.values():
            p = _write(tmp_path, text)
            load(p)
            load(p)
        assert os.listdir(tmp_path / ".softvote-cache") == ["m.csv.entry"]
        # _rewritten_entry reproduces an intact entry byte for byte.
        assert _rewritten_entry(_entry(p)) == _entry(p).read_bytes()

    @pytest.mark.parametrize("kind", LOADS)
    def test_a_same_size_edit_with_the_old_mtime_is_seen(self, tmp_path, kind):
        text, load = LOADS[kind]
        p = _write(tmp_path, text)
        assert load(p).sample_ids == ("a1", "b2")
        before = p.stat()
        p.write_bytes(text.replace("a1,", "a7,").encode("utf-8"))
        os.utime(p, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert (p.stat().st_size, p.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load(p).sample_ids == ("a7", "b2")

    @pytest.mark.parametrize("kind", LOADS)
    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry, good: good[: len(good) // 2],
            lambda entry, good: good[:-1] + bytes([good[-1] ^ 1]),
            # Only the payload digest can catch this one.
            lambda entry, good: _first_value_flipped(good),
            # One value row fewer than ids, with its own digest right.
            lambda entry, good: _rewritten_entry(entry, drop_rows=1),
            lambda entry, good: b"\x00garbage\xff\n" * 3,
            # Ids that are not strings, with their own digest right: the
            # constructor refuses them, so the file is parsed.
            lambda entry, good: _rewritten_entry(entry, ids=[1, 2]),
            lambda entry, good: _rewritten_entry(entry, ids=[["a1"], "b2"]),
            lambda entry, good: _rewritten_entry(entry, ids={"a1": 0, "b2": 1}),
        ],
        ids=["truncated", "flipped", "first-value-flipped", "wrong-shape", "garbage", "int-ids", "list-id", "object-ids"],
    )
    def test_a_damaged_entry_is_parsed_around_and_rewritten(self, tmp_path, convert_calls, kind, damage):
        text, load = LOADS[kind]
        p = _write(tmp_path, text)
        cold = _loaded(lambda: load(p))
        entry = _entry(p)
        good = entry.read_bytes()
        entry.write_bytes(damage(entry, good))
        convert_calls.clear()
        assert _loaded(lambda: load(p)) == cold
        assert convert_calls == [2]
        assert entry.read_bytes() == good

    def test_one_labels_entry_serves_every_class_count(self, tmp_path, convert_calls):
        p = _write(tmp_path, "sample_id,label\na1,1\nb2,2\nc3,0\n")
        for c in (3, 5):
            assert load_labels(p, c).labels.tolist() == [1, 2, 0]
        assert convert_calls == [3]
        good = _entry(p).read_bytes()
        # A hit still checks the range against this load's class count.
        with pytest.raises(LabelRangeError) as warm:
            load_labels(p, 2)
        assert _entry(p).read_bytes() == good
        shutil.rmtree(tmp_path / ".softvote-cache")
        with pytest.raises(LabelRangeError) as cold:
            load_labels(p, 2)
        assert str(warm.value) == str(cold.value) == f"{p}: row 3: label 2 outside [0, 2)"
        assert not _entry(p).exists()

    def test_an_entry_stored_under_a_larger_field_limit_is_not_served_under_a_smaller_one(self, tmp_path):
        p = _write(tmp_path, "sample_id,label\n" + "x" * 20 + ",1\n")
        old = csv.field_size_limit(20)
        try:
            assert load_labels(p, 2).labels.tolist() == [1]
            assert _entry(p).exists()
            csv.field_size_limit(19)
            with pytest.raises(FormatError, match="row 2: field larger than field limit"):
                load_labels(p, 2)
        finally:
            csv.field_size_limit(old)

    def test_a_nul_in_an_id_gets_an_entry_from_a_write_and_a_load(self, tmp_path, convert_calls):
        # csv reads a NUL as any other character, so such a file is cached as
        # any other is: no load after the write parses it, and once the cache
        # is removed only the first load does.
        p = tmp_path / "m.csv"
        write_predictions(PredictionSet("m", ("a\0b",), [[0.5, 0.5]]), p)
        written = _entry(p).read_bytes()
        for _ in range(2):
            assert load_predictions(p, 2).sample_ids == ("a\0b",)
        assert convert_calls == []
        shutil.rmtree(tmp_path / ".softvote-cache")
        for _ in range(2):
            assert load_predictions(p, 2).sample_ids == ("a\0b",)
        assert convert_calls == [1]
        assert _entry(p).read_bytes() == written

    def test_a_file_in_place_of_the_cache_directory_only_costs_speed(self, tmp_path, convert_calls):
        (tmp_path / ".softvote-cache").write_bytes(b"not a directory\n")
        p = _write(tmp_path, PREDICTIONS)
        for _ in range(2):
            assert load_predictions(p, 2).probs.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert convert_calls == [2, 2]
        assert (tmp_path / ".softvote-cache").read_bytes() == b"not a directory\n"

    def test_a_pipe_is_read_but_not_cached(self, tmp_path):
        pipe = tmp_path / "l.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(LABELS.encode("utf-8")), daemon=True)
        writer.start()
        assert load_labels(pipe, 2).labels.tolist() == [1, 0]
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert os.listdir(tmp_path) == ["l.csv"]

    @pytest.mark.parametrize("kind, row", [("predictions", "c3,0.7,0.7\n"), ("labels", "c3,5\n")])
    def test_a_bad_row_in_a_pipe_fails_as_in_a_file(self, tmp_path, kind, row):
        text, load = LOADS[kind]
        p = _write(tmp_path, text + row)
        in_file = _loaded(lambda: load(p))
        assert re.search(": row 4: ", in_file[1])
        p.unlink()
        stop = _fed_fifo(p, (text + row).encode("utf-8"))
        try:
            assert _loaded(lambda: load(p)) == in_file
        finally:
            stop()

    @pytest.mark.parametrize("kind, row", [("predictions", "c3,0.7,0.7\n"), ("labels", "c3,5\n")])
    def test_a_failed_load_reads_the_file_once(self, tmp_path, monkeypatch, kind, row):
        text, load = LOADS[kind]
        p = _write(tmp_path, text + row)
        reads = []
        read_bytes = ingest._read_bytes

        def counting(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(ingest, "_read_bytes", counting)
        with pytest.raises(ValidationError, match=": row 4: "):
            load(p)
        assert reads.count(p) == 1


def _entry_key(p):
    return json.loads(_entry(p).read_bytes().partition(b"\n")[0])["key"]


@pytest.fixture
def csv_opens(monkeypatch):
    """A list that gets the path of every file the loader opens."""
    opens = []

    def counting(path, *args, **kwargs):
        opens.append(Path(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(ingest, "open", counting, raising=False)
    return opens


class TestStreamedKey:
    """A load reads its entry's head first and hashes the CSV into the key
    as a stream, so a hit holds no copy of the CSV's bytes."""

    def test_a_hit_keeps_no_copy_of_the_csv(self, tmp_path, convert_calls):
        rows = "".join(f"s{i},0.5,0.5\n" for i in range(100))
        p = _write(tmp_path, "sample_id,p0,p1\n" + rows + "\n" * (2 << 20))
        load_predictions(p, 2)
        convert_calls.clear()
        tracemalloc.start()
        try:
            ps = load_predictions(p, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert convert_calls == []  # a hit
        assert ps.sample_ids == tuple(f"s{i}" for i in range(100))
        assert peak < 0.5 * 2**20, peak

    def test_blank_only_blocks_are_not_converted(self, tmp_path, convert_calls):
        rows = "".join(f"s{i},0.5,0.5\n" for i in range(100))
        plain = load_predictions(_write(tmp_path, "sample_id,p0,p1\n" + rows, "plain.csv"), 2)
        convert_calls.clear()
        padded = load_predictions(_write(tmp_path, "sample_id,p0,p1\n" + rows + "\n" * (2 << 20)), 2)
        assert convert_calls == [100]
        assert (padded.sample_ids, padded.probs.tobytes()) == (plain.sample_ids, plain.probs.tobytes())

    @pytest.mark.parametrize("chunk", [None, 7], ids=["chunk-default", "chunk7"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_the_streamed_key_is_the_key_of_the_whole_file(self, tmp_path, monkeypatch, csv_opens, chunk, extra):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK", chunk)
        size = ingest._CHUNK * (1 if chunk is None else 9) + extra
        text = PREDICTIONS + "\n" * (size - len(PREDICTIONS))
        p = _write(tmp_path, text)
        assert p.stat().st_size == size
        load_predictions(p, 2)
        assert _entry_key(p) == ingest._cache_key("p{}", 2, np.float64, text.encode()).hexdigest()
        csv_opens.clear()
        monkeypatch.setattr(ingest, "_read_bytes", None)  # a hit must not read the file whole
        assert load_predictions(p, 2).sample_ids == ("a1", "b2")
        assert csv_opens.count(p) == 1

    @pytest.mark.parametrize("state, opens", [("none", 1), ("hit", 1), ("stale", 2)])
    def test_the_csv_is_read_twice_only_past_a_stale_entry(self, tmp_path, csv_opens, convert_calls, state, opens):
        p = _write(tmp_path, PREDICTIONS)
        if state != "none":
            load_predictions(p, 2)
        if state == "stale":
            p.write_bytes(PREDICTIONS.replace("\n", "\r\n").encode("utf-8"))
        csv_opens.clear()
        convert_calls.clear()
        assert load_predictions(p, 2).probs.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert csv_opens.count(p) == opens
        assert convert_calls == ([] if state == "hit" else [2])

    def test_a_stale_load_stores_the_key_of_the_bytes_it_parsed(self, tmp_path, monkeypatch, convert_calls):
        p = _write(tmp_path, PREDICTIONS)
        load_predictions(p, 2)
        p.write_bytes(PREDICTIONS.replace("\n", "\r\n").encode("utf-8"))
        changed = PREDICTIONS.replace("a1,", "a7,").encode("utf-8")
        read_bytes, pending = ingest._read_bytes, [changed]

        def changing(path):
            # The file changes after the probe hashed it and before it is read whole.
            if path == p and pending:
                p.write_bytes(pending.pop())
            return read_bytes(path)

        monkeypatch.setattr(ingest, "_read_bytes", changing)
        assert load_predictions(p, 2).sample_ids == ("a7", "b2")
        assert _entry_key(p) == ingest._cache_key("p{}", 2, np.float64, changed).hexdigest()
        convert_calls.clear()
        assert load_predictions(p, 2).sample_ids == ("a7", "b2")
        assert convert_calls == []


def _bundle(tmp_path, n=3):
    """A written ``n``-classifier bundle, with an entry beside each CSV; its manifest's path."""
    spec = GeneratorSpec(3, 40, tuple(ClassifierProfile(f"m{i}", 0.8, 2.0) for i in range(n)), seed=0)
    return write_ensemble(generate(spec), tmp_path / "bundle")


def _uncached(manifest):
    shutil.rmtree(manifest.parent / ".softvote-cache", ignore_errors=True)


class TestSharedIds:
    """Within one ensemble load, every file whose ids equal the first
    file's holds that file's tuple."""

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_every_file_holds_the_first_files_ids(self, tmp_path, monkeypatch, warm):
        manifest = _bundle(tmp_path)
        if not warm:
            _uncached(manifest)
        decoded = []
        loads = json.loads

        def counting(data, *args, **kwargs):
            if isinstance(data, bytes) and data.startswith(b"["):
                decoded.append(data)
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting)
        inputs = load_manifest(manifest)
        first = inputs.classifiers[0].sample_ids
        assert len(first) == 40
        assert all(ps.sample_ids is first for ps in inputs.classifiers)
        assert inputs.labels.sample_ids is first
        # A warm load decodes the first entry's ids JSON only: the others are the same bytes.
        assert len(decoded) == (1 if warm else 0)
        assert ingest._first_ids.get() is None

    @pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
    def test_labels_in_another_order_are_still_aligned(self, tmp_path, warm):
        manifest = _bundle(tmp_path)
        expected = load_manifest(manifest).label_array.tolist()
        labels = manifest.parent / "labels.csv"
        header, *rows = labels.read_text(encoding="utf-8").splitlines(keepends=True)
        labels.write_text(header + "".join(reversed(rows)), encoding="utf-8")
        load_labels(labels, 3)
        if not warm:
            _uncached(manifest)
        inputs = load_manifest(manifest)
        assert inputs.label_array.tolist() == expected
        assert inputs.labels.sample_ids is inputs.classifiers[0].sample_ids
        assert load_labels(labels, 3).sample_ids == inputs.sample_ids[::-1]

    def test_diverging_ids_raise_the_same_alignment_error(self, tmp_path):
        manifest = _bundle(tmp_path)
        ids = load_manifest(manifest).sample_ids
        victim = manifest.parent / "m1.csv"
        victim.write_text(victim.read_text(encoding="utf-8").replace(f"\n{ids[5]},", "\nzz,"), encoding="utf-8")
        messages = []
        for uncached in (True, False, False):  # a parse, which stores m1's entry, then two hits
            if uncached:
                _uncached(manifest)
            with pytest.raises(AlignmentError) as info:
                load_manifest(manifest)
            messages.append(str(info.value))
        want = f"{victim}: classifier 'm1' diverges from 'm0' at index 5: 'zz' vs '{ids[5]}'"
        assert messages == [want] * 3

    def test_ids_json_equal_in_value_but_not_in_bytes_is_served_and_shared(self, tmp_path, monkeypatch):
        manifest = _bundle(tmp_path)
        entry = _entry(manifest.parent / "m1.csv")
        compact = _rewritten_entry(entry, separators=(",", ":"))
        assert compact != entry.read_bytes()
        entry.write_bytes(compact)
        reads = []
        read_bytes = ingest._read_bytes
        monkeypatch.setattr(ingest, "_read_bytes", lambda path: reads.append(path) or read_bytes(path))
        inputs = load_manifest(manifest)
        assert reads == [manifest]  # every CSV was a hit
        assert all(ps.sample_ids is inputs.sample_ids for ps in inputs.classifiers)
        assert inputs.labels.sample_ids is inputs.sample_ids
        assert entry.read_bytes() == compact


def _fed_fifo(path, data):
    """Make ``path`` a FIFO that a thread feeds ``data`` once; returns a function that stops the thread.

    A load that opened the FIFO a second time would block for ever. So a
    few seconds after feeding it, the thread opens it for writing and
    closes it again, and such a load reads no text and fails on its header.
    """
    os.mkfifo(path)
    stopped = threading.Event()

    def feed():
        path.write_bytes(data)
        stopped.wait(3)
        while not stopped.is_set():
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has it open yet
                stopped.wait(0.05)

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()

    def stop():
        stopped.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    return stop


class TestNonFiniteCells:
    @pytest.mark.parametrize("cell", ["nan", "NaN", "-nan"])
    def test_nan_names_file_and_row(self, tmp_path, block_cells, cell):
        p = _write(tmp_path, f"sample_id,p0,p1\ns1,0.5,0.5\ns2,{cell},0.5\n")
        with pytest.raises(FormatError, match=r"m\.csv: row 3: non-finite probability"):
            load_predictions(p, 2)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    def test_inf_names_file_and_row(self, tmp_path, block_cells, cell):
        p = _write(tmp_path, f"sample_id,p0,p1\ns1,0.5,0.5\ns2,{cell},0.5\n")
        with pytest.raises(FormatError, match=r"m\.csv: row 3: probability outside \[0, 1\]"):
            load_predictions(p, 2)

    def test_in_memory_nan_names_the_row(self):
        with pytest.raises(ValidationError, match="m: row 1: non-finite probability"):
            PredictionSet("m", ("a", "b"), [[0.5, 0.5], [math.nan, 1.0]])

    def test_in_memory_inf_and_minus_inf_names_the_row(self):
        # Their sum is NaN; the row is reported without a numpy warning.
        with pytest.raises(ValidationError, match=r"m: row 1: probability outside \[0, 1\]"):
            PredictionSet("m", ("a", "b"), [[0.5, 0.5], [math.inf, -math.inf]])


sample_ids = st.lists(st.text(max_size=6), min_size=1, max_size=12, unique=True)


@st.composite
def prediction_sets(draw):
    ids = tuple(draw(sample_ids))
    c = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(c), size=len(ids))
    # Sprinkle exact zeros and ones, which the writer prints as 0.0 and 1.0.
    for row in range(len(ids)):
        if draw(st.booleans()):
            probs[row] = 0.0
            probs[row, draw(st.integers(0, c - 1))] = 1.0
    return PredictionSet("m", ids, probs)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ps=prediction_sets(), block=st.sampled_from(BLOCK_SIZES))
    @example(ps=PredictionSet("m", ("a\0b", "c"), [[0.5, 0.5], [0.25, 0.75]]), block=None)
    def test_valid_sets_read_back_bit_identical(self, tmp_path, monkeypatch, convert_calls, ps, block):
        # The second load of each file comes from the cache entry the first
        # one wrote: the same ids and value bytes, with no cell parsed. The
        # writes store entries too, so the first load starts with none.
        _use_block(monkeypatch, block)
        p = tmp_path / "m.csv"
        write_predictions(ps, p)
        labels = LabeledSamples(ps.sample_ids, [i % ps.num_classes for i in range(ps.num_samples)])
        lp = tmp_path / "l.csv"
        write_labels(labels, lp)
        shutil.rmtree(tmp_path / ".softvote-cache", ignore_errors=True)
        for warm in (False, True):
            convert_calls.clear()
            again = load_predictions(p, ps.num_classes)
            assert again.sample_ids == ps.sample_ids
            assert again.probs.tobytes() == ps.probs.tobytes()
            back = load_labels(lp, ps.num_classes)
            assert back.sample_ids == labels.sample_ids
            assert back.labels.tobytes() == labels.labels.tobytes()
            assert (convert_calls == []) == warm


csv_ish = st.text(
    alphabet=st.one_of(st.sampled_from(list('0123456789.,-+eE"# \r\n\tnaifINAF_')), st.characters()),
    max_size=80,
)


class TestArbitraryText:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=csv_ish, with_header=st.booleans(), block=st.sampled_from(BLOCK_SIZES))
    def test_readers_raise_only_validation_or_os_errors(self, tmp_path, monkeypatch, body, with_header, block):
        _use_block(monkeypatch, block)
        p = tmp_path / "m.csv"
        # Text with a lone surrogate (st.characters() can draw one) becomes
        # invalid UTF-8 on disk, which the readers must reject like any other.
        p.write_bytes((("sample_id,p0,p1\n" if with_header else "") + body).encode("utf-8", "surrogatepass"))
        for load in (lambda: load_predictions(p, 2), lambda: load_labels(p.with_name("l.csv"), 3)):
            p.with_name("l.csv").write_bytes(
                (("sample_id,label\n" if with_header else "") + body).encode("utf-8", "surrogatepass")
            )
            try:
                # A cold and a warm load: the same result or the same error.
                assert _loaded(load) == _loaded(load)
            except OSError:
                pass


# Rows whose two sums fall on either side of the tolerance: the correctly
# rounded sum (math.fsum) decides, not numpy's pairwise sum.
FSUM_OFF_NPSUM_IN = ["0.5326616223299724", "0.01701853279858106", "0.25103731432744664", "0.199283530544"]
FSUM_IN_NPSUM_OFF = ["0.37353795549141866", "0.09048228499841136", "0.5183297243432279", "0.017651035166942115"]


class TestRowSumRule:
    def test_rows_straddling_the_tolerance(self):
        off = [float(v) for v in FSUM_OFF_NPSUM_IN]
        inside = [float(v) for v in FSUM_IN_NPSUM_OFF]
        assert abs(math.fsum(off) - 1.0) > 1e-6 >= abs(np.sum(off) - 1.0)
        assert abs(math.fsum(inside) - 1.0) <= 1e-6 < abs(np.sum(inside) - 1.0)
        with pytest.raises(ValidationError, match=r"m: row 1: probabilities sum to 1\.0000010000000001"):
            PredictionSet("m", ("a", "b"), [[1.0, 0.0, 0.0, 0.0], off])
        assert PredictionSet("m", ("a",), [inside]).num_samples == 1

    def test_loader_uses_the_same_rule(self, tmp_path, block_cells):
        head = "sample_id,p0,p1,p2,p3\na,1,0,0,0\n"
        p = _write(tmp_path, head + "b," + ",".join(FSUM_OFF_NPSUM_IN) + "\n")
        with pytest.raises(FormatError, match=r"m\.csv: row 3: probabilities sum to 1\.0000010000000001"):
            load_predictions(p, 4)
        p = _write(tmp_path, head + "b," + ",".join(FSUM_IN_NPSUM_OFF) + "\n")
        assert load_predictions(p, 4).num_samples == 2

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0.0, 1e-6, -1e-6, 1.5e-6, 5e-7]),
        ulps=st.integers(-40, 40),
    )
    def test_decision_equals_fsum_near_the_tolerance(self, c, seed, shift, ulps):
        from softvote.core import ROW_SUM_TOLERANCE, _first_invalid_row

        row = np.random.default_rng(seed).dirichlet(np.ones(c))
        row[0] = np.clip(row[0] + shift + ulps * 2.0**-52, 0.0, 1.0)
        expected = abs(math.fsum(row.tolist()) - 1.0) > ROW_SUM_TOLERANCE
        bad = _first_invalid_row(row[np.newaxis, :])
        assert (bad is not None) == expected


def reference_load_predictions(path, num_classes):
    """A row-at-a-time reader with the loaders' rules: one float() per cell."""
    expected = ["sample_id"] + [f"p{i}" for i in range(num_classes)]
    ids, rows, seen = [], [], {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != expected:
            raise FormatError(f"{path}: bad header, expected {','.join(expected)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != num_classes + 1:
                raise FormatError(f"{path}: row {lineno}: expected {num_classes + 1} cells, got {len(record)}")
            sid = record[0]
            if sid in seen:
                raise FormatError(f"{path}: row {lineno}: duplicate sample_id '{sid}' (first at row {seen[sid]})")
            seen[sid] = lineno
            values = []
            for cell in record[1:]:
                try:
                    values.append(float(cell))
                except ValueError:
                    raise FormatError(f"{path}: row {lineno}: non-numeric probability {cell!r}") from None
            if any(v < 0.0 or v > 1.0 for v in values):
                raise FormatError(f"{path}: row {lineno}: probability outside [0, 1]")
            if any(math.isnan(v) for v in values):
                raise FormatError(f"{path}: row {lineno}: non-finite probability")
            total = math.fsum(values)
            if abs(total - 1.0) > ROW_SUM_TOLERANCE:
                raise FormatError(
                    f"{path}: row {lineno}: probabilities sum to {total!r} (want 1 within {ROW_SUM_TOLERANCE})"
                )
            ids.append(sid)
            rows.append(values)
    return tuple(ids), np.array(rows, dtype=np.float64).reshape(len(ids), num_classes).tobytes()


def reference_load_labels(path, num_classes):
    ids, labels, seen = [], [], {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["sample_id", "label"]:
            raise FormatError(f"{path}: bad header, expected sample_id,label")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != 2:
                raise FormatError(f"{path}: row {lineno}: expected 2 cells, got {len(record)}")
            sid, cell = record
            if sid in seen:
                raise FormatError(f"{path}: row {lineno}: duplicate sample_id '{sid}' (first at row {seen[sid]})")
            seen[sid] = lineno
            try:
                label = int(cell)
            except ValueError:
                raise FormatError(f"{path}: row {lineno}: non-integer label {cell!r}") from None
            if label < 0 or label >= num_classes:
                raise LabelRangeError(f"{path}: row {lineno}: label {label} outside [0, {num_classes})")
            ids.append(sid)
            labels.append(label)
    return tuple(ids), labels


def _outcome(load):
    try:
        return load()
    except ValidationError as exc:
        return type(exc), str(exc)


CELLS = ["0", "1", "0.5", "0.25", "0.75", "1.0", "0.0", "-0.0", "0.5000005", "0.4999", "1e-300", "nan", "inf",
         "-inf", "1.5", "-0.5", "abc", "", " 0.5", "0.5 ", "5_0e-2", "0x1", "1e", "٠.5", "2", "-1", "3",
         "99999999999999999999", "1e400"]
ROW_IDS = ["a", "b", "c", "", " a", "a#", 'q"q', "x,y", "l\nm"]


@st.composite
def csv_texts(draw, width):
    header = ["sample_id"] + ([f"p{i}" for i in range(width - 1)] if width > 2 else [draw(st.sampled_from(["p0", "label"]))])
    rows = [header] + draw(
        st.lists(
            st.one_of(
                st.just([]),
                st.builds(
                    lambda sid, cells: [sid] + cells,
                    st.sampled_from(ROW_IDS),
                    st.lists(st.sampled_from(CELLS), min_size=width - 2, max_size=width),
                ),
            ),
            max_size=8,
        )
    )
    quote_all = draw(st.booleans())
    lines = []
    for row in rows:
        cells = [
            '"' + c.replace('"', '""') + '"' if quote_all or any(ch in c for ch in ',"\n') else c for c in row
        ]
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestMatchesRowReference:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), width=st.integers(2, 4), block=st.sampled_from(BLOCK_SIZES))
    def test_predictions(self, tmp_path, monkeypatch, data, width, block):
        _use_block(monkeypatch, block)
        p = tmp_path / "m.csv"
        p.write_bytes(data.draw(csv_texts(width)).encode("utf-8"))
        c = width - 1

        def bulk():
            ps = load_predictions(p, c)
            return ps.sample_ids, ps.probs.tobytes()

        reference = _outcome(lambda: reference_load_predictions(p, c))
        assert _outcome(bulk) == reference
        assert _outcome(bulk) == reference  # from the cache entry when the first load wrote one

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block=st.sampled_from(BLOCK_SIZES))
    def test_labels(self, tmp_path, monkeypatch, data, block):
        _use_block(monkeypatch, block)
        p = tmp_path / "l.csv"
        p.write_bytes(data.draw(csv_texts(2)).replace("p0", "label").encode("utf-8"))

        def bulk():
            labels = load_labels(p, 3)
            return labels.sample_ids, labels.labels.tolist()

        reference = _outcome(lambda: reference_load_labels(p, 3))
        assert _outcome(bulk) == reference
        assert _outcome(bulk) == reference  # from the cache entry when the first load wrote one
