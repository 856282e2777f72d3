"""The CSV writer's bytes, and how every output file replaces its target.

``reference_write_predictions``, ``reference_write_labels`` and
``reference_fused_text`` below are row-at-a-time ``csv.writer`` writers.
For every sample id without a carriage return the block writer must give
exactly their bytes, at any block size. (``csv.writer`` leaves a lone CR
unquoted, which the reader would take as a row end; the block writer
quotes it.)
"""

import csv
import io
import os
import shutil
import stat
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from softvote import (
    FormatError,
    LabeledSamples,
    PredictionSet,
    argmax_classes,
    load_labels,
    load_predictions,
    read_weights,
    write_labels,
    write_predictions,
    write_weights,
)
from softvote import ingest

DEFAULT_BLOCK_CELLS = ingest._BLOCK_CELLS
BLOCK_SIZES = (DEFAULT_BLOCK_CELLS, 1, 3, 7)


def reference_write_predictions(predictions, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id"] + [f"p{i}" for i in range(predictions.num_classes)])
        for sid, row in zip(predictions.sample_ids, predictions.probs):
            writer.writerow([sid] + [repr(float(v)) for v in row])


def reference_write_labels(labels, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"])
        for sid, label in zip(labels.sample_ids, labels.labels):
            writer.writerow([sid, int(label)])


def reference_fused_text(sample_ids, fused, predicted):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample_id"] + [f"p{i}" for i in range(fused.shape[1])] + ["predicted"])
    for sid, row, pred in zip(sample_ids, fused, predicted):
        writer.writerow([sid] + [repr(float(v)) for v in row] + [int(pred)])
    return buf.getvalue()


ids_without_cr = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(',"\n #x ')),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"),
    ),
    max_size=6,
)


@st.composite
def prediction_sets(draw):
    """Random valid sets: S = 0 to 12, C = 1 to 5, with rows that print oddly."""
    s = draw(st.integers(0, 12))
    ids = tuple(draw(st.lists(ids_without_cr, min_size=s, max_size=s, unique=True)))
    c = draw(st.integers(1, 5))
    probs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(c), size=s)
    for row in range(s):
        kind = draw(st.sampled_from(["dirichlet", "one-hot", "subnormal", "17 digits"]))
        if kind == "dirichlet":
            continue
        probs[row] = 0.0
        if kind == "17 digits" and c > 1:
            probs[row, :2] = [0.30000000000000004, 0.7]
            continue
        probs[row, draw(st.integers(0, c - 1))] = 1.0
        if kind == "subnormal" and c > 1:
            probs[row, probs[row].argmin()] = 5e-324
    return PredictionSet("m", ids, probs)


class TestMatchesCsvWriter:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ps=prediction_sets(), block=st.sampled_from(BLOCK_SIZES))
    @example(ps=PredictionSet("m", (), np.empty((0, 1))), block=1)
    @example(ps=PredictionSet("m", ("only",), [[1.0]]), block=DEFAULT_BLOCK_CELLS)
    @example(ps=PredictionSet("m", ('a,"b"', ""), [[5e-324, 1.0], [0.30000000000000004, 0.7]]), block=3)
    def test_same_bytes_as_csv_writer(self, tmp_path, monkeypatch, ps, block):
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", block)
        write_predictions(ps, tmp_path / "m.csv")
        reference_write_predictions(ps, tmp_path / "ref.csv")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        labels = LabeledSamples(ps.sample_ids, [(7 * i) % ps.num_classes for i in range(ps.num_samples)])
        write_labels(labels, tmp_path / "l.csv")
        reference_write_labels(labels, tmp_path / "ref.csv")
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

        predicted = argmax_classes(ps.probs)
        text = "".join(ingest._csv_text("p{}", ps.sample_ids, ps.probs, predicted))
        assert text == reference_fused_text(ps.sample_ids, ps.probs, predicted)


class TestAtomicReplace:
    def test_failed_write_leaves_the_target_and_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "m.csv"
        target.write_bytes(b"old contents\n")
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3)
        # The third row's id cannot be encoded as UTF-8, so the write fails
        # after the header and two rows.
        ps = PredictionSet("m", ("a", "b", "bad\ud800"), [[0.5, 0.5]] * 3)
        with pytest.raises(UnicodeEncodeError):
            write_predictions(ps, target)
        assert target.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_new_file_replaces_the_target_with_umask_permissions(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        target = tmp_path / "l.csv"
        target.write_bytes(b"old contents\n")
        write_labels(LabeledSamples(("a",), [0]), target)
        assert target.read_bytes() == b"sample_id,label\na,0\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
        assert sorted(os.listdir(tmp_path)) == [".softvote-cache", "l.csv"]

    def test_a_pipe_target_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        ingest._write_text(pipe, ["a\n", "b\n"])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"a\nb\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_a_name_of_the_longest_length_is_written(self, tmp_path):
        long_name = _longest_name(tmp_path, ".json")
        target = tmp_path / long_name
        write_weights([0.25, 0.75], 0.5, target)
        assert read_weights(target)[0].tolist() == [0.25, 0.75]
        assert os.listdir(tmp_path) == [long_name]
        ps = PredictionSet("m", ("a", "bad\ud800"), [[0.5, 0.5]] * 2)
        with pytest.raises(UnicodeEncodeError):
            write_predictions(ps, target)
        assert os.listdir(tmp_path) == [long_name]
        assert read_weights(target)[0].tolist() == [0.25, 0.75]


@st.composite
def id_lists(draw):
    """0 to 12 unique ids; in half the lists, ids may hold a NUL or a character the writer quotes."""
    special = ',"\r\n\0'
    if draw(st.booleans()):
        chars = st.one_of(st.sampled_from(list(special)), st.characters(blacklist_categories=("Cs",)))
    else:
        chars = st.characters(blacklist_categories=("Cs",), blacklist_characters=special)
    s = draw(st.integers(0, 12))
    return draw(st.lists(st.text(chars, max_size=6), min_size=s, max_size=s, unique=True))


def _entry_bytes(p):
    """The bytes of the cache entry beside ``p``, or None."""
    entry = ingest._entry_path(p)
    return entry.read_bytes() if entry.exists() else None


class TestWrittenEntry:
    """A predictions or labels CSV is written with the entry a load of it would store."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=id_lists(), c=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), block=st.sampled_from(BLOCK_SIZES))
    @example(ids=[], c=1, seed=0, block=DEFAULT_BLOCK_CELLS)
    @example(ids=["a\0b", "c"], c=2, seed=0, block=DEFAULT_BLOCK_CELLS)
    @example(ids=['q"', "é"], c=3, seed=0, block=1)
    @example(ids=["a,b", 'q"x', "c\rd", "e\r\nf"], c=2, seed=0, block=DEFAULT_BLOCK_CELLS)
    def test_entry_is_the_one_a_cold_load_stores(self, tmp_path, monkeypatch, ids, c, seed, block):
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", block)
        shutil.rmtree(tmp_path / ".softvote-cache", ignore_errors=True)
        rng = np.random.default_rng(seed)
        ps = PredictionSet("m", tuple(ids), rng.dirichlet(np.ones(c), size=len(ids)))
        labels = LabeledSamples(tuple(ids), rng.integers(0, c, size=len(ids)))
        p, lp = tmp_path / "m.csv", tmp_path / "l.csv"
        write_predictions(ps, p)
        write_labels(labels, lp)
        loads = {p: lambda: load_predictions(p, c), lp: lambda: load_labels(lp, c)}
        written = {path: _entry_bytes(path) for path in loads}
        for path, load in loads.items():
            # The entry a cold load stores once the cache is removed.
            shutil.rmtree(tmp_path / ".softvote-cache", ignore_errors=True)
            load()
            assert written[path] is not None
            assert written[path] == _entry_bytes(path)

    @pytest.mark.parametrize(
        "write, table",
        [
            (write_predictions, PredictionSet("m", ("a", "b", "bad\ud800"), [[0.5, 0.5]] * 3)),
            (write_labels, LabeledSamples(("a", "b", "bad\ud800"), [0, 1, 0])),
        ],
        ids=["predictions", "labels"],
    )
    def test_a_failed_write_leaves_no_file_and_no_entry(self, tmp_path, monkeypatch, write, table):
        # The third row's id cannot be encoded, so the write fails after two rows.
        monkeypatch.setattr(ingest, "_BLOCK_CELLS", 3)
        with pytest.raises(UnicodeEncodeError):
            write(table, tmp_path / "m.csv")
        assert os.listdir(tmp_path) == []

    def test_a_name_too_long_for_its_entry_is_written_without_one(self, tmp_path):
        target = tmp_path / _longest_name(tmp_path, ".csv")
        ps = PredictionSet("m", ("a", "b"), [[0.25, 0.75], [1.0, 0.0]])
        write_predictions(ps, target)
        assert load_predictions(target, 2).probs.tobytes() == ps.probs.tobytes()
        assert not any((tmp_path / ".softvote-cache").iterdir())

    def test_an_id_past_the_field_limit_gets_no_entry(self, tmp_path):
        # A load refuses such an id, so an entry would turn its error into a result.
        p = tmp_path / "m.csv"
        old = csv.field_size_limit(len("sample_id"))
        try:
            write_predictions(PredictionSet("m", ("0123456789",), [[1.0]]), p)
            assert not (tmp_path / ".softvote-cache").exists()
            with pytest.raises(FormatError, match="row 2: field larger than field limit"):
                load_predictions(p, 1)
        finally:
            csv.field_size_limit(old)

    def test_a_pipe_target_gets_no_entry(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        write_labels(LabeledSamples(("a",), [0]), pipe)
        reader.join(timeout=10)
        assert got == [b"sample_id,label\na,0\n"]
        assert os.listdir(tmp_path) == ["pipe"]


def _longest_name(directory, suffix):
    """A file name of 255 bytes, the usual NAME_MAX; skips where the file system allows fewer."""
    if os.pathconf(directory, "PC_NAME_MAX") < 255:
        pytest.skip("file names here are limited to fewer than 255 bytes")
    return "w" * (255 - len(suffix)) + suffix
