"""Tests for the versioned columnar snapshot format (:mod:`repro.core.snapshot`).

The format is a service interface: the streaming writer must emit bytes
that NumPy's own loader accepts, the bytes must not drift, and version or
inventory mismatches must fail loudly instead of misreading state.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro.core.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    SnapshotError,
    SnapshotReader,
    SnapshotWriter,
    read_npy,
    write_npy,
)

def test_npy_round_trip(tmp_path):
    values = array("q", [0, 1, -1, 2**62, -(2**62), 42])
    path = tmp_path / "col.npy"
    write_npy(path, [values], len(values))
    loaded = read_npy(path)
    assert list(loaded) == list(values)
    # slicing and indexing work on the memory-mapped column
    assert loaded[2] == -1
    assert list(loaded[1:3]) == [1, -1]


def test_npy_streams_multiple_chunks(tmp_path):
    path = tmp_path / "col.npy"
    write_npy(path, [array("q", [1, 2]), array("q", []), array("q", [3])], 3)
    assert list(read_npy(path)) == [1, 2, 3]


def test_npy_count_mismatch_is_an_error(tmp_path):
    with pytest.raises(ValueError):
        write_npy(tmp_path / "col.npy", [array("q", [1, 2])], 3)


def test_npy_data_section_is_64_byte_aligned(tmp_path):
    # numpy's own writer aligns the data section the same way
    path = tmp_path / "col.npy"
    write_npy(path, [array("q", [7])], 1)
    raw = path.read_bytes()
    header_size = len(raw) - 8  # one int64 of payload
    assert header_size % 64 == 0


def test_numpy_reads_the_writer_bytes(tmp_path):
    values = array("q", range(-5, 100))
    path = tmp_path / "col.npy"
    write_npy(path, [values], len(values))
    loaded = np.load(str(path))
    assert loaded.dtype == np.int64
    assert loaded.ndim == 1
    assert loaded.tolist() == list(values)
    # and so does the memory-mapped reader of this module
    assert list(read_npy(path)) == list(values)


def test_snapshot_directory_round_trip(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("numbers", array("q", [3, 1, 4, 1, 5]))
    writer.column("empty", array("q"))
    writer.strings("names", ["alpha", "", "βήτα", "gamma"])
    writer.meta(kind="unit-test", threshold=0.5)
    writer.close()

    reader = SnapshotReader(tmp_path / "snap")
    assert list(reader.column("numbers")) == [3, 1, 4, 1, 5]
    assert list(reader.column("empty")) == []
    assert reader.strings("names") == ["alpha", "", "βήτα", "gamma"]
    assert reader.meta == {"kind": "unit-test", "threshold": 0.5}
    with pytest.raises(KeyError):
        reader.column("missing")
    with pytest.raises(KeyError):
        reader.strings("numbers")


def test_snapshot_rejects_duplicate_columns(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1]))
    with pytest.raises(ValueError):
        writer.column("col", array("q", [2]))
    with pytest.raises(ValueError):
        writer.strings("col", ["x"])


def test_snapshot_requires_manifest(tmp_path):
    (tmp_path / "snap").mkdir()
    with pytest.raises(FileNotFoundError):
        SnapshotReader(tmp_path / "snap")


def test_snapshot_rejects_unknown_format_version(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1]))
    writer.close()
    manifest_path = tmp_path / "snap" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = SNAPSHOT_FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format version"):
        SnapshotReader(tmp_path / "snap")


def test_snapshot_validates_column_lengths(tmp_path):
    writer = SnapshotWriter(tmp_path / "snap")
    writer.column("col", array("q", [1, 2, 3]))
    writer.close()
    # truncate the column behind the manifest's back
    write_npy(tmp_path / "snap" / "col.npy", [array("q", [1, 2])], 2)
    with pytest.raises(ValueError, match="manifest declares"):
        SnapshotReader(tmp_path / "snap").column("col")


# ----------------------------------------------------------------------
# integrity: every corruption must fail loudly, never misread
# ----------------------------------------------------------------------
def _write_sample_snapshot(target) -> None:
    with SnapshotWriter(target) as writer:
        writer.column("numbers", array("q", [3, 1, 4, 1, 5, 9, 2, 6]))
        writer.strings("names", ["alpha", "beta", "gamma"])
        writer.meta(kind="integrity-test")


def test_flipped_byte_fails_crc(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    payload = bytearray((target / "numbers.npy").read_bytes())
    payload[-1] ^= 0xFF  # corrupt the last data byte; length is unchanged
    (target / "numbers.npy").write_bytes(payload)
    with pytest.raises(SnapshotError, match="CRC32"):
        SnapshotReader(target).column("numbers")


def test_truncated_blob_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    blob = (target / "names.blob").read_bytes()
    (target / "names.blob").write_bytes(blob[:-3])
    with pytest.raises(SnapshotError, match="truncated or overwritten"):
        SnapshotReader(target).strings("names")


def test_wrong_recorded_checksum_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["checksums"]["numbers.npy"][0] ^= 0xDEAD
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="CRC32"):
        SnapshotReader(target).column("numbers")


def test_missing_checksum_entry_is_detected(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["checksums"]["numbers.npy"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SnapshotError, match="no checksum"):
        SnapshotReader(target).column("numbers")


def test_garbage_manifest_is_a_snapshot_error(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    (target / "manifest.json").write_text("{not json")
    with pytest.raises(SnapshotError, match="not valid JSON"):
        SnapshotReader(target)


def test_missing_data_file_is_partial(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    (target / "numbers.npy").unlink()
    with pytest.raises(SnapshotError, match="partial"):
        SnapshotReader(target).column("numbers")


def test_legacy_manifest_loads_with_warning(tmp_path):
    # snapshots written before format 1.1 carry no checksums: they must
    # still load, but say so
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["checksums"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.warns(RuntimeWarning, match="integrity cannot be verified"):
        reader = SnapshotReader(target)
    assert list(reader.column("numbers")) == [3, 1, 4, 1, 5, 9, 2, 6]
    assert reader.strings("names") == ["alpha", "beta", "gamma"]


# ----------------------------------------------------------------------
# crash safety: the target is always the old snapshot or the new one
# ----------------------------------------------------------------------
def _snapshot_bytes(target) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(Path(target).iterdir())}


def test_overwrite_is_atomic_and_leaves_no_leftovers(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    with SnapshotWriter(target) as writer:
        writer.column("numbers", array("q", [42]))
        writer.strings("names", ["delta"])
    reader = SnapshotReader(target)
    assert list(reader.column("numbers")) == [42]
    assert reader.strings("names") == ["delta"]
    # no staging or displaced directories survive the swap
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_abort_leaves_previous_snapshot_intact(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    before = _snapshot_bytes(target)
    writer = SnapshotWriter(target)
    writer.column("numbers", array("q", [7, 7, 7]))
    writer.abort()
    assert _snapshot_bytes(target) == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_writer_exception_aborts_not_publishes(tmp_path):
    target = tmp_path / "snap"
    _write_sample_snapshot(target)
    before = _snapshot_bytes(target)
    with pytest.raises(RuntimeError, match="boom"):
        with SnapshotWriter(target) as writer:
            writer.column("numbers", array("q", [9]))
            raise RuntimeError("boom")
    assert _snapshot_bytes(target) == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["snap"]


def test_unfinished_writer_never_touches_target(tmp_path):
    target = tmp_path / "snap"
    writer = SnapshotWriter(target)
    writer.column("numbers", array("q", [1, 2, 3]))
    # no close(): the target must not exist at all
    assert not target.exists()
    writer.abort()


def test_save_killed_mid_write_leaves_old_snapshot_loadable(tmp_path):
    """The satellite regression: SIGKILL during ``IncrementalIndex.save``
    over an existing snapshot must leave the old snapshot byte-identical
    and loadable -- the all-or-nothing overwrite contract."""
    from repro.datasets import DatasetConfig, generate_dirty_dataset
    from repro.iterative.index import IncrementalIndex
    from repro.matching import ProfileSimilarityMatcher

    dataset = generate_dirty_dataset(DatasetConfig(num_entities=15, seed=3))
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for description in dataset.collection:
        index.add(description)
    target = tmp_path / "snap"
    index.save(target)
    before = _snapshot_bytes(target)

    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    script = f"""
import os, signal, sys
sys.path.insert(0, {src_dir!r})
from repro.core import snapshot
from repro.datasets import DatasetConfig, generate_dirty_dataset
from repro.iterative.index import IncrementalIndex
from repro.matching import ProfileSimilarityMatcher

calls = [0]
original = snapshot.SnapshotWriter.column
def dying(self, name, values):
    calls[0] += 1
    if calls[0] > 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(self, name, values)
snapshot.SnapshotWriter.column = dying

dataset = generate_dirty_dataset(DatasetConfig(num_entities=25, seed=7))
index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
for description in dataset.collection:
    index.add(description)
index.save({str(target)!r})
"""
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == -9, completed.stderr  # died by SIGKILL mid-save
    # the target is byte-identical to the pre-crash snapshot and loads
    assert _snapshot_bytes(target) == before
    restored = IncrementalIndex.load(target)
    assert restored.clusters() == index.clusters()
    # the crashed child's staging directory is the only debris; the target
    # itself was never touched
    debris = [e.name for e in tmp_path.iterdir() if e.name != "snap"]
    assert all(name.startswith(".snap.tmp-") for name in debris)


#: sha256 over the (name, bytes) of every file of the snapshot below; the
#: writer's output is a pure function of the index state, so any change to
#: the on-disk encoding shows up here
_PINNED_SNAPSHOT_DIGEST = "f7bb5e02e56d1ef649099eeda5e7551e3b668b5c7c748fea80fb6441aad086dc"


def test_snapshot_bytes_are_pinned(tmp_path):
    from repro.datasets import DatasetConfig, generate_dirty_dataset
    from repro.iterative.index import IncrementalIndex
    from repro.matching import ProfileSimilarityMatcher

    dataset = generate_dirty_dataset(DatasetConfig(num_entities=15, seed=3))
    index = IncrementalIndex(ProfileSimilarityMatcher(threshold=0.5))
    for description in dataset.collection:
        index.add(description)
    index.save(tmp_path / "snap")
    digest = hashlib.sha256()
    for name, payload in _snapshot_bytes(tmp_path / "snap").items():
        digest.update(name.encode())
        digest.update(payload)
    assert digest.hexdigest() == _PINNED_SNAPSHOT_DIGEST
    # a restored index saves back byte for byte
    IncrementalIndex.load(tmp_path / "snap").save(tmp_path / "again")
    assert _snapshot_bytes(tmp_path / "again") == _snapshot_bytes(tmp_path / "snap")
