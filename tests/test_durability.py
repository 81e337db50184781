"""The durability layer: canonical encoding, WAL format, recovery, chaos proofs.

Four layers of guarantees, tested bottom-up:

1. **Canonical encoding** (:mod:`repro.durability.encode`): one value, one
   byte sequence; families outside the canonical set decline honestly
   *before* any byte is written; corrupt bytes decode to
   :class:`CorruptRecordError`, never to a wrong value.
2. **WAL file format** (:mod:`repro.durability.wal`): framed CRC'd records
   round-trip; a reader accepts the longest well-formed prefix and counts
   everything after it as a torn tail.
3. **The durable commit cycle**: ``open_durable`` → commits → ``recover``
   reproduces the live database exactly; checkpoints truncate the log
   without changing what recovery computes; recovery is idempotent and the
   recovered database is a full citizen of the rest of the system.
4. **Crash chaos**: the log is cut at every record boundary and every torn
   mid-record byte offset, and injected faults fire at every stage of the
   commit (append, fsync, checkpoint, even the unwind handler itself); in
   every case recovery lands on exactly the state of the last acked epoch —
   never a half-applied commit.

The exhaustive every-byte-offset and multi-seed sweeps carry the
``durability`` marker (deselected by default; run with ``pytest -m
durability``); the unmarked tests keep tier-1 fast.
"""

import random
import shutil
import threading
from bisect import bisect_right
from enum import IntEnum
from math import inf, isnan, nan
from pathlib import Path

import pytest

from repro.durability import (
    CorruptRecordError,
    DurabilityConfig,
    UnencodableValueError,
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    checkpoint_path,
    decode_row,
    decode_value,
    durable_epoch,
    encode_row,
    encode_value,
    open_durable,
    read_checkpoint,
    read_wal,
    record_boundaries,
    recover,
    torn_tail_lengths,
    truncated_copy,
    wal_path,
    write_checkpoint,
)
from repro.durability.encode import decode_text, encode_text
from repro.durability.wal import decode_record, encode_record
from repro.observability import MetricsRegistry, use_metrics
from repro.relational.database import Database
from repro.relational.errors import ReproError
from repro.resilience import FaultPlan, FaultRule, InjectedFault, chaos
from repro.serving import SnapshotServer, build_trace

from scenarios import random_database, random_update_stream


# ---------------------------------------------------------------------------
# Shared scripted histories
# ---------------------------------------------------------------------------
def _fresh_database() -> Database:
    database = Database()
    database.create_relation("items", ("iid", "category", "price"))
    return database


def _insert(iid: int):
    return [("insert", "items", (iid, f"c{iid % 3}", iid * 2))]


def _durable_history(directory, seed: int, length: int):
    """Run a scripted durable history under ``directory``.

    Returns ``(database, archives)`` where ``archives[epoch]`` is a
    :meth:`Database.copy` of the state at that epoch — the oracle the crash
    simulations below compare recovery against.  The WAL is closed and
    detached, as a clean shutdown would leave it.
    """
    rng = random.Random(seed)
    database = random_database(rng)
    wal = open_durable(database, directory)
    archives = {database.epoch: database.copy()}
    for delta in random_update_stream(rng, database, length):
        applied = database.apply_delta(delta)
        if applied.effective:
            archives[database.epoch] = database.copy()
    wal.close()
    database.detach_wal()
    return database, archives


def _crashed_directory(source, length: int, destination) -> Path:
    """A durability directory as a crash at WAL byte ``length`` leaves it."""
    destination = Path(destination)
    destination.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(checkpoint_path(source), checkpoint_path(destination))
    truncated_copy(wal_path(source), length, wal_path(destination))
    return destination


# ---------------------------------------------------------------------------
# 1. The canonical value encoding
# ---------------------------------------------------------------------------
class TestCanonicalEncoding:
    ROUND_TRIP_VALUES = [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**200,
        -(2**200),
        0.0,
        -1.5,
        inf,
        -inf,
        1e308,
        "",
        "plain",
        "héllo ☃ — ügly",
        "x" * 4096,
        b"",
        b"\x00\xff\x7f",
        b"raw bytes",
    ]

    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES, ids=repr)
    def test_value_round_trip(self, value):
        encoded = encode_value(value)
        decoded, offset = decode_value(encoded, 0)
        assert decoded == value
        assert type(decoded) is type(value)
        assert offset == len(encoded)

    def test_nan_round_trips(self):
        decoded, _ = decode_value(encode_value(nan), 0)
        assert isnan(decoded)

    def test_encoding_is_canonical_across_families(self):
        # Values that *compare* equal but belong to different families must
        # encode differently — a WAL that flattened True into 1 would
        # recover a different database than the one that was acked.
        assert encode_value(True) != encode_value(1)
        assert encode_value(False) != encode_value(0)
        assert encode_value(1.0) != encode_value(1)
        assert encode_value("1") != encode_value(1)
        assert encode_value(b"x") != encode_value("x")

    class _IntLike(int):
        pass

    class _TextLike(str):
        pass

    class _Tag(IntEnum):
        RED = 1

    DECLINED_VALUES = [
        _IntLike(3),
        _TextLike("s"),
        _Tag.RED,
        (1, 2),
        [1],
        {"a": 1},
        {1, 2},
        1 + 2j,
        object(),
    ]

    @pytest.mark.parametrize("value", DECLINED_VALUES, ids=lambda v: type(v).__name__)
    def test_unsupported_families_decline_honestly(self, value):
        with pytest.raises(UnencodableValueError):
            encode_value(value)

    def test_a_row_with_one_bad_value_declines_whole(self):
        with pytest.raises(UnencodableValueError):
            encode_row((1, "fine", object()))

    CORRUPT_INPUTS = [
        b"",  # no tag at all
        b"Z",  # unknown tag
        b"f\x00\x00\x00",  # truncated float body
        b"i\x02\x00\x00\x00",  # int length prefix promises 2 missing bytes
        b"i\x02\x00\x00\x00xy",  # int body is not decimal digits
        b"s\x01\x00\x00\x00\xff",  # invalid UTF-8 string body
        b"s\x05\x00\x00\x00ab",  # truncated string body
    ]

    @pytest.mark.parametrize("data", CORRUPT_INPUTS, ids=repr)
    def test_corrupt_bytes_raise_not_misparse(self, data):
        with pytest.raises(CorruptRecordError):
            decode_value(data, 0)

    def test_errors_are_repro_errors(self):
        # Callers catch the repo-wide base class; both durability errors
        # must be inside that hierarchy.
        assert issubclass(UnencodableValueError, ReproError)
        assert issubclass(CorruptRecordError, ReproError)

    def test_row_round_trip_and_offset(self):
        row = (1, "a", None, 2.5, b"\x00", True)
        encoded = encode_row(row) + b"trailing"
        decoded, offset = decode_row(encoded)
        assert decoded == row
        assert offset == len(encoded) - len(b"trailing")

    def test_text_round_trip(self):
        blob = encode_text("relation ☃") + encode_text("")
        first, offset = decode_text(blob, 0)
        second, end = decode_text(blob, offset)
        assert (first, second) == ("relation ☃", "")
        assert end == len(blob)


# ---------------------------------------------------------------------------
# 2. The WAL file format
# ---------------------------------------------------------------------------
class TestWalFileFormat:
    def test_record_codec_round_trip(self):
        modifications = (
            ("insert", "items", (1, "a", 2.0)),
            ("delete", "items", (2, "b", None)),
        )
        record = decode_record(encode_record(7, modifications))
        assert record == WalRecord(7, modifications)

    def test_unknown_modification_kind_declines(self):
        with pytest.raises(ValueError):
            encode_record(1, [("upsert", "items", (1,))])

    @pytest.mark.parametrize(
        "payload",
        [
            b"",  # shorter than the epoch header
            b"\x00" * 11,  # truncated count
            encode_record(1, [("insert", "r", (1,))]) + b"x",  # trailing bytes
            b"\x01" + b"\x00" * 7 + b"\x01\x00\x00\x00" + b"?",  # bad kind byte
        ],
        ids=["empty", "short-header", "trailing", "bad-kind"],
    )
    def test_corrupt_payloads_raise(self, payload):
        with pytest.raises(CorruptRecordError):
            decode_record(payload)

    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        expected = []
        with WriteAheadLog(path) as wal:
            for epoch in range(1, 6):
                modifications = (("insert", "items", (epoch, f"c{epoch}", epoch)),)
                wal.append(epoch, modifications)
                expected.append(WalRecord(epoch, modifications))
            assert wal.records() == tuple(expected)
        scan = read_wal(path)
        assert scan.records == tuple(expected)
        assert scan.torn_tail_bytes == 0
        assert not scan.tail_discarded
        assert scan.valid_length == path.stat().st_size
        # Extents tile the file: header, then back-to-back records.
        assert scan.extents[0][0] == len(WAL_MAGIC)
        for (_, end), (start, _) in zip(scan.extents, scan.extents[1:]):
            assert end == start

    def test_missing_file_scans_empty(self, tmp_path):
        scan = read_wal(tmp_path / "absent.log")
        assert scan.records == ()
        assert scan.valid_length == 0
        assert scan.torn_tail_bytes == 0

    def test_alien_file_is_rejected_loudly(self, tmp_path):
        path = tmp_path / "not-a-wal.log"
        path.write_bytes(b"#!/bin/sh\necho not a log\n")
        with pytest.raises(CorruptRecordError):
            read_wal(path)
        # Attaching a log to an alien file fails at open, not first append.
        with pytest.raises(CorruptRecordError):
            WriteAheadLog(path)

    def test_boundaries_and_torn_lengths_describe_the_extents(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for epoch in range(1, 4):
                wal.append(epoch, (("insert", "items", (epoch, "c", epoch)),))
        scan = read_wal(path)
        boundaries = record_boundaries(path)
        assert boundaries[0] == len(WAL_MAGIC)
        assert boundaries[1:] == tuple(end for _, end in scan.extents)
        torn = torn_tail_lengths(path)
        last_start, last_end = scan.extents[-1]
        assert torn == tuple(range(last_start + 1, last_end))

    def test_reattach_over_a_torn_tail_truncates_before_appending(self, tmp_path):
        # A crash mid-record leaves malformed bytes at the end of the file.
        # Reopening the log must truncate them *before* appending: records
        # appended behind a torn frame would be unreachable to every reader,
        # so fsync-acked commits would silently vanish on the next recovery.
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for epoch in range(1, 4):
                wal.append(epoch, (("insert", "items", (epoch, "c", epoch)),))
        torn = torn_tail_lengths(path)
        path.write_bytes(path.read_bytes()[: torn[len(torn) // 2]])
        with WriteAheadLog(path) as wal:
            # The torn record 3 is gone; the resumed history re-commits it.
            assert [record.epoch for record in wal.records()] == [1, 2]
            wal.append(3, (("insert", "items", (3, "c2", 30)),))
        scan = read_wal(path)
        assert [record.epoch for record in scan.records] == [1, 2, 3]
        assert scan.records[-1].modifications == (("insert", "items", (3, "c2", 30)),)
        assert scan.torn_tail_bytes == 0

    def test_reattach_over_a_partial_header_rebuilds_the_log(self, tmp_path):
        # Fewer than the header's 8 bytes can survive a crash at file
        # creation; there is no valid prefix at all, and reattaching must
        # rebuild the log instead of appending records no reader (the magic
        # check fires first) would ever decode.
        path = tmp_path / "wal.log"
        path.write_bytes(WAL_MAGIC[:3])
        with WriteAheadLog(path) as wal:
            wal.append(1, (("insert", "items", (1, "c", 2)),))
        scan = read_wal(path)
        assert [record.epoch for record in scan.records] == [1]
        assert scan.torn_tail_bytes == 0

    def test_truncate_through_drops_only_covered_records(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            for epoch in range(1, 7):
                wal.append(epoch, (("insert", "items", (epoch, "c", epoch)),))
            kept = wal.truncate_through(4)
            assert kept == 2
            assert [record.epoch for record in wal.records()] == [5, 6]
            # The log keeps accepting appends after the swap.
            wal.append(7, (("insert", "items", (7, "c", 7)),))
            assert [record.epoch for record in wal.records()] == [5, 6, 7]
        assert [record.epoch for record in read_wal(path).records] == [5, 6, 7]


# ---------------------------------------------------------------------------
# 3. The durable commit cycle
# ---------------------------------------------------------------------------
class TestDurableCommitCycle:
    def test_commits_recover_exactly_and_are_metered(self, tmp_path):
        registry = MetricsRegistry()
        with use_metrics(registry):
            database = _fresh_database()
            wal = open_durable(database, tmp_path)
            for iid in range(3):
                database.apply_delta(_insert(iid))
            wal.close()
            database.detach_wal()
            result = recover(tmp_path)
        assert result.database == database
        assert result.epoch == database.epoch == 3
        assert result.checkpoint_epoch == 0
        assert result.records_replayed == 3
        assert result.records_skipped == 0
        assert result.torn_tail_bytes == 0
        # recover() hands back a database with no WAL attached: re-attaching
        # (and therefore appending) is an explicit follow-up step.
        assert result.database.wal is None
        assert registry.counter("checkpoint.written") == 1
        assert registry.counter("wal.records.appended") == 3
        assert registry.counter("wal.bytes.appended") > 0
        assert registry.counter("wal.fsyncs") >= 1
        assert registry.counter("recovery.records.replayed") == 3

    def test_noop_commits_append_nothing(self, tmp_path):
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        database.apply_delta(_insert(1))
        applied = database.apply_delta([("delete", "items", (99, "c0", 0))])
        assert applied.effective == ()
        assert database.epoch == 1
        assert len(wal.records()) == 1
        wal.close()
        database.detach_wal()
        assert recover(tmp_path).epoch == 1

    def test_checkpoint_truncates_and_recovery_uses_the_tail(self, tmp_path):
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        for iid in range(5):
            database.apply_delta(_insert(iid))
        epoch = write_checkpoint(
            database.snapshot(), checkpoint_path(tmp_path), wal=wal
        )
        assert epoch == 5
        assert wal.records() == ()  # the image contains every commit so far
        for iid in range(5, 8):
            database.apply_delta(_insert(iid))
        assert [record.epoch for record in wal.records()] == [6, 7, 8]
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.checkpoint_epoch == 5
        assert result.records_replayed == 3
        assert result.epoch == 8
        assert result.database == database

    def test_stale_tail_records_below_the_checkpoint_are_skipped(self, tmp_path):
        # A crash between checkpoint-write and log-truncation legitimately
        # leaves records the image already contains; recovery must skip
        # them, not double-apply.
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        for iid in range(4):
            database.apply_delta(_insert(iid))
        # Checkpoint *without* truncating: the crash window made durable.
        write_checkpoint(database.snapshot(), checkpoint_path(tmp_path))
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.checkpoint_epoch == 4
        assert result.records_skipped == 4
        assert result.records_replayed == 0
        assert result.database == database

    def test_recover_then_reattach_over_a_torn_crash_keeps_new_commits(self, tmp_path):
        # The documented resume path — recover(), then open_durable() on the
        # same directory — exercised over a *torn* crash: the reattach must
        # truncate the tear so commits acked after the resume are readable
        # by the next recovery, not stranded behind malformed bytes.
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        for iid in range(3):
            database.apply_delta(_insert(iid))
        wal.close()
        database.detach_wal()
        log = wal_path(tmp_path)
        torn = torn_tail_lengths(log)
        log.write_bytes(log.read_bytes()[: torn[len(torn) // 2]])
        first = recover(tmp_path)
        assert first.epoch == 2  # the torn record 3 was never acked
        assert first.torn_tail_bytes > 0
        resumed = first.database
        wal = open_durable(resumed, tmp_path)
        for iid in range(10, 13):
            resumed.apply_delta(_insert(iid))
        wal.close()
        resumed.detach_wal()
        final = recover(tmp_path)
        assert final.epoch == resumed.epoch == 5
        assert final.database == resumed
        assert final.torn_tail_bytes == 0

    def test_open_durable_refuses_a_mismatched_database(self, tmp_path):
        # Attaching anything but the directory's own recovered state would
        # append a forked history over durable commits — and recovery's
        # skip rule would then silently drop them.  The attach must refuse.
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        for iid in range(3):
            database.apply_delta(_insert(iid))
        wal.close()
        database.detach_wal()
        assert durable_epoch(tmp_path) == 3
        stranger = _fresh_database()  # epoch 0: not this directory's history
        with pytest.raises(CorruptRecordError):
            open_durable(stranger, tmp_path)
        assert stranger.wal is None  # refused before attaching anything
        # The recovered database, by contrast, reattaches cleanly.
        recovered = recover(tmp_path).database
        wal = open_durable(recovered, tmp_path)
        recovered.apply_delta(_insert(99))
        wal.close()
        recovered.detach_wal()
        assert recover(tmp_path).epoch == 4

    def test_open_durable_refuses_a_wal_without_its_checkpoint(self, tmp_path):
        # A directory holding WAL records but no checkpoint lost the log's
        # baseline image; appending to it could never recover soundly.
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        database.apply_delta(_insert(1))
        wal.close()
        database.detach_wal()
        checkpoint_path(tmp_path).unlink()
        with pytest.raises(CorruptRecordError):
            open_durable(_fresh_database(), tmp_path)

    def test_recover_refuses_a_directory_without_artifacts(self, tmp_path):
        with pytest.raises(CorruptRecordError):
            recover(tmp_path / "never-created")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CorruptRecordError):
            recover(empty)  # a WAL without its baseline image cannot recover

    def test_wal_off_is_bit_identical(self, tmp_path):
        durable = _fresh_database()
        plain = _fresh_database()
        wal = open_durable(durable, tmp_path)
        for iid in range(6):
            durable.apply_delta(_insert(iid))
            plain.apply_delta(_insert(iid))
        wal.close()
        durable.detach_wal()
        assert durable == plain
        assert durable.epoch == plain.epoch
        assert plain.wal is None


# ---------------------------------------------------------------------------
# 3b. Recovery idempotence and composability
# ---------------------------------------------------------------------------
class TestRecoveryComposability:
    def test_recovering_twice_equals_recovering_once(self, tmp_path):
        database, _ = _durable_history(tmp_path, seed=5, length=10)
        first = recover(tmp_path)
        second = recover(tmp_path)
        assert first.database == second.database == database
        assert first.epoch == second.epoch
        assert first.records_replayed == second.records_replayed
        assert first.records_skipped == second.records_skipped

    def test_checkpoint_plus_tail_equals_full_log_replay(self, tmp_path):
        def run(directory, checkpoint_midway):
            rng = random.Random(7)
            database = random_database(rng)
            wal = open_durable(database, directory)
            for index, delta in enumerate(random_update_stream(rng, database, 12)):
                database.apply_delta(delta)
                if checkpoint_midway and index == 5:
                    write_checkpoint(
                        database.snapshot(), checkpoint_path(directory), wal=wal
                    )
            wal.close()
            database.detach_wal()
            return database

        full = run(tmp_path / "full", checkpoint_midway=False)
        compacted = run(tmp_path / "compacted", checkpoint_midway=True)
        assert full == compacted  # identical history, identical state
        from_full = recover(tmp_path / "full")
        from_compacted = recover(tmp_path / "compacted")
        assert from_full.database == from_compacted.database == full
        assert from_full.epoch == from_compacted.epoch
        # ...but the compacted directory replayed only the tail.
        assert from_compacted.checkpoint_epoch > from_full.checkpoint_epoch
        assert from_compacted.records_replayed < from_full.records_replayed

    def test_recovered_database_is_a_full_citizen(self, tmp_path):
        database, _ = _durable_history(tmp_path, seed=3, length=8)
        recovered = recover(tmp_path).database
        assert recovered == database
        # The recovered database continues the durable history: re-attach,
        # commit more, and the *next* recovery reflects the extension.
        wal = open_durable(recovered, tmp_path)
        stream = random_update_stream(random.Random(99), recovered, 5)
        for delta in stream:
            recovered.apply_delta(delta)
            database.apply_delta(delta)  # the in-memory reference keeps up
        assert recovered == database
        assert recovered.epoch == database.epoch
        # Snapshots pin on the recovered lineage like on any database.
        pinned = recovered.snapshot()
        assert pinned.epoch == recovered.epoch
        wal.close()
        recovered.detach_wal()
        final = recover(tmp_path)
        assert final.database == recovered
        assert final.epoch == recovered.epoch


# ---------------------------------------------------------------------------
# 4. Crash chaos: every boundary, every torn byte, every fault point
# ---------------------------------------------------------------------------
class TestTornWriteChaos:
    def test_recovery_at_every_record_boundary(self, tmp_path):
        source = tmp_path / "live"
        database, archives = _durable_history(source, seed=1, length=10)
        checkpoint_epoch = read_checkpoint(checkpoint_path(source))[1]
        boundaries = record_boundaries(wal_path(source))
        assert len(boundaries) >= 3  # the header plus at least two records
        for index, length in enumerate(boundaries):
            crash = _crashed_directory(source, length, tmp_path / f"crash-{index}")
            result = recover(crash)
            expected = checkpoint_epoch + index
            assert result.epoch == expected
            assert result.torn_tail_bytes == 0
            assert result.database == archives[expected]
        assert recover(source).database == database

    def test_torn_final_record_never_resurrects(self, tmp_path):
        source = tmp_path / "live"
        database, archives = _durable_history(source, seed=2, length=8)
        checkpoint_epoch = read_checkpoint(checkpoint_path(source))[1]
        boundaries = record_boundaries(wal_path(source))
        expected = checkpoint_epoch + len(boundaries) - 2  # all but the final record
        torn = torn_tail_lengths(wal_path(source))
        assert torn  # the final record spans more than one byte
        for offset, length in enumerate(torn):
            crash = _crashed_directory(source, length, tmp_path / f"torn-{offset}")
            result = recover(crash)
            assert result.torn_tail_bytes > 0
            assert result.epoch == expected
            assert result.database == archives[expected]

    @pytest.mark.durability
    @pytest.mark.parametrize("seed", range(3))
    def test_every_byte_prefix_recovers_to_an_acked_epoch(self, tmp_path, seed):
        """The exhaustive crash sweep: cut the log after *every* byte.

        Whatever prefix of the log the OS managed to persist, recovery must
        land on the epoch of the longest well-formed record prefix — the
        acked history — and reproduce its archived state exactly.
        """
        source = tmp_path / "live"
        database, archives = _durable_history(source, seed=seed, length=10)
        checkpoint_epoch = read_checkpoint(checkpoint_path(source))[1]
        log = wal_path(source)
        boundaries = record_boundaries(log)
        crash = tmp_path / "crash"
        crash.mkdir()
        shutil.copyfile(checkpoint_path(source), checkpoint_path(crash))
        for length in range(log.stat().st_size + 1):
            truncated_copy(log, length, wal_path(crash))
            result = recover(crash)
            prefix = bisect_right(boundaries, length) - 1
            expected = checkpoint_epoch + max(prefix, 0)
            assert result.epoch == expected, f"cut at byte {length}"
            assert result.database == archives[expected], f"cut at byte {length}"


class TestFaultInjection:
    def test_failed_append_leaves_memory_and_log_unchanged(self, tmp_path):
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        database.apply_delta(_insert(1))
        before = database.copy()
        plan = FaultPlan({"wal.append": FaultRule(at={0})})
        with chaos(plan):
            with pytest.raises(InjectedFault):
                database.apply_delta(_insert(2))
        # The commit unwound: no trace in memory...
        assert database == before
        assert database.epoch == 1
        # ...and none in the log.
        assert len(wal.records()) == 1
        # A clean retry commits normally and the history recovers whole.
        database.apply_delta(_insert(2))
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.epoch == 2
        assert result.database == database

    @pytest.mark.parametrize("group_commit", [True, False], ids=["group", "naive"])
    def test_failed_fsync_loses_the_ack_not_the_commit(self, tmp_path, group_commit):
        database = _fresh_database()
        wal = open_durable(database, tmp_path, group_commit=group_commit)
        plan = FaultPlan({"wal.fsync": FaultRule(at={0})})
        with chaos(plan):
            with pytest.raises(InjectedFault):
                database.apply_delta(_insert(1))
            # The commit is applied and its record flushed — only the
            # durability ack was lost.
            assert database.epoch == 1
            assert len(wal.records()) == 1
            # Retrying the identical delta is a natural no-op: every
            # modification is already applied, so nothing new is logged.
            applied = database.apply_delta(_insert(1))
            assert applied.effective == ()
            assert len(wal.records()) == 1
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.epoch == 1
        assert result.database == database

    def test_failed_checkpoint_leaves_the_old_image_intact(self, tmp_path):
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        for iid in range(3):
            database.apply_delta(_insert(iid))
        image_before = checkpoint_path(tmp_path).read_bytes()
        plan = FaultPlan({"checkpoint.write": FaultRule(at={0})})
        with chaos(plan):
            with pytest.raises(InjectedFault):
                write_checkpoint(
                    database.snapshot(), checkpoint_path(tmp_path), wal=wal
                )
        # The fault fired before any byte was written: old image intact,
        # log untouched, recovery unaffected.
        assert checkpoint_path(tmp_path).read_bytes() == image_before
        assert len(wal.records()) == 3
        assert recover(tmp_path).database == database
        # The retried checkpoint succeeds and compacts the log.
        assert write_checkpoint(
            database.snapshot(), checkpoint_path(tmp_path), wal=wal
        ) == 3
        assert wal.records() == ()
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.checkpoint_epoch == 3
        assert result.database == database

    @pytest.mark.parametrize("unwind_at", [0, 1])
    def test_double_fault_poisons_memory_but_recovery_holds(self, tmp_path, unwind_at):
        """A crash inside the crash handler: the worst in-memory outcome.

        ``commit.modification`` fails a commit mid-application, and
        ``commit.unwind`` then fails the rollback itself (at each possible
        reversal index), leaving the in-memory database poisoned
        mid-rollback.  The WAL must not care: un-acked work never reached
        the log, so recovery still lands on the last acked epoch.
        """
        database = _fresh_database()
        wal = open_durable(database, tmp_path)
        database.apply_delta(_insert(1))
        archive = database.copy()
        acked = database.epoch
        plan = FaultPlan(
            {
                "commit.modification": FaultRule(at={2}),
                "commit.unwind": FaultRule(at={unwind_at}),
            }
        )
        poison = [
            ("insert", "items", (2, "b", 20)),
            ("insert", "items", (3, "c", 30)),
            ("insert", "items", (4, "d", 40)),
        ]
        with chaos(plan):
            with pytest.raises(InjectedFault):
                database.apply_delta(poison)
        # Memory is provably poisoned: part of the failed delta survives.
        assert database != archive
        # But the log never saw the un-acked commit...
        assert len(wal.records()) == 1
        wal.close()
        # ...so recovery lands exactly on the last acked epoch.
        result = recover(tmp_path)
        assert result.epoch == acked
        assert result.database == archive

    @pytest.mark.durability
    @pytest.mark.parametrize("seed", range(6))
    def test_chaotic_commit_stream_always_recovers_the_live_state(
        self, tmp_path, seed
    ):
        """Random faults across the whole commit path, differentially checked.

        Faulted appends unwind (no memory, no log), faulted fsyncs lose
        only acks (memory and log both keep the commit), faulted
        modifications unwind cleanly — so at every instant the live
        database equals what the artifacts recover to.
        """
        rng = random.Random(seed)
        database = random_database(rng)
        wal = open_durable(database, tmp_path)
        plan = FaultPlan(
            {
                "wal.append": FaultRule(rate=0.15),
                "wal.fsync": FaultRule(rate=0.1),
                "commit.modification": FaultRule(rate=0.1),
            },
            seed=seed,
        )
        crashes = 0
        with chaos(plan):
            for delta in random_update_stream(rng, database, 40):
                try:
                    database.apply_delta(delta)
                except InjectedFault:
                    crashes += 1
        assert crashes > 0  # the schedule actually exercised the fault paths
        wal.close()
        database.detach_wal()
        result = recover(tmp_path)
        assert result.database == database
        assert result.epoch == database.epoch


# ---------------------------------------------------------------------------
# 5. Group commit under real concurrency
# ---------------------------------------------------------------------------
class TestGroupCommitConcurrency:
    def _run_concurrent_commits(self, directory, num_threads, per_thread, group_commit):
        database = Database()
        database.create_relation("events", ("thread", "sequence"))
        wal = open_durable(database, directory, group_commit=group_commit)
        barrier = threading.Barrier(num_threads)
        errors = []

        def _commit_stream(thread_index):
            try:
                barrier.wait()
                for sequence in range(per_thread):
                    database.apply_delta(
                        [("insert", "events", (thread_index, sequence))]
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=_commit_stream, args=(index,))
            for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wal.close()
        database.detach_wal()
        assert not errors
        return database

    @pytest.mark.parametrize("group_commit", [True, False], ids=["group", "naive"])
    def test_concurrent_committers_all_ack_and_recover(self, tmp_path, group_commit):
        num_threads, per_thread = 8, 5
        registry = MetricsRegistry()
        with use_metrics(registry):
            database = self._run_concurrent_commits(
                tmp_path, num_threads, per_thread, group_commit
            )
        total = num_threads * per_thread
        assert database.epoch == total
        assert registry.counter("wal.records.appended") == total
        fsyncs = registry.counter("wal.fsyncs")
        if group_commit:
            assert 1 <= fsyncs <= total
            batch = registry.snapshot().get("wal.group_commit.batch_size")
            assert batch is not None and batch.sum == total
        else:
            # Naive mode pays one fsync per commit, by construction.
            assert fsyncs == total
        result = recover(tmp_path)
        assert result.epoch == total
        assert result.database == database

    @pytest.mark.durability
    @pytest.mark.parametrize("group_commit", [True, False], ids=["group", "naive"])
    def test_scaled_concurrent_commit_stress(self, tmp_path, group_commit):
        num_threads, per_thread = 16, 25
        database = self._run_concurrent_commits(
            tmp_path, num_threads, per_thread, group_commit
        )
        total = num_threads * per_thread
        assert database.epoch == total
        result = recover(tmp_path)
        assert result.epoch == total
        assert result.database == database


# ---------------------------------------------------------------------------
# 6. The serving layer's durability knob
# ---------------------------------------------------------------------------
class TestServingDurability:
    TRACE_SHAPE = dict(num_items=20, num_rounds=4, batch_size=6, seed=11)

    def test_durable_server_matches_plain_and_recovers(self, tmp_path):
        durable_trace = build_trace(**self.TRACE_SHAPE)
        plain_trace = build_trace(**self.TRACE_SHAPE)
        durable = SnapshotServer(
            durable_trace.problem,
            durability=DurabilityConfig(tmp_path, checkpoint_every=2),
        )
        plain = SnapshotServer(plain_trace.problem)
        for (delta, requests), (delta2, requests2) in zip(
            durable_trace.rounds, plain_trace.rounds
        ):
            if delta:
                durable.apply(list(delta))
                plain.apply(list(delta2))
            ours = durable.serve_batch(requests)
            theirs = plain.serve_batch(requests2)
            assert [r.answer for r in ours] == [r.answer for r in theirs]
            assert [r.epoch for r in ours] == [r.epoch for r in theirs]
        # Durability changed the cost of writes, never their outcome...
        assert durable.database == plain.database
        assert durable.epoch == plain.epoch
        durable.close()
        # ...and the directory recovers the exact served state.
        result = recover(tmp_path)
        assert result.epoch == durable.epoch
        assert result.database == durable.database
        # checkpoint_every kept the tail short: the last image is recent.
        assert result.checkpoint_epoch > 0

    def test_durable_server_refuses_a_stale_directory(self, tmp_path):
        # Serving a *fresh* database over a directory already durable
        # through a later epoch would reuse its epochs and let the next
        # recovery silently skip the new commits; construction must refuse.
        trace = build_trace(**self.TRACE_SHAPE)
        server = SnapshotServer(trace.problem, durability=DurabilityConfig(tmp_path))
        for delta, _ in trace.rounds:
            if delta:
                server.apply(list(delta))
        committed = server.epoch
        server.close()
        assert durable_epoch(tmp_path) == committed > 0
        fresh = build_trace(**self.TRACE_SHAPE)
        with pytest.raises(CorruptRecordError):
            SnapshotServer(fresh.problem, durability=DurabilityConfig(tmp_path))
        # The refusal changed nothing: the directory still recovers whole.
        assert recover(tmp_path).epoch == committed

    def test_background_checkpoint_failure_surfaces_on_close(self, tmp_path):
        # Auto-checkpoints run on a background thread; a failure there must
        # not vanish (the log would grow unboundedly with no one noticing).
        # close() joins the thread and re-raises — while the durable state
        # stays consistent: old image intact, WAL untruncated.
        trace = build_trace(**self.TRACE_SHAPE)
        server = SnapshotServer(
            trace.problem,
            durability=DurabilityConfig(tmp_path, checkpoint_every=1),
        )
        plan = FaultPlan({"checkpoint.write": FaultRule(at={0})})
        with chaos(plan):
            for delta, _ in trace.rounds:
                if delta:
                    server.apply(list(delta))
            with pytest.raises(InjectedFault):
                server.close()
        result = recover(tmp_path)
        assert result.epoch == server.epoch
        assert result.database == server.database

    def test_background_checkpoint_failure_is_counted_when_it_happens(self, tmp_path):
        # The failure is visible in the metrics as soon as the background
        # checkpoint dies, not only when close() re-raises it at shutdown.
        trace = build_trace(**self.TRACE_SHAPE)
        server = SnapshotServer(
            trace.problem,
            durability=DurabilityConfig(tmp_path, checkpoint_every=1),
        )
        delta = next(delta for delta, _ in trace.rounds if delta)
        registry = MetricsRegistry()
        plan = FaultPlan({"checkpoint.write": FaultRule(at={0})})
        with use_metrics(registry), chaos(plan):
            server.apply(list(delta))
            server._checkpoint_thread.join()  # the one auto-checkpoint
            assert registry.counter("checkpoint.failures") == 1
            assert registry.counter("checkpoint.written") == 0
            with pytest.raises(InjectedFault):
                server.close()

    def test_checkpoint_is_a_noop_without_durability(self):
        trace = build_trace(num_items=10, num_rounds=1, batch_size=2, seed=1)
        server = SnapshotServer(trace.problem)
        assert server.checkpoint() is None
        server.close()  # no WAL attached: close is a harmless no-op

    def test_durability_config_validates(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(tmp_path, checkpoint_every=0)
        config = DurabilityConfig(str(tmp_path))
        assert config.directory == Path(tmp_path)
        assert config.group_commit is True
