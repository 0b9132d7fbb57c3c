"""Tests for the virtual file system (crash semantics) and WAL format."""

import pytest

from repro.errors import Corruption
from repro.sim import OPTANE_905P, Simulator, StorageDevice
from repro.storage.vfs import DiskImage
from repro.storage.wal import (
    RECORD_STANDALONE,
    RECORD_TXN,
    LogReader,
    LogWriter,
    encode_record,
)


def make_disk():
    sim = Simulator()
    device = StorageDevice(sim, OPTANE_905P)
    return sim, DiskImage(sim, device)


def run(sim, gen):
    results = []

    def wrapper():
        value = yield from gen
        results.append(value)

    sim.spawn(wrapper())
    sim.run()
    return results[0] if results else None


class TestVirtualFile:
    def test_append_is_buffered_until_flush(self):
        sim, disk = make_disk()
        f = disk.open_file("wal-1")
        f.append(b"hello")
        assert f.size == 5
        assert f.pending_bytes == 5
        assert f.durable_content() == b""
        run(sim, f.flush())
        assert f.pending_bytes == 0
        assert f.durable_content() == b"hello"

    def test_flush_charges_device_write(self):
        sim, disk = make_disk()
        f = disk.open_file("wal-1")
        f.append(b"x" * 1000)
        run(sim, f.flush(category="wal"))
        assert disk.device.bytes_by_category().get("wal", 0.0) == 1000

    def test_crash_drops_unflushed_tail(self):
        sim, disk = make_disk()
        f = disk.open_file("wal-1")
        f.append(b"durable")
        run(sim, f.flush())
        f.append(b"volatile")
        disk.crash()
        assert bytes(f.content) == b"durable"

    def test_read_returns_data_and_charges_io(self):
        sim, disk = make_disk()
        f = disk.open_file("data")
        f.append(b"0123456789")
        data = run(sim, f.read(2, 4))
        assert data == b"2345"
        assert disk.device.bytes_by_kind().get("read", 0.0) == 4

    def test_read_all(self):
        sim, disk = make_disk()
        f = disk.open_file("data")
        f.append(b"abcdef")
        assert run(sim, f.read_all()) == b"abcdef"

    def test_open_missing_without_create_raises(self):
        _, disk = make_disk()
        with pytest.raises(FileNotFoundError):
            disk.open_file("nope", create=False)

    def test_list_and_delete(self):
        _, disk = make_disk()
        disk.open_file("wal-1")
        disk.open_file("wal-2")
        disk.open_file("manifest")
        assert disk.list_files("wal-") == ["wal-1", "wal-2"]
        disk.delete_file("wal-1")
        assert disk.list_files("wal-") == ["wal-2"]


class TestBlobs:
    def test_uncommitted_blob_lost_on_crash(self):
        _, disk = make_disk()
        disk.put_blob("sst-1", object(), 1000)
        assert not disk.blob_exists("sst-1")
        disk.crash()
        with pytest.raises(KeyError):
            disk.get_blob("sst-1")

    def test_committed_blob_survives_crash(self):
        _, disk = make_disk()
        marker = object()
        disk.put_blob("sst-1", marker, 1000)
        disk.commit_blob("sst-1")
        disk.crash()
        assert disk.blob_exists("sst-1")
        assert disk.get_blob("sst-1") is marker
        assert disk.blob_bytes() == 1000


class TestWal:
    def test_roundtrip_records(self):
        sim, disk = make_disk()
        f = disk.open_file("wal")
        writer = LogWriter(f)
        writer.append(b"first", RECORD_STANDALONE, gsn=1)
        writer.append(b"second", RECORD_TXN, gsn=2)
        records = list(LogReader(f.content))
        assert [(r.rtype, r.gsn, r.payload) for r in records] == [
            (RECORD_STANDALONE, 1, b"first"),
            (RECORD_TXN, 2, b"second"),
        ]

    def test_append_returns_encoded_size(self):
        sim, disk = make_disk()
        writer = LogWriter(disk.open_file("wal"))
        n = writer.append(b"payload")
        assert n == len(encode_record(b"payload"))
        assert writer.pending_bytes == n

    def test_reader_stops_at_truncated_tail(self):
        data = encode_record(b"good") + encode_record(b"lost-tail")[:-3]
        reader = LogReader(data)
        records = list(reader)
        assert [r.payload for r in records] == [b"good"]
        assert reader.truncated

    def test_reader_raises_corruption_on_bad_crc(self):
        # A CRC mismatch on a fully-present record is real damage, not a
        # crash tail (truncation can only remove a suffix): it must raise.
        data = bytearray(encode_record(b"aaaa") + encode_record(b"bbbb"))
        data[-1] ^= 0xFF  # corrupt last payload byte
        reader = LogReader(data, source="wal")
        decoded = []
        with pytest.raises(Corruption) as excinfo:
            for record in reader:
                decoded.append(record.payload)
        assert decoded == [b"aaaa"]
        assert not reader.truncated
        assert excinfo.value.site == "wal"

    def test_crash_then_replay_recovers_only_durable_records(self):
        sim, disk = make_disk()
        f = disk.open_file("wal")
        writer = LogWriter(f)
        writer.append(b"one")
        run(sim, writer.flush())
        writer.append(b"two")  # never flushed
        disk.crash()
        records = list(LogReader(f.content))
        assert [r.payload for r in records] == [b"one"]

    def test_empty_log(self):
        reader = LogReader(b"")
        assert list(reader) == []
        assert not reader.truncated
