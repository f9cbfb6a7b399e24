"""Round-trip and torn-tail properties of the WAL codec.

The durability contract (DESIGN.md §10) leans on two codec facts:

* record -> bytes -> record is the **identity** for every field value a
  handler can produce (floats round-trip exactly via JSON repr, bytes
  via base64) — pinned here with hypothesis over every record type;
* a WAL cut at *any* byte (crash mid-append) decodes to a clean prefix
  of the original records and nothing else — no exception, no partial
  record, no resynchronisation past a corrupt length field.

Derandomized: DST treats the test suite itself as a pure function of
the tree, so hypothesis draws from a fixed seed.
"""

from __future__ import annotations

import struct
import zlib

from hypothesis import given, settings, strategies as st

from repro.persist import (
    CODEC_VERSION,
    AdmitRecord,
    BatchRecord,
    CodecError,
    EmptyBatchRecord,
    GrantRecord,
    LocateRecord,
    ReapRecord,
    WriteAheadLog,
    decode_wal,
    encode_record,
)
from repro.persist.codec import decode_body, iter_frames

finite = st.floats(allow_nan=False, allow_infinity=False)
opt_float = st.none() | finite
opt_int = st.none() | st.integers(-(2**40), 2**40)
ident = st.text(max_size=20)

RECORD_STRATEGIES = st.one_of(
    st.builds(
        GrantRecord,
        t=finite,
        client_id=ident,
        request_id=ident,
        position_x=opt_float,
        position_y=opt_float,
    ),
    st.builds(AdmitRecord, t=finite, batch_id=ident, task_id=opt_int, seq=opt_int),
    st.builds(
        BatchRecord,
        arrived_t=finite,
        done_t=finite,
        client_id=ident,
        task_id=opt_int,
        batch_id=ident,
        photos_blob=st.binary(max_size=200),
        seq=opt_int,
        wait_s=opt_float,
        service_s=opt_float,
    ),
    st.builds(
        EmptyBatchRecord, t=finite, client_id=ident, task_id=opt_int, batch_id=ident
    ),
    st.builds(ReapRecord, t=finite, task_id=st.integers(0, 2**31)),
    st.builds(LocateRecord, t=finite, query_count=st.integers(0, 2**40)),
)


class TestRoundTrip:
    @settings(deadline=None, max_examples=120, derandomize=True)
    @given(RECORD_STRATEGIES)
    def test_single_record_identity(self, record):
        buf = encode_record(record)
        decoded, consumed, torn = decode_wal(buf)
        assert decoded == [record]
        assert consumed == len(buf)
        assert not torn

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.lists(RECORD_STRATEGIES, max_size=8))
    def test_journal_identity(self, records):
        buf = b"".join(encode_record(r) for r in records)
        decoded, consumed, torn = decode_wal(buf)
        assert decoded == records
        assert consumed == len(buf)
        assert not torn

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.lists(RECORD_STRATEGIES, min_size=1, max_size=6))
    def test_wal_object_round_trip(self, records):
        wal = WriteAheadLog()
        for record in records:
            wal.append(record)
        assert wal.position == len(records)
        rebuilt, report = WriteAheadLog.from_bytes(wal.to_bytes())
        assert not report
        assert not report.torn
        assert report.records == len(records)
        assert report.tear_offset is None
        assert report.dropped_records == 0
        assert report.clean_bytes == report.total_bytes == wal.size_bytes
        assert rebuilt.records() == records
        # Positions slice mid-journal.
        assert rebuilt.records(start=1) == records[1:]


class TestTornTail:
    def _journal(self):
        records = [
            GrantRecord(t=1.5, client_id="c-0", request_id="r1",
                        position_x=2.25, position_y=-3.5),
            AdmitRecord(t=2.0, batch_id="b1", task_id=7, seq=3),
            BatchRecord(arrived_t=2.0, done_t=9.5, client_id="c-0", task_id=7,
                        batch_id="b1", photos_blob=b"\x00\xffblob", seq=3,
                        wait_s=0.0, service_s=7.5),
            ReapRecord(t=700.0, task_id=7),
        ]
        return records, b"".join(encode_record(r) for r in records)

    def test_truncation_at_every_byte(self):
        """Any byte prefix decodes to a record prefix — crash anywhere."""
        records, buf = self._journal()
        boundaries = [end for end, _ in iter_frames(buf)]
        for cut in range(len(buf) + 1):
            decoded, consumed, torn = decode_wal(buf[:cut])
            n_clean = sum(1 for end in boundaries if end <= cut)
            assert decoded == records[:n_clean], cut
            assert consumed == (boundaries[n_clean - 1] if n_clean else 0)
            assert torn == (consumed != cut)

    def test_truncated_wal_accepts_new_appends(self):
        """Recovery trims the tear; the journal must stay appendable."""
        records, buf = self._journal()
        wal, report = WriteAheadLog.from_bytes(buf[:-3])
        assert report
        assert report.torn
        assert report.records == len(records) - 1
        assert report.tear_offset == report.clean_bytes < report.total_bytes == len(buf) - 3
        # The tear destroyed (at least) the final record.
        assert report.dropped_records >= 1
        assert wal.position == len(records) - 1
        wal.append(LocateRecord(t=701.0, query_count=9))
        assert wal.records() == records[:-1] + [LocateRecord(t=701.0, query_count=9)]

    def test_corrupt_body_stops_the_decode(self):
        """A CRC mismatch ends the log — nothing after it is trusted."""
        records, buf = self._journal()
        boundaries = [0] + [end for end, _ in iter_frames(buf)]
        header = struct.Struct("<2sBII")
        for i in range(len(records)):
            corrupt = bytearray(buf)
            corrupt[boundaries[i] + header.size] ^= 0x5A  # first body byte
            decoded, _, torn = decode_wal(bytes(corrupt))
            assert decoded == records[:i]
            assert torn

    def test_future_codec_version_is_the_end_of_the_log(self):
        records, buf = self._journal()
        body = b"{}"
        alien = struct.pack(
            "<2sBII", b"RW", CODEC_VERSION + 1, len(body), zlib.crc32(body)
        ) + body
        decoded, _, torn = decode_wal(buf + alien)
        assert decoded == records
        assert torn

    def test_unknown_kind_and_field_mismatch_raise(self):
        try:
            decode_body(b'{"f":{},"kind":"warp"}')
        except CodecError:
            pass
        else:  # pragma: no cover
            raise AssertionError("unknown kind accepted")
        try:
            decode_body(b'{"f":{"t":1.0},"kind":"reap"}')  # task_id missing
        except CodecError:
            pass
        else:  # pragma: no cover
            raise AssertionError("field mismatch accepted")
