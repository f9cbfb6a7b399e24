"""The write-ahead log: an append-only byte journal of commit records.

The WAL is the durable half of the durability subsystem's media pair
(the other being :mod:`repro.persist.snapshot` checkpoints). Appends are
framed through the versioned codec and counted as *flushed* — the
in-memory journal models frame-granular durability, so crash injection
can expose any byte prefix of it (including a torn final frame) as what
"survived" the crash.

Positions are **record counts**, not byte offsets: a snapshot remembers
how many records preceded it, and recovery replays ``records(start)``
from there. Decoding always goes back through the codec bytes — every
recovery therefore exercises the full encode/decode round-trip that the
hypothesis properties pin.

Loading a journal returns a :class:`WalLoadReport` alongside the WAL:
whether the tail was torn, where the tear sits, and a lower-bound
estimate of the records lost past it (counted on the
``repro.persist.wal.torn_records`` counter). The report is truthy
exactly when the tail was torn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .codec import decode_wal, encode_record, estimate_torn_records, iter_frames

__all__ = ["WalLoadReport", "WriteAheadLog"]


@dataclass(frozen=True)
class WalLoadReport:
    """What loading a journal found: clean prefix, tear, loss estimate.

    ``dropped_records`` is exact when the damage was applied in-process
    (crash injection knows what it cut) and a lower-bound header-scan
    estimate when the bytes arrived from outside (``from_bytes``/
    ``load``) — a corrupt length field makes exact re-framing of the
    garbage region impossible.
    """

    torn: bool
    clean_bytes: int
    total_bytes: int
    records: int
    tear_offset: Optional[int] = None
    dropped_records: int = 0

    def __bool__(self) -> bool:
        return self.torn


class WriteAheadLog:
    """Append-only record journal over the versioned codec."""

    def __init__(self, metrics=None):
        if metrics is None:
            metrics = MetricsRegistry()
        self._buf = bytearray()
        self._count = 0
        self._m_appends = metrics.counter("repro.persist.wal.appends")
        self._m_bytes = metrics.counter("repro.persist.wal.bytes")
        #: fsync-equivalent: every framed append is made durable before
        #: the handler's ACK leaves (group commit would batch these).
        self._m_flushes = metrics.counter("repro.persist.wal.flushes")
        #: records lost to torn tails / dropped flushes (load + injection).
        self._m_torn = metrics.counter("repro.persist.wal.torn_records")

    @property
    def position(self) -> int:
        """Number of records appended so far (the next record's index)."""
        return self._count

    @property
    def size_bytes(self) -> int:
        return len(self._buf)

    def append(self, record: object) -> int:
        """Append one record; returns its position (pre-append count)."""
        frame = encode_record(record)
        position = self._count
        self._buf.extend(frame)
        self._count += 1
        self._m_appends.inc()
        self._m_bytes.inc(len(frame))
        self._m_flushes.inc()
        return position

    def records(self, start: int = 0) -> List[object]:
        """Decode records ``start..`` from the journal bytes.

        Decoding from bytes (rather than keeping the record objects) is
        deliberate: recovery consumes exactly what a process restart
        would read back, codec and all.
        """
        # A torn buffer still yields its clean prefix.
        decoded, _, _ = decode_wal(bytes(self._buf))
        return decoded[start:]

    def frame_boundaries(self) -> List[int]:
        """End offset of each clean frame (for crash-injection cuts)."""
        return [end for end, _ in iter_frames(bytes(self._buf))]

    def to_bytes(self) -> bytes:
        """The raw journal (what a crash leaves on the durable medium)."""
        return bytes(self._buf)

    # -- crash injection ----------------------------------------------------

    def damage_truncate(self, cut_bytes: int) -> int:
        """Expose only the first ``cut_bytes`` of the journal (torn tail).

        Keeps the clean frame prefix of the cut buffer; returns the
        exact number of whole records lost. Models a crash that caught
        the medium mid-write.
        """
        buf = bytes(self._buf[:cut_bytes])
        records, clean, _ = decode_wal(buf)
        dropped = self._count - len(records)
        self._buf = bytearray(buf[:clean])
        self._count = len(records)
        if dropped > 0:
            self._m_torn.inc(dropped)
        return dropped

    def damage_drop_records(self, n: int) -> int:
        """Drop the last ``n`` whole records (lost flushes, clean cut).

        The nastier failure mode: the journal still decodes cleanly, so
        only digest/ledger machinery above can notice anything is gone.
        Returns the number of records actually dropped.
        """
        keep = max(0, self._count - n)
        if keep == self._count:
            return 0
        boundaries = self.frame_boundaries()
        cut = boundaries[keep - 1] if keep else 0
        dropped = self._count - keep
        self._buf = bytearray(self._buf[:cut])
        self._count = keep
        self._m_torn.inc(dropped)
        return dropped

    # -- serialisation ------------------------------------------------------

    @classmethod
    def from_bytes(
        cls, buf: bytes, metrics=None
    ) -> Tuple["WriteAheadLog", WalLoadReport]:
        """Rebuild a WAL from raw bytes, dropping any torn tail.

        Returns ``(wal, report)``; the rebuilt journal holds only the
        clean prefix, so subsequent appends extend a valid log. The
        report (truthy iff torn) carries the tear offset and a
        lower-bound estimate of the records lost past it.
        """
        records, clean, torn = decode_wal(buf)
        wal = cls(metrics=metrics)
        wal._buf.extend(buf[:clean])
        wal._count = len(records)
        dropped = estimate_torn_records(buf, clean) if torn else 0
        if dropped > 0:
            wal._m_torn.inc(dropped)
        report = WalLoadReport(
            torn=torn,
            clean_bytes=clean,
            total_bytes=len(buf),
            records=len(records),
            tear_offset=clean if torn else None,
            dropped_records=dropped,
        )
        return wal, report

    def save(self, path) -> int:
        """Write the journal to ``path``; returns bytes written."""
        data = self.to_bytes()
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def load(
        cls, path, metrics=None
    ) -> Tuple["WriteAheadLog", WalLoadReport]:
        """Read a journal file back (torn-tail tolerant)."""
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read(), metrics=metrics)
