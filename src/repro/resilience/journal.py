"""Append-only, CRC-checked record journal (the checkpoint substrate).

A journal is a text file of newline-terminated records.  Each record is
one JSON object ``{"t": <type>, "p": <payload>, "c": <crc>}`` where
``crc`` is the CRC-32 of the canonical JSON encoding of ``[t, p]``
(sorted keys, compact separators).  The encoding is deliberately plain:
it survives partial writes (a process killed mid-``write`` leaves a
torn final line that fails to parse and is discarded on load), detects
bit rot and truncation-in-the-middle via the per-record checksum, and
stays greppable for post-mortems.

Durability contract: every record is flushed to the OS on append;
records written with ``sync=True`` (checkpoints) are additionally
``fsync``'d, so a checkpoint acknowledged to the caller survives even
a machine crash.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from typing import Any, List, Optional, Tuple

from ..errors import CheckpointError
from . import faults


def _canonical(record_type: str, payload: Any) -> str:
    return json.dumps(
        [record_type, payload], sort_keys=True, separators=(",", ":")
    )


def record_crc(record_type: str, payload: Any) -> int:
    """CRC-32 of a record's canonical encoding."""
    return zlib.crc32(_canonical(record_type, payload).encode("utf-8"))


def encode_record(record_type: str, payload: Any) -> str:
    """One journal line (newline-terminated) for ``(type, payload)``."""
    document = {
        "t": record_type,
        "p": payload,
        "c": record_crc(record_type, payload),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


class JournalWriter:
    """Appends CRC'd records to a journal file.

    ``truncate_to`` — byte offset to truncate the file to before the
    first append (used on resume to chop a torn final line so new
    records start on a clean line boundary).
    """

    def __init__(
        self,
        path: str,
        truncate_to: Optional[int] = None,
        fresh: bool = False,
    ) -> None:
        self.path = path
        mode = "w" if fresh else "a"
        self._handle = open(path, mode, encoding="utf-8")
        if truncate_to is not None and not fresh:
            self._handle.truncate(truncate_to)
            self._handle.seek(truncate_to)

    def append(self, record_type: str, payload: Any, sync: bool = False) -> None:
        """Append one record; ``sync=True`` forces it to stable storage.

        The ``"disk"`` fault seam fires per append: ``torn`` writes half
        the record and aborts (the torn final line is discarded on the
        next load), ``enospc`` fails loudly *before* any byte lands (a
        failed write may not leave a half-record that a later append
        would silently follow), ``fsync_fail`` models a storage stack
        whose durability barrier lies — surfaced as
        :class:`CheckpointError` so the caller never believes an
        unsynced checkpoint is stable.
        """
        if self._handle is None:
            raise CheckpointError(f"journal {self.path!r} already closed")
        line = encode_record(record_type, payload)
        fault = faults.maybe_action(
            "disk", path=self.path, record_type=record_type
        )
        if fault == "torn":
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            raise faults.SimulatedCrash(
                f"injected torn write to {self.path!r} "
                f"(record {record_type!r})"
            )
        if fault == "enospc":
            raise CheckpointError(
                f"cannot append to journal {self.path!r}: "
                f"[Errno {errno.ENOSPC}] injected ENOSPC "
                f"(no space left on device)"
            )
        self._handle.write(line)
        self._handle.flush()
        if sync:
            if fault == "fsync_fail":
                raise CheckpointError(
                    f"fsync of journal {self.path!r} failed (injected); "
                    f"the record may not be durable"
                )
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str) -> Tuple[List[Tuple[str, Any]], int]:
    """All valid records of a journal plus the clean byte length.

    Returns ``(records, valid_length)`` where ``records`` is the list
    of ``(type, payload)`` pairs and ``valid_length`` is the byte
    offset up to which the file is well-formed (append new records
    there).  A torn *final* line — the signature of a killed writer —
    is silently dropped; a malformed or checksum-failing record that is
    *not* the final line means the journal was tampered with or the
    storage corrupted it, and raises :class:`CheckpointError`.
    """
    records: List[Tuple[str, Any]] = []
    valid_length = 0
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read journal {path!r}: {error}") from None
    offset = 0
    for line in data.splitlines(keepends=True):
        end = offset + len(line)
        parsed = _parse_line(line)
        if parsed is None:
            if end == len(data):
                break  # torn final line (killed writer) — discard
            raise CheckpointError(
                f"journal {path!r} is corrupt at byte {offset} "
                f"(bad record before end of file)"
            )
        records.append(parsed)
        valid_length = end
        offset = end
    return records, valid_length


def _parse_line(line: bytes) -> Optional[Tuple[str, Any]]:
    """``(type, payload)`` for a valid journal line, else ``None``.

    :func:`encode_record` writes ``{"c":crc,"p":payload,"t":type}``
    (sorted keys), so the raw bytes between ``,"p":`` and the last
    ``,"t":`` are the payload's canonical text and the CRC is checked
    over those bytes as written, without re-serialising the payload.
    A type is a JSON string, in which ``,"t":`` cannot occur.
    """
    if not line.endswith(b"\n"):
        return None
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    record_type = document.get("t")
    if not isinstance(record_type, str) or "p" not in document:
        return None
    start = line.find(b',"p":') + 5
    end = line.rfind(b',"t":')
    if start < 5 or end < start or not line.endswith(b"}\n"):
        return None
    canonical = b"[" + line[end + 5:-2] + b"," + line[start:end] + b"]"
    if zlib.crc32(canonical) != document.get("c"):
        return None
    return record_type, document["p"]
