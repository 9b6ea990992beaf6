"""The append-only, CRC-checksummed warm-start segment store.

Layout (see ``docs/formats.md``)::

    <root>/
      ns-<namespace digest>/        one directory per spec structure
        seg-<pid>-<n>.jsonl         append-only segments
        seg-compact-<n>.jsonl       compaction output

Every segment line is a :mod:`repro.resilience.journal` record —
``{"t": type, "p": payload, "c": crc32}`` — so the store inherits the
checkpoint substrate's durability properties: torn final lines are
harmless, bit rot fails the per-record checksum.  Unlike a checkpoint
journal, the store is a *cache*: a corrupt record is skipped (and
counted, loudly) instead of aborting the load, because the worst a
lost entry can cause is a cold re-evaluation.  The record types:

``header``
    First line of every segment: ``{"format", "version", "namespace"}``.
    A segment whose header is missing, version-skewed or from another
    namespace is ignored wholesale (counted in ``skewed_segments``).
``entry``
    One verdict: ``{"k": key, "deps": {"l": leaves}, "v": verdict
    payload}``.  Later segments win on duplicate keys.
    In memory an entry also keeps the verdict its first successful
    decode produced, so later reads skip the payload validation.
``drop``
    Invalidation tombstone: ``{"k": [keys]}`` — appended by
    :func:`repro.store.diff.invalidate`; compaction erases both the
    tombstone and its targets.

Writers append with per-process segment files (exclusive-create
naming), so service workers on one host share a store without write
interleaving.  Writes are best-effort: an ``OSError`` disables the
namespace's writer for the process lifetime and the run continues
cold-writing nothing — a full disk must never fail an exploration.

Compaction (:meth:`WarmStore.gc`) rewrites each namespace's live
entries into a single segment via temp-file + atomic rename and is
meant for quiescent stores (the ``repro cache gc`` CLI); concurrent
appenders would lose in-flight entries, never correctness.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..resilience.journal import _parse_line, encode_record

logger = logging.getLogger(__name__)

#: Segment-file format identifier (first record of every segment).
SEGMENT_FORMAT = "repro/warm-segment"
#: Current segment-file version.  Bumping it orphans old segments:
#: they are skipped loudly and eventually collected by ``gc``.  Version
#: 2 entries carry ``KEY_VERSION`` 2 keys and ``{"l": leaves}`` deps.
SEGMENT_VERSION = 2

_NS_PREFIX = "ns-"
_SEG_PREFIX = "seg-"
_SEG_SUFFIX = ".jsonl"


def _is_segment(name: str) -> bool:
    return name.startswith(_SEG_PREFIX) and name.endswith(_SEG_SUFFIX)


class _Entry:
    """One live verdict entry of a namespace."""

    __slots__ = ("deps", "payload", "value")

    def __init__(self, deps: Dict[str, Any], payload: Any) -> None:
        self.deps = deps
        self.payload = payload
        #: The payload as decoded by the first successful ``get`` with
        #: a decoder (``None`` until then); see :meth:`WarmStore.get`.
        self.value: Any = None


class _Namespace:
    """In-process view of one namespace directory (lazy-loaded)."""

    __slots__ = ("digest", "path", "entries", "_writer", "_writer_dead")

    def __init__(self, digest: str, path: str) -> None:
        self.digest = digest
        self.path = path
        #: key -> entry (deps, verdict payload, decoded value)
        self.entries: Dict[str, _Entry] = {}
        self._writer = None
        self._writer_dead = False

    # -- loading -----------------------------------------------------
    def load(self, store: "WarmStore") -> None:
        try:
            names = sorted(
                n for n in os.listdir(self.path) if _is_segment(n)
            )
        except OSError:
            return
        for name in names:
            self._load_segment(store, os.path.join(self.path, name))

    def _load_segment(self, store: "WarmStore", path: str) -> None:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            logger.warning("warm store: cannot read %s: %s", path, error)
            store.skewed_segments += 1
            return
        lines = data.splitlines(keepends=True)
        if not lines:
            return
        head = _parse_line(lines[0])
        if (
            head is None
            or head[0] != "header"
            or not isinstance(head[1], dict)
            or head[1].get("format") != SEGMENT_FORMAT
            or head[1].get("version") != SEGMENT_VERSION
            or head[1].get("namespace") != self.digest
        ):
            logger.warning(
                "warm store: ignoring segment %s (missing, corrupt or "
                "version-skewed header)",
                path,
            )
            store.skewed_segments += 1
            return
        corrupt = 0
        for index, line in enumerate(lines[1:], start=1):
            parsed = _parse_line(line)
            if parsed is None:
                if index == len(lines) - 1:
                    continue  # torn final line (killed writer)
                corrupt += 1
                continue
            rtype, payload = parsed
            if rtype == "entry" and isinstance(payload, dict):
                key = payload.get("k")
                if isinstance(key, str):
                    self.entries[key] = _Entry(
                        payload.get("deps") or {}, payload.get("v")
                    )
            elif rtype == "drop" and isinstance(payload, dict):
                for key in payload.get("k", ()):
                    self.entries.pop(key, None)
        if corrupt:
            logger.warning(
                "warm store: segment %s has %d corrupt record(s); "
                "skipped (affected keys re-evaluate cold)",
                path,
                corrupt,
            )
            store.corrupt_entries += corrupt

    # -- appending ---------------------------------------------------
    def _open_writer(self):
        if self._writer is not None or self._writer_dead:
            return self._writer
        os.makedirs(self.path, exist_ok=True)
        pid = os.getpid()
        for attempt in range(1000):
            name = f"{_SEG_PREFIX}{pid}-{attempt}{_SEG_SUFFIX}"
            path = os.path.join(self.path, name)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
            except FileExistsError:
                continue
            except OSError as error:
                logger.warning(
                    "warm store: cannot open segment in %s: %s "
                    "(persistence disabled for this process)",
                    self.path,
                    error,
                )
                self._writer_dead = True
                return None
            self._writer = os.fdopen(fd, "w", encoding="utf-8")
            self._append(
                "header",
                {
                    "format": SEGMENT_FORMAT,
                    "version": SEGMENT_VERSION,
                    "namespace": self.digest,
                },
            )
            return self._writer
        self._writer_dead = True
        return None

    def _append(self, rtype: str, payload: Any) -> bool:
        writer = self._open_writer()
        if writer is None:
            return False
        try:
            writer.write(encode_record(rtype, payload))
            writer.flush()
            return True
        except (OSError, ValueError) as error:
            logger.warning(
                "warm store: append to namespace %s failed: %s "
                "(persistence disabled for this process)",
                self.digest,
                error,
            )
            self._writer_dead = True
            try:
                writer.close()
            except OSError:
                pass
            self._writer = None
            return False

    def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except OSError:
                pass
            self._writer = None


class WarmStore:
    """A content-addressed verdict store rooted at one directory.

    Use :func:`open_store` rather than constructing directly — stores
    are interned per absolute path so every run, job and evaluator in
    one process shares a single in-memory view (and its counters).
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._namespaces: Dict[str, _Namespace] = {}
        #: Cache-protocol counters (process-lifetime, monotone).
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Entries whose CRC or payload failed validation on load.
        self.corrupt_entries = 0
        #: Segments ignored wholesale (bad/missing/skewed header).
        self.skewed_segments = 0
        #: Entries dropped by diff-based invalidation.
        self.invalidated = 0
        #: Namespaces evicted by ``gc(max_bytes=...)``.
        self.evicted = 0

    # -- namespaces --------------------------------------------------
    def namespace(self, digest: str) -> _Namespace:
        ns = self._namespaces.get(digest)
        if ns is None:
            ns = _Namespace(
                digest, os.path.join(self.root, _NS_PREFIX + digest)
            )
            ns.load(self)
            self._namespaces[digest] = ns
        return ns

    def namespace_digests(self) -> List[str]:
        """Digests of every namespace present on disk."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(
            n[len(_NS_PREFIX):] for n in names if n.startswith(_NS_PREFIX)
        )

    def binding(self, digest: str) -> "WarmBinding":
        """An evaluator's handle into one namespace."""
        return WarmBinding(self, digest)

    # -- cache protocol ----------------------------------------------
    def get(
        self,
        digest: str,
        key: str,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """:meth:`WarmBinding.get` in namespace ``digest``."""
        return self.binding(digest).get(key, decode)

    def put(
        self, digest: str, key: str, deps: Dict[str, Any], payload: Any
    ) -> bool:
        """:meth:`WarmBinding.put` in namespace ``digest``."""
        return self.binding(digest).put(key, deps, payload)

    def drop(self, digest: str, keys: Iterable[str]) -> int:
        """Invalidate ``keys`` in a namespace (tombstone + in-memory).

        Returns the number of entries actually removed."""
        ns = self.namespace(digest)
        removed = [k for k in keys if ns.entries.pop(k, None) is not None]
        if removed:
            ns._append("drop", {"k": sorted(removed)})
            self.invalidated += len(removed)
        return len(removed)

    # -- maintenance -------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_entries": self.corrupt_entries,
            "skewed_segments": self.skewed_segments,
            "invalidated": self.invalidated,
            "evicted": self.evicted,
        }

    def stats(self) -> Dict[str, Any]:
        """Entry/byte accounting per namespace plus the counters."""
        namespaces = []
        total_entries = 0
        total_bytes = 0
        for digest in self.namespace_digests():
            ns = self.namespace(digest)
            size = _dir_bytes(ns.path)
            namespaces.append(
                {
                    "namespace": digest,
                    "entries": len(ns.entries),
                    "segments": _segment_count(ns.path),
                    "bytes": size,
                }
            )
            total_entries += len(ns.entries)
            total_bytes += size
        return {
            "root": self.root,
            "namespaces": namespaces,
            "entries": total_entries,
            "bytes": total_bytes,
            "counters": self.counters(),
        }

    def verify(self) -> Dict[str, Any]:
        """Strict CRC + header sweep of every segment on disk.

        Unlike loading (which tolerates damage by design), ``verify``
        reports it: the returned document lists every corrupt record
        and skewed segment so operators can tell bit rot from a clean
        store.  ``ok`` is ``False`` when anything failed.
        """
        problems: List[Dict[str, Any]] = []
        checked_segments = 0
        checked_entries = 0
        for digest in self.namespace_digests():
            ns_path = os.path.join(self.root, _NS_PREFIX + digest)
            try:
                names = sorted(
                    n for n in os.listdir(ns_path) if _is_segment(n)
                )
            except OSError as error:
                problems.append(
                    {"kind": "unreadable_namespace",
                     "namespace": digest, "error": str(error)}
                )
                continue
            for name in names:
                path = os.path.join(ns_path, name)
                checked_segments += 1
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError as error:
                    problems.append(
                        {"kind": "unreadable_segment", "segment": path,
                         "error": str(error)}
                    )
                    continue
                lines = data.splitlines(keepends=True)
                head = _parse_line(lines[0]) if lines else None
                if (
                    head is None
                    or head[0] != "header"
                    or not isinstance(head[1], dict)
                    or head[1].get("format") != SEGMENT_FORMAT
                    or head[1].get("version") != SEGMENT_VERSION
                    or head[1].get("namespace") != digest
                ):
                    problems.append(
                        {"kind": "skewed_segment", "segment": path}
                    )
                    continue
                for index, line in enumerate(lines[1:], start=1):
                    if _parse_line(line) is None:
                        if index == len(lines) - 1:
                            continue  # torn tail: benign
                        problems.append(
                            {"kind": "corrupt_record", "segment": path,
                             "line": index + 1}
                        )
                    else:
                        checked_entries += 1
        return {
            "root": self.root,
            "segments": checked_segments,
            "records": checked_entries,
            "problems": problems,
            "ok": not problems,
        }

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, Any]:
        """Compact every namespace; optionally enforce a size budget.

        Each namespace's live entries are rewritten into one fresh
        segment (temp file + atomic rename), erasing tombstones,
        duplicates, corrupt records and version-skewed segments.  When
        ``max_bytes`` is given and the compacted store still exceeds
        it, whole namespaces are evicted oldest-first (by directory
        mtime) until it fits — an evicted namespace just re-evaluates
        cold.  Call on a quiescent store (no concurrent appenders).
        """
        for ns in self._namespaces.values():
            ns.close()
        compacted = 0
        for digest in self.namespace_digests():
            # A fresh load of the live entries, in place: bindings hold
            # the namespace object.
            ns = self._namespaces.get(digest)
            if ns is None:
                ns = self.namespace(digest)
            else:
                ns.entries.clear()
                ns.load(self)
            self._compact_namespace(ns)
            compacted += 1
        evicted: List[str] = []
        if max_bytes is not None:
            ordered = sorted(
                self.namespace_digests(),
                key=lambda d: _dir_mtime(
                    os.path.join(self.root, _NS_PREFIX + d)
                ),
            )
            while ordered and _dir_bytes(self.root) > max_bytes:
                digest = ordered.pop(0)
                ns = self._namespaces.get(digest)
                if ns is not None:
                    ns.close()
                    ns.entries.clear()
                _remove_tree(os.path.join(self.root, _NS_PREFIX + digest))
                evicted.append(digest)
        self.evicted += len(evicted)
        return {
            "root": self.root,
            "compacted": compacted,
            "evicted": evicted,
            "bytes": _dir_bytes(self.root),
        }

    def _compact_namespace(self, ns: _Namespace) -> None:
        try:
            names = sorted(
                n for n in os.listdir(ns.path) if _is_segment(n)
            )
        except OSError:
            return
        seq = 0
        while True:
            out_name = f"{_SEG_PREFIX}compact-{seq}{_SEG_SUFFIX}"
            if out_name not in names:
                break
            seq += 1
        out_path = os.path.join(ns.path, out_name)
        tmp_path = out_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(
                encode_record(
                    "header",
                    {
                        "format": SEGMENT_FORMAT,
                        "version": SEGMENT_VERSION,
                        "namespace": ns.digest,
                    },
                )
            )
            for key in sorted(ns.entries):
                entry = ns.entries[key]
                handle.write(
                    encode_record(
                        "entry",
                        {"k": key, "deps": entry.deps, "v": entry.payload},
                    )
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, out_path)
        for name in names:
            try:
                os.unlink(os.path.join(ns.path, name))
            except OSError:
                pass

    def close(self) -> None:
        for ns in self._namespaces.values():
            ns.close()


class WarmBinding:
    """One evaluator's handle into one store namespace.

    It holds the namespace, so a read is one dict lookup."""

    __slots__ = ("store", "ns")

    def __init__(self, store: WarmStore, digest: str) -> None:
        self.store = store
        self.ns = store.namespace(digest)

    def get(
        self, key: str, decode: Optional[Callable[[Any], Any]] = None
    ) -> Any:
        """The payload stored under ``key``, or ``None`` on a miss.

        With ``decode``, returns ``decode(payload)`` instead, computed
        on the first read and kept in the entry while it is not
        ``None`` — a decoder signals a malformed payload with ``None``,
        so such a payload is decoded (and rejected) on every read.
        """
        entry = self.ns.entries.get(key)
        if entry is None:
            self.store.misses += 1
            return None
        self.store.hits += 1
        if decode is None:
            return entry.payload
        value = entry.value
        if value is None:
            value = entry.value = decode(entry.payload)
        return value

    def put(self, key: str, deps: Dict[str, Any], payload: Any) -> bool:
        """Record a new entry; returns whether it was appended to disk
        (``False`` for a known key or when the writer is disabled)."""
        ns = self.ns
        if key in ns.entries:
            return False
        ns.entries[key] = _Entry(deps, payload)
        if ns._append("entry", {"k": key, "deps": deps, "v": payload}):
            self.store.writes += 1
            return True
        return False


# --- process-wide interning ------------------------------------------------

_STORES: Dict[str, WarmStore] = {}


def open_store(path: str) -> WarmStore:
    """The process-wide :class:`WarmStore` for ``path`` (interned).

    Every explore run and service job naming the same
    directory shares one store instance, its read cache and its
    counters — the "named jobs on one host share one store" contract.
    """
    key = os.path.abspath(path)
    store = _STORES.get(key)
    if store is None:
        store = WarmStore(key)
        _STORES[key] = store
    return store


def _reset_stores() -> None:
    """Test seam: drop the process-wide intern table so a fresh
    ``open_store`` re-reads the disk state."""
    for store in _STORES.values():
        store.close()
    _STORES.clear()


# --- small filesystem helpers ----------------------------------------------

def _segment_count(path: str) -> int:
    try:
        return sum(1 for n in os.listdir(path) if _is_segment(n))
    except OSError:
        return 0


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _dir_mtime(path: str) -> float:
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


def _remove_tree(path: str) -> None:
    for dirpath, dirnames, filenames in os.walk(path, topdown=False):
        for name in filenames:
            try:
                os.unlink(os.path.join(dirpath, name))
            except OSError:
                pass
        for name in dirnames:
            try:
                os.rmdir(os.path.join(dirpath, name))
            except OSError:
                pass
    try:
        os.rmdir(path)
    except OSError:
        pass


def describe_store(document: Dict[str, Any]) -> str:
    """Human-readable one-paragraph rendering of :meth:`WarmStore.stats`."""
    lines = [
        f"warm store {document['root']}",
        f"  entries:    {document['entries']}",
        f"  bytes:      {document['bytes']}",
        f"  namespaces: {len(document['namespaces'])}",
    ]
    for ns in document["namespaces"]:
        lines.append(
            f"    {ns['namespace']}: {ns['entries']} entries, "
            f"{ns['segments']} segment(s), {ns['bytes']} bytes"
        )
    counters = document["counters"]
    lines.append(
        "  session:    "
        + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    )
    return "\n".join(lines)


__all__ = [
    "SEGMENT_FORMAT",
    "SEGMENT_VERSION",
    "WarmStore",
    "WarmBinding",
    "open_store",
    "describe_store",
]
