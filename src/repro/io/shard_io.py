"""Shard-manifest serialisation (``repro/shard-manifest`` v1).

A manifest pins one distributed exploration: the partition (every
shard's descriptor), the result-affecting explore options, and a
digest of the canonical specification document so journals and
manifests cannot be cross-wired between specifications.  The
coordinator writes it next to the per-shard checkpoint journals; a
restarted coordinator reloads it to resume exactly the same partition.
See ``docs/formats.md`` for the field-by-field description.
"""

from __future__ import annotations

import errno
import json
from typing import Any, Dict, List, Optional, Sequence

from ..errors import SerializationError
from ..store.digest import spec_digest

#: Manifest document format identifier.
SHARD_MANIFEST_FORMAT = "repro/shard-manifest"
#: Current manifest document version.
SHARD_MANIFEST_VERSION = 1


def manifest_to_dict(
    spec,
    shards: Sequence,
    options: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """JSON-ready manifest for a partition over ``spec``."""
    from .json_io import spec_to_dict

    doc = spec_to_dict(spec)
    return {
        "format": SHARD_MANIFEST_FORMAT,
        "version": SHARD_MANIFEST_VERSION,
        "spec_name": spec.name,
        "spec_digest": spec_digest(doc),
        "strategy": shards[0].strategy if shards else None,
        "count": len(shards),
        "shards": [shard.to_dict() for shard in shards],
        "options": dict(options or {}),
    }


def manifest_from_dict(document: Any):
    """Validate a manifest document; returns ``(shards, manifest)``.

    ``shards`` are rebuilt :class:`repro.distributed.Shard` objects in
    index order (partition-validated); malformed documents raise
    :class:`~repro.errors.SerializationError`.
    """
    from ..distributed.partition import Shard, validate_partition
    from ..errors import ExplorationError

    if not isinstance(document, dict):
        raise SerializationError(
            f"shard manifest must be an object, got "
            f"{type(document).__name__}"
        )
    if document.get("format") != SHARD_MANIFEST_FORMAT:
        raise SerializationError(
            f"not a shard manifest: format={document.get('format')!r}"
        )
    if document.get("version") != SHARD_MANIFEST_VERSION:
        raise SerializationError(
            f"unsupported shard-manifest version "
            f"{document.get('version')!r}"
        )
    entries = document.get("shards")
    if not isinstance(entries, list) or not entries:
        raise SerializationError("shard manifest lists no shards")
    try:
        shards: List = [Shard.from_dict(entry) for entry in entries]
        shards = validate_partition(shards)
    except ExplorationError as error:
        raise SerializationError(f"invalid shard manifest: {error}") from None
    return shards, document


def dump_manifest(path: str, document: Dict[str, Any]) -> None:
    """Write a manifest atomically enough for the chaos harness.

    The ``"disk"`` fault seam fires once per dump: ``torn`` leaves half
    the JSON on disk and aborts (``load_manifest`` then fails loudly —
    a half manifest must never validate), ``enospc`` fails before any
    byte lands, ``fsync_fail`` degrades to a loud
    :class:`SerializationError` (a manifest we cannot make durable must
    not anchor a resume).
    """
    from ..resilience import faults

    serialised = json.dumps(document, indent=2, sort_keys=True) + "\n"
    fault = faults.maybe_action("disk", path=path, record_type="manifest")
    if fault == "enospc":
        raise SerializationError(
            f"cannot write shard manifest {path!r}: "
            f"[Errno {errno.ENOSPC}] injected ENOSPC "
            f"(no space left on device)"
        )
    with open(path, "w", encoding="utf-8") as handle:
        if fault == "torn":
            handle.write(serialised[: max(1, len(serialised) // 2)])
            handle.flush()
            raise faults.SimulatedCrash(
                f"injected torn write to shard manifest {path!r}"
            )
        handle.write(serialised)
        if fault == "fsync_fail":
            raise SerializationError(
                f"fsync of shard manifest {path!r} failed (injected); "
                f"the manifest may not be durable"
            )


def load_manifest(path: str):
    """Load and validate a manifest file (see :func:`manifest_from_dict`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SerializationError(
            f"cannot read shard manifest {path!r}: {error}"
        ) from None
    except json.JSONDecodeError as error:
        raise SerializationError(
            f"shard manifest {path!r} is not valid JSON: {error}"
        ) from None
    return manifest_from_dict(document)
