"""Unit tests of the warm-start store (:mod:`repro.store`).

Covers the three layers separately — content addressing (digest),
segment durability (store) and edit classification (diff) — while
``test_warm_start.py`` proves the end-to-end byte-identity contract.
"""

import hashlib
import json
import os

import pytest

from .randspec import random_spec
from repro.analysis import with_latency, with_unit_costs
from repro.boolexpr.sat import BRANCHING_RULE
from repro.casestudies import build_settop_spec, build_tv_decoder_spec
from repro.core import explore
from repro.io import spec_from_dict, spec_to_dict
from repro.resilience.journal import _parse_line, encode_record, record_crc
from repro.store import (
    KEY_VERSION,
    SEGMENT_FORMAT,
    SEGMENT_VERSION,
    WarmStore,
    describe_store,
    diff_specs,
    full_spec_digest,
    invalidate,
    namespace_digest,
    open_store,
    touched_keys,
)
from repro.store import digest as store_digest
from repro.store.store import _reset_stores


@pytest.fixture(autouse=True)
def fresh_intern_table():
    """Every test sees the disk state, not another test's cache."""
    _reset_stores()
    yield
    _reset_stores()


@pytest.fixture(scope="module")
def settop():
    return build_settop_spec()


@pytest.fixture(scope="module")
def tv_spec():
    return build_tv_decoder_spec()


def first_mapping(spec):
    mapping = spec_to_dict(spec)["mappings"][0]
    return mapping["process"], mapping["resource"], mapping["latency"]


class TestNamespaceDigest:
    def test_stable_under_latency_edit(self, settop):
        process, resource, latency = first_mapping(settop)
        patched = with_latency(settop, {(process, resource): latency + 7})
        assert namespace_digest(patched) == namespace_digest(settop)

    def test_stable_under_cost_edit(self, settop):
        unit = sorted(settop.units.names())[0]
        patched = with_unit_costs(settop, {unit: 123.0})
        assert namespace_digest(patched) == namespace_digest(settop)

    def test_changed_by_structural_edit(self, settop):
        document = spec_to_dict(settop)
        document["mappings"] = document["mappings"][1:]
        pruned = spec_from_dict(document)
        assert namespace_digest(pruned) != namespace_digest(settop)

    def test_distinct_specs_distinct_namespaces(self, settop, tv_spec):
        assert namespace_digest(settop) != namespace_digest(tv_spec)

    def test_roundtrip_is_stable(self, settop):
        clone = spec_from_dict(spec_to_dict(settop))
        assert namespace_digest(clone) == namespace_digest(settop)


def reference_key(evaluator, info, usable, packed):
    """The v2 store key and deps, serialised from scratch: the SHA-256
    of the canonical JSON of the whole per-ECS payload, then the memo
    key's integer part (and, where the verdict reads the whole spec,
    the usable mask) in hex."""
    params = [evaluator.util_bound, evaluator.backend, evaluator.timing_mode]
    if evaluator.backend == "sat":
        params.append(BRANCHING_RULE)
    payload = [
        2,
        params,
        sorted(info.selection.items()),
        list(info.leaves),
        [
            [
                [
                    rec.resource,
                    rec.owner_bit,
                    rec.owner_top,
                    rec.iface_id,
                    1 if rec.loaded else 0,
                    rec.util_increment,
                ]
                for rec in recs
            ]
            for recs in info.options
        ],
    ]
    pinned = evaluator.timing_mode == "schedule" or evaluator.backend == "sat"
    if pinned:
        payload.append(full_spec_digest(evaluator.spec))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
    key += ":" + format(packed, "x")
    if pinned:
        key += ":" + format(usable, "x")
    return key, {"l": list(info.leaves)}


MODES = [
    (timing_mode, backend)
    for timing_mode in ("utilization", "schedule", "none")
    for backend in ("csp", "sat")
]


def checked_keys(monkeypatch, tmp_path, spec, timing_mode, backend):
    """Explore ``spec`` into a fresh store, asserting every key (and
    its deps) equals the reference; returns the keys."""
    keys = []
    key_digest = store_digest.key_digest

    def checked(evaluator, info, usable, packed):
        key = key_digest(evaluator, info, usable, packed)
        expected, deps = reference_key(evaluator, info, usable, packed)
        assert key == expected
        assert store_digest.key_deps(info) == deps
        keys.append(key)
        return key

    monkeypatch.setattr(store_digest, "key_digest", checked)
    explore(
        spec_from_dict(spec_to_dict(spec)),
        warm_store=str(tmp_path / f"ws-{timing_mode}-{backend}"),
        timing_mode=timing_mode,
        backend=backend,
    )
    monkeypatch.setattr(store_digest, "key_digest", key_digest)
    return keys


class TestKeyDigest:
    """The key is a per-ECS digest taken once plus the memo key; its
    bytes must equal the whole payload serialised from scratch."""

    @pytest.mark.parametrize("timing_mode,backend", MODES)
    @pytest.mark.parametrize(
        "build", [build_settop_spec, build_tv_decoder_spec]
    )
    def test_case_studies_match_reference(
        self, build, timing_mode, backend, monkeypatch, tmp_path
    ):
        keys = checked_keys(
            monkeypatch, tmp_path, build(), timing_mode, backend
        )
        assert keys and len(set(keys)) == len(keys)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_corpus_matches_reference(
        self, seed, monkeypatch, tmp_path
    ):
        spec = random_spec(seed)
        for timing_mode, backend in MODES:
            checked_keys(monkeypatch, tmp_path, spec, timing_mode, backend)

    def test_settop_digest_is_pinned(self, monkeypatch, tmp_path):
        """Changing the key bytes orphans every existing store, so it
        must come with a ``KEY_VERSION`` bump (and a new literal)."""
        hashes = []

        def sha256(data):
            hashes.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(
            store_digest, "hashlib", type("H", (), {"sha256": sha256})
        )
        keys = checked_keys(
            monkeypatch, tmp_path, build_settop_spec(), "utilization", "csp"
        )
        assert KEY_VERSION == 2
        # Only memo misses are keyed: a verdict implied by a feasible
        # subset key is not, and neither is a verdict the in-process
        # memo already holds.  One store key per memo key.
        assert len(keys) == 85
        assert keys[0] == "b07779e5004b5e1ba2e2e101b6ac1f36:200020002"
        # One SHA-256 per distinct ECS (plus the namespace digest).
        ecs = {key.split(":")[0] for key in keys}
        assert len(ecs) == 10
        assert len(hashes) == len(ecs) + 1


def reparsed(line):
    """``(type, payload)`` of a line, its CRC checked by re-serialising
    the payload (the check the raw-bytes CRC replaces)."""
    document = json.loads(line)
    if record_crc(document["t"], document["p"]) != document["c"]:
        return None
    return document["t"], document["p"]


class TestSegmentLines:
    """Lines are CRC-checked over their raw payload bytes."""

    RECORDS = [
        ("header", {"format": SEGMENT_FORMAT, "version": SEGMENT_VERSION}),
        ("entry", {"k": "ab:1f", "deps": {"l": ["p", "q"]},
                   "v": {"b": {"p": "u"}, "d": [1, 2], "ts": 1e-07}}),
        ("drop", {"k": ["a", "b"]}),
        ("entry", {"t": ',"t":"x"', "p": [0.1, -2.5e300, None, True]}),
        ("w\u00e9ird \"type\" ,\"t\":", "caf\u00e9 \u2603 \n\\"),
        ("empty", {}),
    ]

    def store_lines(self, tmp_path):
        explore(build_settop_spec(), warm_store=str(tmp_path))
        lines = []
        for dirpath, _dirs, files in os.walk(str(tmp_path)):
            for name in files:
                with open(os.path.join(dirpath, name), "rb") as handle:
                    lines.extend(handle.read().splitlines(keepends=True))
        return lines

    def test_encoded_lines_parse_as_before(self, tmp_path):
        lines = self.store_lines(tmp_path)
        assert len(lines) > 80
        lines += [
            encode_record(t, p).encode("utf-8") for t, p in self.RECORDS
        ]
        for line in lines:
            parsed = _parse_line(line)
            assert parsed is not None and parsed == reparsed(line)

    def test_changed_payload_or_crc_byte_is_rejected(self):
        for rtype, payload in self.RECORDS:
            line = encode_record(rtype, payload).encode("utf-8")
            start = line.index(b":") + 1  # the first CRC digit
            end = line.rindex(b',"t":')  # past the payload
            for at in range(start, end):
                changed = line[:at] + bytes([line[at] ^ 1]) + line[at + 1:]
                assert _parse_line(changed) is None, (rtype, at, changed)


class TestSegmentStore:
    def test_put_get_and_reload(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {"l": ["p"]}, {"v": 1})
        assert store.get("ns1", "k1") == {"v": 1}
        # a fresh process (simulated by dropping the intern table)
        # reads the entry back from disk
        _reset_stores()
        reloaded = open_store(str(tmp_path))
        assert reloaded.get("ns1", "k1") == {"v": 1}
        assert reloaded.counters()["hits"] == 1

    def test_open_store_interns_per_path(self, tmp_path):
        assert open_store(str(tmp_path)) is open_store(str(tmp_path))

    def test_put_ignores_duplicate_keys(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, "first")
        store.put("ns1", "k1", {}, "second")
        assert store.get("ns1", "k1") == "first"
        assert store.writes == 1

    def test_put_reports_whether_it_appended(self, tmp_path, monkeypatch):
        store = open_store(str(tmp_path))
        assert store.put("ns1", "k1", {}, 1) is True
        assert store.put("ns1", "k1", {}, 1) is False  # known key
        monkeypatch.setattr(
            "repro.store.store._Namespace._open_writer", lambda self: None
        )
        assert store.put("ns2", "k1", {}, 1) is False  # nothing durable
        assert store.writes == 1

    def test_decoded_value_kept_per_entry(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "good", {}, {"v": 1})
        store.put("ns1", "bad", {}, {"v": None})
        calls = []

        def decode(payload):
            calls.append(payload)
            return payload["v"] and ("decoded", payload["v"])

        assert store.get("ns1", "good", decode) == ("decoded", 1)
        assert store.get("ns1", "good", decode) == ("decoded", 1)
        assert store.get("ns1", "good") == {"v": 1}  # raw payload
        # a rejected payload is never kept: every read decodes it again
        assert store.get("ns1", "bad", decode) is None
        assert store.get("ns1", "bad", decode) is None
        assert calls == [{"v": 1}, {"v": None}, {"v": None}]
        assert store.hits == 5
        # a dropped entry takes its decoded value with it
        store.drop("ns1", ["good"])
        assert store.get("ns1", "good", decode) is None
        assert store.misses == 1

    def test_drop_tombstone_survives_reload(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)
        store.put("ns1", "k2", {}, 2)
        assert store.drop("ns1", ["k1", "missing"]) == 1
        assert store.invalidated == 1
        _reset_stores()
        reloaded = open_store(str(tmp_path))
        assert reloaded.get("ns1", "k1") is None
        assert reloaded.get("ns1", "k2") == 2

    def test_corrupt_record_skipped_and_counted(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)
        store.put("ns1", "k2", {}, 2)
        store.close()
        [segment] = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(tmp_path)
            for name in names
        ]
        lines = open(segment, "rb").read().splitlines(keepends=True)
        # flip bits in the first entry record (not the header, not the
        # final line: a torn tail is legitimately benign)
        lines[1] = lines[1][:-10] + b"XXXXXXXX" + lines[1][-2:]
        with open(segment, "wb") as handle:
            handle.writelines(lines)
        _reset_stores()
        reloaded = open_store(str(tmp_path))
        assert reloaded.get("ns1", "k2") == 2
        assert reloaded.corrupt_entries == 1
        report = reloaded.verify()
        assert not report["ok"]
        assert any(p["kind"] == "corrupt_record" for p in report["problems"])

    def test_torn_final_line_is_benign(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)
        store.put("ns1", "k2", {}, 2)
        store.close()
        [segment] = [
            os.path.join(root, name)
            for root, _dirs, names in os.walk(tmp_path)
            for name in names
        ]
        data = open(segment, "rb").read()
        with open(segment, "wb") as handle:
            handle.write(data[:-9])  # kill -9 mid-append
        _reset_stores()
        reloaded = open_store(str(tmp_path))
        assert reloaded.get("ns1", "k1") == 1
        assert reloaded.get("ns1", "k2") is None
        assert reloaded.corrupt_entries == 0

    def test_version_skewed_segment_ignored_wholesale(self, tmp_path):
        ns_dir = tmp_path / "ns-deadbeef"
        ns_dir.mkdir()
        with open(ns_dir / "seg-1-0.jsonl", "w", encoding="utf-8") as handle:
            handle.write(
                encode_record(
                    "header",
                    {
                        "format": SEGMENT_FORMAT,
                        "version": SEGMENT_VERSION + 1,
                        "namespace": "deadbeef",
                    },
                )
            )
            handle.write(encode_record("entry", {"k": "k1", "v": 1}))
        store = open_store(str(tmp_path))
        assert store.get("deadbeef", "k1") is None
        assert store.skewed_segments == 1

    def test_foreign_namespace_segment_ignored(self, tmp_path):
        ns_dir = tmp_path / "ns-aaaa"
        ns_dir.mkdir()
        with open(ns_dir / "seg-1-0.jsonl", "w", encoding="utf-8") as handle:
            handle.write(
                encode_record(
                    "header",
                    {
                        "format": SEGMENT_FORMAT,
                        "version": SEGMENT_VERSION,
                        "namespace": "bbbb",  # misplaced segment
                    },
                )
            )
            handle.write(encode_record("entry", {"k": "k1", "v": 1}))
        store = open_store(str(tmp_path))
        assert store.get("aaaa", "k1") is None
        assert store.skewed_segments == 1

    def test_headerless_garbage_segment_ignored(self, tmp_path):
        ns_dir = tmp_path / "ns-cccc"
        ns_dir.mkdir()
        (ns_dir / "seg-1-0.jsonl").write_bytes(b"not json at all\n")
        store = open_store(str(tmp_path))
        assert store.get("cccc", "anything") is None
        assert store.skewed_segments == 1
        assert not store.verify()["ok"]

    def test_gc_compacts_segments_and_erases_tombstones(self, tmp_path):
        store = open_store(str(tmp_path))
        for index in range(4):
            store.put("ns1", f"k{index}", {}, index)
        store.drop("ns1", ["k0"])
        report = store.gc()
        assert report["compacted"] == 1
        assert report["evicted"] == []
        # one compacted segment, live entries only
        _reset_stores()
        reloaded = open_store(str(tmp_path))
        stats = reloaded.stats()
        assert stats["entries"] == 3
        assert stats["namespaces"][0]["segments"] == 1
        assert reloaded.get("ns1", "k0") is None
        assert reloaded.get("ns1", "k3") == 3
        assert reloaded.verify()["ok"]

    def test_gc_budget_evicts_oldest_namespace(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("aaaa", "k", {}, "x" * 100)
        store.put("bbbb", "k", {}, "y" * 100)
        total = store.gc()["bytes"]  # compact first so sizes are stable
        # namespaces are compacted in digest order, so "bbbb" ends up
        # with the newest mtime and "aaaa" is the eviction victim
        report = store.gc(max_bytes=total - 1)
        assert report["evicted"] == ["aaaa"]
        assert report["bytes"] <= total - 1
        assert store.get("bbbb", "k") == "y" * 100
        assert not os.path.exists(tmp_path / "ns-aaaa")

    def test_gc_budget_zero_clears_everything(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k", {}, 1)
        store.put("ns2", "k", {}, 2)
        report = store.gc(max_bytes=0)
        assert sorted(report["evicted"]) == ["ns1", "ns2"]
        assert report["bytes"] == 0

    def test_stats_and_describe(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)
        document = store.stats()
        assert document["entries"] == 1
        assert document["bytes"] > 0
        text = describe_store(document)
        assert "ns1" in text and "1 entries" in text

    def test_verify_clean_store(self, tmp_path):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)
        store.close()
        report = store.verify()
        assert report["ok"] and report["problems"] == []
        assert report["segments"] == 1

    def test_write_failure_degrades_to_memory_only(self, tmp_path, monkeypatch):
        store = open_store(str(tmp_path))
        store.put("ns1", "k1", {}, 1)

        ns = store.namespace("ns1")

        def boom(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(ns._writer, "write", boom)
        store.put("ns1", "k2", {}, 2)  # must not raise
        assert store.get("ns1", "k2") == 2  # still served in-process
        assert ns._writer_dead
        store.put("ns1", "k3", {}, 3)  # writer stays dead, still no raise
        _reset_stores()
        assert open_store(str(tmp_path)).get("ns1", "k2") is None


class TestDiff:
    def test_identical(self, settop):
        clone = spec_from_dict(spec_to_dict(settop))
        edit = diff_specs(settop, clone)
        assert edit.kind == "identical"
        assert edit.latency_edits == [] and edit.cost_edits == []

    def test_latency_edit_is_local(self, settop):
        process, resource, latency = first_mapping(settop)
        patched = with_latency(settop, {(process, resource): latency + 1})
        edit = diff_specs(settop, patched)
        assert edit.kind == "local"
        assert edit.latency_edits == [(process, resource)]
        assert edit.cost_edits == []

    def test_cost_edit_is_local(self, settop):
        unit = sorted(settop.units.names())[0]
        patched = with_unit_costs(settop, {unit: 1234.0})
        edit = diff_specs(settop, patched)
        assert edit.kind == "local"
        assert edit.cost_edits == [unit]
        assert edit.latency_edits == []

    def test_structural_edit(self, settop):
        document = spec_to_dict(settop)
        document["mappings"] = document["mappings"][1:]
        edit = diff_specs(settop, spec_from_dict(document))
        assert edit.kind == "structural"
        assert edit.old_namespace != edit.new_namespace

    def test_cost_edit_invalidates_nothing(self, settop, tmp_path):
        store = open_store(str(tmp_path))
        ns = namespace_digest(settop)
        store.put(ns, "k1", {"l": ["p"]}, 1)
        unit = sorted(settop.units.names())[0]
        patched = with_unit_costs(settop, {unit: 9.0})
        report = invalidate(store, settop, patched)
        assert report == {"kind": "local", "invalidated": 0, "namespace": ns}
        assert store.get(ns, "k1") == 1

    def test_latency_edit_drops_only_dependent_entries(self, settop, tmp_path):
        process, resource, latency = first_mapping(settop)
        store = open_store(str(tmp_path))
        ns = namespace_digest(settop)
        store.put(ns, "dependent", {"l": ["other", process]}, 1)
        store.put(ns, "other-process", {"l": ["nope"]}, 2)
        patched = with_latency(settop, {(process, resource): latency + 1})
        edit = diff_specs(settop, patched)
        assert touched_keys(store, edit) == ["dependent"]
        report = invalidate(store, settop, patched, edit)
        assert report["invalidated"] == 1
        assert store.get(ns, "dependent") is None
        assert store.get(ns, "other-process") == 2

    def test_structural_edit_drops_nothing(self, settop, tmp_path):
        store = open_store(str(tmp_path))
        ns = namespace_digest(settop)
        store.put(ns, "k1", {"l": []}, 1)
        document = spec_to_dict(settop)
        document["mappings"] = document["mappings"][1:]
        report = invalidate(store, settop, spec_from_dict(document))
        assert report["kind"] == "structural"
        assert report["invalidated"] == 0
        assert store.get(ns, "k1") == 1  # unreachable, not lost
