"""Snapshot exactness: ``load(save(session))`` is the same session.

The contract under test (ISSUE acceptance): after restoring a snapshot,
replaying the remaining trace yields *identical* check results to the
uninterrupted session — on deltanet with and without atom GC —
and saving the restored session reproduces the snapshot byte for byte.
"""

import io
import os
import random

import pytest

from repro.api import (
    BlackholeProperty, LoopProperty, ReachabilityProperty,
    VerificationSession,
)
from repro.core.rules import Rule
from repro.persist.snapshot import (
    SnapshotError, dumps_session, load_session, read_snapshot,
    snapshot_info, write_snapshot,
)
from repro.query import FlowsOn, Loops, Reachable
from tests.conftest import random_rules

BACKENDS = [
    ("deltanet", {}),
    ("deltanet", {"gc": True}),
]


def make_ops(seed, count=30, width=8):
    """An insert/remove trace over a small rule set."""
    rng = random.Random(seed)
    rules = random_rules(rng, count, width=width, switches=4)
    ops = []
    live = []
    for rule in rules:
        ops.append(("+", rule))
        live.append(rule.rid)
        if live and rng.random() < 0.3:
            ops.append(("-", live.pop(rng.randrange(len(live)))))
    return ops


def apply_ops(session, ops):
    deliveries = []
    for kind, payload in ops:
        if kind == "+":
            result = session.insert(payload)
        else:
            result = session.remove(payload)
        deliveries.extend(v.signature for v in result.violations)
    return deliveries


def fresh_properties():
    return (LoopProperty(), BlackholeProperty(),
            ReachabilityProperty("s0", "s1"))


def observable_state(session):
    return {
        "loops": sorted(map(repr, session.query(Loops()).violations)),
        "blackholes": {repr(node): spans for node, spans
                       in session.find_blackholes().items()},
        "reach": session.query(Reachable("s0", "s1")).spans,
        "rules": sorted(session.rules()),
        "violations": [v.signature for v in session.violations()],
        "sequence": session.sequence,
    }


@pytest.mark.parametrize("backend,options", BACKENDS,
                         ids=[f"{b}-{sorted(o)}" for b, o in BACKENDS])
def test_roundtrip_then_identical_suffix(backend, options):
    ops = make_ops(0xA11CE)
    split = len(ops) // 2

    uninterrupted = VerificationSession(
        backend, width=8, properties=fresh_properties(), **options)
    log_a = apply_ops(uninterrupted, ops)

    session = VerificationSession(
        backend, width=8, properties=fresh_properties(), **options)
    apply_ops(session, ops[:split])
    blob = dumps_session(session)
    session.close()

    restored = load_session(io.BytesIO(blob))
    assert restored.backend_name == backend
    log_b = apply_ops(restored, ops[split:])

    assert observable_state(restored) == observable_state(uninterrupted)
    # The suffix deliveries must match the uninterrupted run's suffix.
    assert log_b == log_a[len(log_a) - len(log_b):]
    restored.check_invariants()
    uninterrupted.close()
    restored.close()


@pytest.mark.parametrize("backend,options", BACKENDS,
                         ids=[f"{b}-{sorted(o)}" for b, o in BACKENDS])
def test_save_load_save_is_byte_identical(backend, options):
    session = VerificationSession(
        backend, width=8, properties=fresh_properties(), **options)
    apply_ops(session, make_ops(0xBEE)[:25])
    blob = dumps_session(session)
    restored = load_session(io.BytesIO(blob))
    assert dumps_session(restored) == blob
    session.close()
    restored.close()


# -- the version-2 and version-3 fixtures ---------------------------------------

#: ``dumps_session`` of ``v2_fixture_session()`` as written by commit
#: 7cd3a97, the last to store the boundary treap's PRNG state ("rng") in
#: the atom table: ``PYTHONPATH=<that checkout>/src python -c "from
#: tests.persist.test_snapshot import *;
#: open(V2_FIXTURE, 'wb').write(dumps_session(v2_fixture_session()))"``.
V2_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                          "session_v2.snap")
#: The same session written by commit 7643672 with the same recipe
#: (``V3_FIXTURE`` for ``V2_FIXTURE``), the last to store rules, labels
#: and the atom table as lists of codec values rather than packed columns.
V3_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                          "session_v3.snap")
V2_FIXTURE_OPS = 110


def v2_fixture_ops(count):
    """The first ``count`` ops of the frozen trace behind ``V2_FIXTURE``:
    its own generator, so no library change can move it."""
    ops, live, state = [], [], 0x5EED
    for rid in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
        draw = state >> 24
        if live and draw % 4 == 0:
            ops.append(("-", live.pop(draw // 4 % len(live))))
            continue
        span = 1 << (draw // 4 % 7)
        lo = (draw // 32 % 256) & ~(span - 1)
        source = draw // 8192 % 4
        target = (source + 1 + draw // 32768 % 3) % 4
        ops.append(("+", Rule.forward(rid, lo, lo + span, rid * 37 % 1009,
                                      f"s{source}", f"s{target}")))
        live.append(rid)
    return ops


def v2_fixture_session(count=V2_FIXTURE_OPS):
    session = VerificationSession("deltanet", width=8, gc=True,
                                  properties=(LoopProperty(),))
    apply_ops(session, v2_fixture_ops(count))
    return session


def atom_ids_digest_and_log(session):
    return (session.native.atoms.state_dict(), session.state_digest(),
            [(v.property_name, v.signature, v.detail)
             for v in session.violations()])


@pytest.mark.parametrize("fixture,version", [(V2_FIXTURE, 2), (V3_FIXTURE, 3)],
                         ids=["v2", "v3"])
def test_version2_fixture_restores_and_continues_like_a_live_session(
        fixture, version):
    with open(fixture, "rb") as stream:
        blob = stream.read()
    assert blob[8:10] == bytes((0, version))
    atoms = read_snapshot(io.BytesIO(blob))["backend"]["native"]["atoms"]
    assert ("rng" in atoms) == (version == 2)
    assert isinstance(atoms["boundaries"], list)  # rows, not columns
    # load_session checks the trailer digest against the restored state.
    restored = load_session(io.BytesIO(blob), verify=True)
    live = v2_fixture_session()
    assert atom_ids_digest_and_log(restored) == atom_ids_digest_and_log(live)
    assert restored.native.num_atoms > 1 and restored.violations()

    suffix = v2_fixture_ops(V2_FIXTURE_OPS + 50)[V2_FIXTURE_OPS:]
    assert apply_ops(restored, suffix) == apply_ops(live, suffix)
    assert atom_ids_digest_and_log(restored) == atom_ids_digest_and_log(live)
    restored.check_invariants()
    assert dumps_session(restored) == dumps_session(live)


def test_version3_snapshot_drops_the_treap_prng():
    """Still true at version 4, whose packed columns also make the same
    session's snapshot smaller than the v3 fixture."""
    blob = dumps_session(v2_fixture_session())
    assert blob[8:10] == b"\x00\x04"
    native = read_snapshot(io.BytesIO(blob))["backend"]["native"]
    assert "rng" not in native["atoms"]
    assert isinstance(native["rules"]["rid"], bytes)
    assert len(blob) <= os.path.getsize(V2_FIXTURE) - 3500
    assert len(blob) < os.path.getsize(V3_FIXTURE)


# -- the retired Libra-style backends' snapshots -----------------------------

#: ``v2_fixture_ops(V2_FIXTURE_OPS)`` on the process-per-shard
#: ``parallel`` backend (``width=8, gc=True, shards=2``, shard servers
#: in-process) plus a ``LoopProperty``, as written by commit aa0ae04, the
#: last to have that backend.  Its meta names ``parallel`` and its
#: backend section has ``kind: "parallel"``.
PARALLEL_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                                "session_parallel_v4.snap")
#: The same session on the in-process ``sharded`` backend, as written by
#: commit 0d279ad, the last to have that backend: ``dumps_session`` of
#: ``VerificationSession("sharded", width=8, gc=True, shards=2,
#: properties=(LoopProperty(),))`` fed ``v2_fixture_ops(V2_FIXTURE_OPS)``.
SHARDED_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                               "session_sharded_v4.snap")
LEGACY_FIXTURES = [("sharded", SHARDED_FIXTURE),
                   ("parallel", PARALLEL_FIXTURE)]
#: The ``state_digest()`` both writing sessions reported: the per-shard
#: digests, combined.
SHARDED_FIXTURE_DIGEST = ("xorsum1:a8.f4ad68272ef40030.4036e6edf746cb10"
                          ":46.ffeaf1cb67d73c3a.3a89e6ab60e0b262")


def answers(session):
    """Rules, delivered log and every query answer of ``session``: what
    a restore must keep, whatever atom ids it rebuilds."""
    nodes = [f"s{index}" for index in range(4)]
    return (session.rules(),
            [(v.property_name, v.signature, v.detail)
             for v in session.violations()],
            {link: session.query(FlowsOn(link)).spans
             for link in session.backend.links()},
            sorted(map(repr, session.query(Loops()).violations)),
            {(src, dst): session.query(Reachable(src, dst)).spans
             for src in nodes for dst in nodes if src != dst})


def assert_answers_like(restored, live, start):
    """Same answers as ``live``, and the same stream for 50 more ops."""
    assert restored.backend_name == "deltanet"
    assert answers(restored) == answers(live)
    suffix = v2_fixture_ops(start + 50)[start:]
    assert apply_ops(restored, suffix) == apply_ops(live, suffix)
    assert answers(restored) == answers(live)
    restored.check_invariants()
    blob = dumps_session(restored)
    assert dumps_session(load_session(io.BytesIO(blob))) == blob


@pytest.mark.parametrize("name,fixture", LEGACY_FIXTURES,
                         ids=[name for name, _ in LEGACY_FIXTURES])
def test_sharded_snapshot_restores_as_deltanet(name, fixture):
    sections = read_snapshot(fixture)
    assert sections["meta"]["backend"] == name
    assert sections["backend"]["kind"] == name
    assert sections["integrity"]["digest"] == SHARDED_FIXTURE_DIGEST
    # load_session checks the shards against the trailer digest.
    restored = load_session(fixture, verify=True)
    assert restored.sequence == V2_FIXTURE_OPS
    assert restored.num_rules == 78 and len(restored.violations()) == 14
    assert restored.native.gc
    assert not load_session(fixture, gc=False).native.gc
    assert_answers_like(restored, v2_fixture_session(), V2_FIXTURE_OPS)


@pytest.mark.parametrize("name,fixture", LEGACY_FIXTURES,
                         ids=[name for name, _ in LEGACY_FIXTURES])
def test_sharded_store_recovers_as_deltanet(tmp_path, name, fixture):
    from repro.datasets.format import Op
    from repro.persist.store import SessionStore

    store = SessionStore(str(tmp_path / "store"))
    with open(fixture, "rb") as source, \
            open(store.snapshot_path, "wb") as target:
        target.write(source.read())
    end = V2_FIXTURE_OPS + 30
    tail = v2_fixture_ops(end)[V2_FIXTURE_OPS:]
    for sequence, (kind, payload) in enumerate(tail, V2_FIXTURE_OPS + 1):
        store.record(Op.insert(payload) if kind == "+" else Op.remove(payload),
                     sequence)
    store.close()
    session, info = SessionStore(str(tmp_path / "store")).recover(
        verify=True)
    assert (info.snapshot_sequence, info.replayed, info.sequence) == (
        V2_FIXTURE_OPS, 30, end)
    assert_answers_like(session, v2_fixture_session(end), end)


def test_sharded_snapshot_with_a_desynced_shard_is_refused(tmp_path):
    """A shard label changed behind the trailer's back: every CRC holds
    (the file is re-framed), the shards no longer digest to the trailer,
    and the load refuses the store."""
    from repro.core.deltanet import DeltaNet
    from repro.faults.corruption import desync_label
    from repro.integrity.digest import combine_digests

    sections = read_snapshot(SHARDED_FIXTURE)
    nets = sections["backend"]["native"]["nets"]
    shard = DeltaNet.from_state(nets[1])
    assert desync_label(shard)
    nets[1]["labels"] = shard.state_dict()["labels"]
    path = str(tmp_path / "desynced.snap")
    with open(path, "wb") as stream:
        write_snapshot(stream, sections.items())
    assert read_snapshot(path)["integrity"]["digest"] \
        == SHARDED_FIXTURE_DIGEST
    assert combine_digests(DeltaNet.from_state(net).state_digest()
                           for net in read_snapshot(path)["backend"]
                           ["native"]["nets"]) != SHARDED_FIXTURE_DIGEST
    with pytest.raises(SnapshotError, match="digest mismatch"):
        load_session(path)


def test_generic_backend_fallback_roundtrip():
    session = VerificationSession("veriflow", width=8,
                                  properties=(LoopProperty(),))
    apply_ops(session, make_ops(0xFACE)[:20])
    restored = load_session(io.BytesIO(dumps_session(session)))
    assert restored.backend_name == "veriflow"
    assert sorted(restored.rules()) == sorted(session.rules())
    assert sorted(map(repr, restored.query(Loops()).violations)) == \
        sorted(map(repr, session.query(Loops()).violations))
    assert restored.sequence == session.sequence


def test_generic_backend_constructor_options_survive_restore():
    session = VerificationSession("veriflow", width=8, check_loops=False)
    session.insert(session.make_rule(1, "0/1", 5, "a", "b"))
    restored = load_session(io.BytesIO(dumps_session(session)))
    assert restored.backend._check_loops is False


def test_violation_log_and_dedup_survive_restore():
    session = VerificationSession("deltanet", width=8,
                                  properties=(LoopProperty(),))
    session.insert(session.make_rule(1, "128/1", 5, "a", "b"))
    result = session.insert(session.make_rule(2, "128/1", 4, "b", "a"))
    assert len(result.violations) == 1
    restored = load_session(io.BytesIO(dumps_session(session)))
    assert [v.signature for v in restored.violations()] == \
        [v.signature for v in session.violations()]
    # The loop is already reported: re-checking must not re-alert, but
    # breaking and re-creating it must.
    restored.remove(2)
    again = restored.insert(restored.make_rule(2, "128/1", 4, "b", "a"))
    assert len(again.violations) == 1


def test_load_with_supplied_property_instances():
    session = VerificationSession("deltanet", width=8,
                                  properties=(LoopProperty(),))
    session.insert(session.make_rule(1, "0/1", 5, "a", "b"))
    blob = dumps_session(session)
    prop = LoopProperty()
    restored = load_session(io.BytesIO(blob), properties=[prop])
    assert restored.properties == (prop,)
    with pytest.raises(SnapshotError, match="supplied"):
        load_session(io.BytesIO(blob), properties=[])


def test_snapshot_info_reads_meta_only():
    session = VerificationSession("deltanet", width=8)
    session.insert(session.make_rule(1, "0/2", 5, "a", "b"))
    meta = snapshot_info(io.BytesIO(dumps_session(session)))
    assert meta["backend"] == "deltanet"
    assert meta["width"] == 8
    assert meta["sequence"] == 1


def test_backend_overrides_apply_on_load():
    session = VerificationSession("veriflow", width=8)
    session.insert(session.make_rule(1, "0/2", 5, "a", "b"))
    restored = load_session(io.BytesIO(dumps_session(session)),
                            check_loops=False)
    assert restored.backend._check_loops is False
    assert restored.query(FlowsOn(("a", "b"))).spans \
        == session.query(FlowsOn(("a", "b"))).spans
    session.close()
    restored.close()


# -- container-level failure modes ---------------------------------------------


def test_bad_magic_rejected():
    with pytest.raises(SnapshotError, match="not a DNETSNAP"):
        read_snapshot(io.BytesIO(b"NOTASNAPxxxx"))


def test_newer_version_rejected():
    buffer = io.BytesIO()
    write_snapshot(buffer, [("meta", {"x": 1})])
    data = bytearray(buffer.getvalue())
    data[8:10] = (0xFF, 0xFF)  # fake a far-future version
    with pytest.raises(SnapshotError, match="newer than supported"):
        read_snapshot(io.BytesIO(bytes(data)))


def test_corrupted_payload_rejected():
    buffer = io.BytesIO()
    write_snapshot(buffer, [("meta", {"key": "value" * 10})])
    data = bytearray(buffer.getvalue())
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(SnapshotError):
        read_snapshot(io.BytesIO(bytes(data)))


def test_corrupted_section_name_rejected():
    # The v2 CRC covers the name: a flipped bit that turns "meta" into
    # the *valid* unknown name "eeta" must fail the CRC, not demote the
    # section to an ignorable unknown one (which load_session would
    # then silently skip — the exact hole the corruption fuzzer found).
    buffer = io.BytesIO()
    write_snapshot(buffer, [("meta", {"x": 1})])
    data = bytearray(buffer.getvalue())
    name_at = data.index(b"meta")
    data[name_at] ^= 0x08  # "m" -> "e": still valid UTF-8
    with pytest.raises(SnapshotError, match="CRC mismatch"):
        read_snapshot(io.BytesIO(bytes(data)))


def test_version1_payload_only_crc_still_reads():
    import struct
    import zlib

    from repro.persist.codec import encode

    payload = encode({"a": 1})
    buffer = io.BytesIO()
    buffer.write(b"DNETSNAP" + struct.pack(">H", 1))
    buffer.write(bytes([4]) + b"meta")
    buffer.write(bytes([len(payload)]) + payload)
    buffer.write(struct.pack(">I", zlib.crc32(payload)))
    buffer.write(bytes([0]))
    assert read_snapshot(io.BytesIO(buffer.getvalue())) == {"meta": {"a": 1}}


def test_truncated_snapshot_rejected():
    buffer = io.BytesIO()
    write_snapshot(buffer, [("meta", {"key": list(range(50))})])
    with pytest.raises(SnapshotError):
        read_snapshot(io.BytesIO(buffer.getvalue()[:-6]))


def test_unknown_sections_are_ignored():
    buffer = io.BytesIO()
    write_snapshot(buffer, [("meta", {"a": 1}), ("from_the_future", [1])])
    sections = read_snapshot(io.BytesIO(buffer.getvalue()))
    assert sections["meta"] == {"a": 1}
    assert "from_the_future" in sections  # delivered, caller may skip


def test_corrupt_section_length_on_disk_is_truncation_not_memory_error(
        tmp_path):
    # A length varint that reads 2**62: from a file, read() would try to
    # allocate it (MemoryError) before noticing the file is 30 bytes.
    import struct

    from repro.persist.codec import write_uvarint

    path = tmp_path / "snapshot.bin"
    with open(path, "wb") as stream:
        stream.write(b"DNETSNAP" + struct.pack(">H", 3))
        stream.write(bytes([4]) + b"meta")
        write_uvarint(stream, 1 << 62)
        stream.write(b"\x00" * 8)
    for read in (load_session, snapshot_info, read_snapshot):
        with pytest.raises(SnapshotError, match="truncated section payload"):
            read(path)
