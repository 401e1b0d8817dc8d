"""Versioned, section-framed binary snapshots of verifier sessions.

Container layout (all integers varint unless noted)::

    MAGIC "DNETSNAP"  (8 bytes)
    version           (u16 big-endian)
    section*          name-len name-bytes payload-len payload crc32(u32 BE)
    end               name-len == 0

Sections are streamed — a reader never holds more than one section's
payload — and individually CRC-checked, so a corrupted file fails loudly
instead of reconstructing a subtly wrong verifier.  Since version 2 the
CRC covers the section *name* as well as the payload: with a
payload-only CRC, one flipped bit in a name could turn a known section
into a valid unknown one ("qroperties"), which readers would then
silently skip — a session restored without its subscriptions answers
from subtly wrong state, exactly what the CRC exists to prevent.  The
corruption fuzzer (``deltanet fuzz --corrupt``) found this gap.  Payloads are
:mod:`repro.persist.codec` values; no pickle is involved anywhere, so
loading a snapshot can never execute code.

A *session* snapshot has sections:

* ``meta`` — format bookkeeping: backend registry name, header width,
  the session's update ``sequence`` (the journal replay cursor), and
  the backend's constructor options,
* ``backend`` — the backend's ``snapshot_state()`` (for Delta-net: the
  atom table, run-length labels, rule store and GC refcounts, as packed
  int columns — :mod:`repro.persist.columns`; sharded backends nest one
  such state per shard),
* ``properties`` — each watched property's spec, internal state and
  delivered-violation signatures, so restored subscriptions neither
  re-alert old violations nor miss re-introduced ones,
* ``violations`` — the session's delivery log, so
  ``session.violations()`` is continuous across a restart.
* ``integrity`` — the saving session's state digest
  (:mod:`repro.integrity`); ``load_session`` re-derives the restored
  backend's digest and rejects a mismatch, closing the gap the
  per-section CRCs cannot: a snapshot that decodes fine but rebuilds
  different verifier state.

Compatibility: the version is bumped on breaking layout changes and
readers reject newer versions; unknown *sections* are ignored, so older
readers survive additive changes.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from typing import Any, BinaryIO, Dict, Iterable, List, Optional, Tuple, Union

from repro.persist.codec import (
    CodecError, _encode_into, decode, encode, read_uvarint, write_uvarint,
)

MAGIC = b"DNETSNAP"
#: Bumped on breaking changes to the container or section layouts.
#: v2: the section CRC covers the name bytes, not just the payload.
#: v3: an atom table no longer stores ``"rng"`` (the boundary treap's
#: PRNG state; the treap is gone).  Readers before v3 index that key, so
#: the bump makes them refuse a v3 file instead of failing inside a
#: restore; v1/v2 files load here and their ``"rng"`` is ignored.
#: v4: Delta-net's rule store, labels and atom table, and the adapters'
#: rule lists, are packed int columns over an interned node table
#: (:mod:`repro.persist.columns`), so save and load copy them in C
#: instead of making one codec call per int.  v1-v3 fields are read as
#: the lists they are and converted to columns where they are read.
SNAPSHOT_VERSION = 4

Pathish = Union[str, "os.PathLike[str]"]


class SnapshotError(ValueError):
    """Raised on bad magic, unsupported versions, or CRC mismatches."""


_write_uvarint = write_uvarint


def _read_uvarint(stream: BinaryIO) -> int:
    try:
        return read_uvarint(stream)
    except CodecError:
        raise SnapshotError("truncated snapshot") from None


def write_snapshot(stream: BinaryIO,
                   sections: Iterable[Tuple[str, Any]]) -> None:
    """Write a snapshot container with the given ``(name, value)`` sections."""
    stream.write(MAGIC)
    stream.write(struct.pack(">H", SNAPSHOT_VERSION))
    for name, value in sections:
        raw_name = name.encode("utf-8")
        if not raw_name:
            raise SnapshotError("section names must be non-empty")
        # The payload's chunks go to the stream as the codec made them:
        # packed columns are written from the state that holds them,
        # never joined into a second copy of the section first.
        chunks: List[bytes] = []
        _encode_into(value, chunks)
        crc = zlib.crc32(raw_name)
        for chunk in chunks:
            crc = zlib.crc32(chunk, crc)
        _write_uvarint(stream, len(raw_name))
        stream.write(raw_name)
        _write_uvarint(stream, sum(map(len, chunks)))
        stream.writelines(chunks)
        stream.write(struct.pack(">I", crc))
    _write_uvarint(stream, 0)


def _stream_end(stream: BinaryIO) -> Optional[int]:
    """The offset of ``stream``'s end, or ``None`` if it cannot seek."""
    try:
        if not stream.seekable():
            return None
        here = stream.tell()
        end = stream.seek(0, io.SEEK_END)
        stream.seek(here)
        return end
    except (AttributeError, OSError):
        return None


def iter_snapshot(stream: BinaryIO) -> Iterable[Tuple[str, Any]]:
    """Stream ``(name, value)`` sections, verifying magic/version/CRCs."""
    end = _stream_end(stream)
    header = stream.read(len(MAGIC) + 2)
    if len(header) != len(MAGIC) + 2 or not header.startswith(MAGIC):
        raise SnapshotError("not a DNETSNAP snapshot")
    version = struct.unpack(">H", header[len(MAGIC):])[0]
    if version > SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} is newer than supported "
            f"({SNAPSHOT_VERSION}); upgrade to read it")
    while True:
        name_len = _read_uvarint(stream)
        if name_len == 0:
            return
        name = stream.read(name_len)
        if len(name) != name_len:
            raise SnapshotError("truncated section name")
        payload_len = _read_uvarint(stream)
        # A corrupt length must fail as truncation, not as an attempt
        # to allocate it (a file read of 2**40 bytes is a MemoryError).
        if end is not None and payload_len > end - stream.tell():
            raise SnapshotError("truncated section payload")
        payload = stream.read(payload_len)
        crc_raw = stream.read(4)
        if len(payload) != payload_len or len(crc_raw) != 4:
            raise SnapshotError("truncated section payload")
        # v1 files carry a payload-only CRC; since v2 the name is
        # covered too, so a flipped name byte fails here instead of
        # demoting a known section to a silently-skipped unknown one.
        seed = zlib.crc32(name) if version >= 2 else 0
        if zlib.crc32(payload, seed) != struct.unpack(">I", crc_raw)[0]:
            raise SnapshotError(f"CRC mismatch in section {name!r}")
        try:
            decoded_name = name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"malformed section name {name!r}: "
                                f"{exc}") from exc
        try:
            yield decoded_name, decode(payload)
        except CodecError as exc:
            raise SnapshotError(f"malformed section {name!r}: {exc}") from exc


def read_snapshot(source: Union[Pathish, BinaryIO]) -> Dict[str, Any]:
    """All sections of a snapshot, by name."""
    if hasattr(source, "read"):
        return dict(iter_snapshot(source))
    with open(source, "rb") as stream:
        return dict(iter_snapshot(stream))


def snapshot_info(source: Union[Pathish, BinaryIO]) -> Dict[str, Any]:
    """The ``meta`` section alone — cheap: stops reading after it."""
    def first_meta(stream: BinaryIO) -> Dict[str, Any]:
        for name, value in iter_snapshot(stream):
            if name == "meta":
                return value
        raise SnapshotError("snapshot has no meta section")

    if hasattr(source, "read"):
        return first_meta(source)
    with open(source, "rb") as stream:
        return first_meta(stream)


# -- session-level save / load -------------------------------------------------


def _sorted_signatures(signatures: Iterable[Tuple[object, ...]]) -> List[tuple]:
    """Deterministic order for dedup-signature sets (byte-stable saves)."""
    return sorted((tuple(sig) for sig in signatures), key=encode)


def session_sections(session) -> List[Tuple[str, Any]]:
    """The ``(name, value)`` sections capturing ``session`` entirely."""
    from repro.api.properties import property_spec, property_state

    backend = session.backend
    state = backend.snapshot_state()
    meta = {
        "backend": backend.name,
        "width": session.width,
        "sequence": session.sequence,
        "options": state.pop("options", {}),
    }
    properties = []
    for prop in session.properties:
        properties.append({
            "name": getattr(prop, "name", type(prop).__name__),
            "spec": property_spec(prop),
            "state": property_state(prop),
            "seen": _sorted_signatures(session._seen[id(prop)]),
        })
    violations = [(v.property_name, tuple(v.signature), v.detail, v.data)
                  for v in session.violations()]
    sections = [("meta", meta), ("backend", state),
                ("properties", properties), ("violations", violations)]
    digest = getattr(session, "state_digest", lambda: None)()
    if digest is not None:
        # The integrity trailer: load_session re-derives the restored
        # backend's digest and refuses a snapshot whose state does not
        # hash to what the saving session held.  Additive — readers
        # ignore unknown sections.
        sections.append(("integrity", {"digest": digest}))
    return sections


def save_session(session, target: Union[Pathish, BinaryIO]) -> None:
    """Serialize ``session`` (backend + subscriptions) to ``target``.

    Writing to a path is **not** atomic by itself — use
    :class:`repro.persist.store.SessionStore` for crash-safe checkpoint
    rotation.
    """
    sections = session_sections(session)
    if hasattr(target, "write"):
        write_snapshot(target, sections)
        return
    with open(target, "wb") as stream:
        write_snapshot(stream, sections)


def load_session(source: Union[Pathish, BinaryIO], *,
                 properties: Optional[Iterable] = None,
                 verify: bool = False,
                 **backend_overrides):
    """Reconstruct a :class:`~repro.api.session.VerificationSession`.

    ``properties`` may supply already-constructed property instances (in
    watch order) for snapshots whose properties cannot be rebuilt from
    specs (custom classes); built-in properties are reconstructed
    automatically.  ``backend_overrides`` adjust the backend's saved
    constructor options (e.g. ``force_inline=True`` to restore a
    parallel snapshot without spawning workers).  With ``verify=True``
    the restored backend's invariants are checked before returning.
    """
    from repro.api.properties import Violation, property_from_spec
    from repro.api.session import VerificationSession
    from repro.api.registry import create_backend

    sections = read_snapshot(source)
    try:
        meta = sections["meta"]
        backend_state = sections["backend"]
    except KeyError as exc:
        raise SnapshotError(f"snapshot is missing section {exc}") from exc
    options = dict(meta.get("options", {}))
    options.update(backend_overrides)
    backend = create_backend(meta["backend"], width=meta["width"], **options)
    backend.restore_state(backend_state)
    integrity = sections.get("integrity")
    if integrity is not None and integrity.get("digest") is not None:
        restored = getattr(backend, "state_digest", lambda: None)()
        if restored is not None and restored != integrity["digest"]:
            raise SnapshotError(
                "state digest mismatch: snapshot trailer recorded "
                f"{integrity['digest']!r} but the restored backend digests "
                f"to {restored!r} — refusing a silently diverged restore")
    if verify:
        backend.check_invariants()

    session = VerificationSession(backend)
    session.sequence = meta.get("sequence", 0)

    supplied = list(properties) if properties is not None else None
    saved_props = sections.get("properties", [])
    if supplied is not None and len(supplied) != len(saved_props):
        raise SnapshotError(
            f"snapshot has {len(saved_props)} properties, "
            f"{len(supplied)} supplied")
    for index, entry in enumerate(saved_props):
        if supplied is not None:
            prop = supplied[index]
        else:
            prop = property_from_spec(entry["name"], entry.get("spec"))
            if prop is None:
                raise SnapshotError(
                    f"property {entry['name']!r} has no saved spec; pass "
                    f"constructed instances via load_session(properties=...)")
        session.watch(prop)
        state = entry.get("state")
        if state is not None and hasattr(prop, "load_state_dict"):
            prop.load_state_dict(state)
        session._seen[id(prop)] = {tuple(sig) for sig in entry.get("seen", ())}
    for name, signature, detail, data in sections.get("violations", ()):
        session._violation_log.append(
            Violation(name, tuple(signature), detail, data=data))
    return session


def dumps_session(session) -> bytes:
    """The snapshot bytes of ``session`` (tests, byte-equality checks)."""
    buffer = io.BytesIO()
    save_session(session, buffer)
    return buffer.getvalue()
