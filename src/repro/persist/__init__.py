"""Persistence: versioned binary snapshots + an append-only journal.

Delta-net's atom representation makes *incremental* verification fast,
but a verifier that can only be built by replaying every rule operation
from rule zero is still a batch tool.  This package turns a
:class:`~repro.api.session.VerificationSession` into a restartable
service:

* :mod:`repro.persist.codec` — a small tagged binary value codec
  (varint framed, stdlib only) for the plain-data state dicts the
  verifiers expose,
* :mod:`repro.persist.snapshot` — versioned, section-framed, CRC-checked
  snapshot containers: ``save_session`` / ``load_session`` capture the
  full verifier state (atom table, run-length labels, rule store) plus
  the session's property-subscription state,
* :mod:`repro.persist.journal` — the append-only update journal whose
  tail, replayed on top of a snapshot, reconstructs the exact session
  (torn tails from a crash are detected and truncated),
* :mod:`repro.persist.store` — a directory pairing the two:
  ``checkpoint()`` atomically rotates snapshot + journal,
  ``recover()`` rebuilds the session after a kill mid-stream.

The contract, proven by ``tests/persist``: ``load(save(session))``
followed by replaying the remaining trace yields *identical* check
results to the uninterrupted session, on every backend.
"""

from repro.persist.codec import CodecError, decode, decode_stream, encode, encode_stream
from repro.persist.journal import Journal, JournalCorruption, journal_records
from repro.persist.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    load_session,
    read_snapshot,
    save_session,
    snapshot_info,
    write_snapshot,
)
from repro.persist.store import RecoveryInfo, SessionStore

__all__ = [
    "CodecError",
    "Journal",
    "JournalCorruption",
    "RecoveryInfo",
    "SNAPSHOT_VERSION",
    "SessionStore",
    "SnapshotError",
    "decode",
    "decode_stream",
    "encode",
    "encode_stream",
    "journal_records",
    "load_session",
    "read_snapshot",
    "save_session",
    "snapshot_info",
    "write_snapshot",
]
