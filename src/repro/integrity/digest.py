"""Order-independent incremental state digests.

The digest of a structure is an *unordered multiset fingerprint* of its
entries: each entry is hashed to 64 bits and folded into two commutative
accumulators — a running ``xor`` and a running ``sum`` modulo ``2**64``
— plus an entry count.  Commutativity buys two properties the audit
layer leans on:

* **O(1) maintenance per changed entry.**  Adding an entry xors/adds its
  hash in; removing it xors the hash out and subtracts it.  No rehash of
  the untouched entries, which is what keeps the digest tax on the
  Algorithm 1/2 hot path inside the ``audit_overhead`` perf gate.
* **Representation independence.**  Two structures holding the same
  entry set digest identically no matter the mutation order that built
  them — an incrementally maintained index and its snapshot-restored
  twin agree by construction, so ``load_session`` can cross-check.

Entry hashes use the splitmix64 finalizer — a few arithmetic ops per
entry, far cheaper than a per-call ``blake2b`` and of ample quality for
a 128-bit (xor + sum) accumulator.  Per-link salts *are* derived via
``blake2b`` over the canonical codec encoding (process-stable, unlike
the ``PYTHONHASHSEED``-randomized builtin ``hash``), but only once per
distinct link, cached.

Digests render as strings — ``scheme:count.xor.sum[:count.xor.sum...]``
in hex — so they travel through JSON health reports and snapshot
sections unchanged.

Set ``DELTANET_DIGESTS=0`` to disable maintenance (the perf gate's
digest-free baseline); disabled structures carry ``digest = None`` and
sessions report ``state_digest() is None``.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BOUND_SEED = 0x84222325CBF29CE4

#: Digest scheme tag for native delta-net state (label + boundary parts).
XORSUM_SCHEME = "xorsum1"
#: Digest scheme tag for the generic rule-set digest (single part).
RULES_SCHEME = "rules1"


def digests_enabled() -> bool:
    """Whether digest maintenance is on (checked at structure creation)."""
    return os.environ.get("DELTANET_DIGESTS", "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


def mix64(x: int) -> int:
    """The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def hash_int(value: int) -> int:
    """Hash an arbitrary-precision int (boundaries exceed 64 bits for
    wide fields) by folding 64-bit limbs; sign rides via zigzag."""
    v = (value << 1) ^ (value >> 63) if value < 0 else (value << 1)
    h = _BOUND_SEED
    while True:
        h = mix64(h ^ (v & MASK64))
        v >>= 64
        if not v:
            return h


def hash_bytes(data: bytes) -> int:
    """A process-stable 64-bit hash of ``data`` (blake2b truncation)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


def link_salt(link) -> int:
    """A process-stable salt for a link's entries.

    Derived from the canonical codec encoding of ``(source, target)`` so
    every process — the writer and any later restore — agrees.  Falls
    back to ``repr`` for node types the codec cannot encode (such links
    cannot be snapshotted either, so cross-process stability is moot).
    """
    from repro.persist.codec import CodecError, encode

    try:
        payload = encode((link.source, link.target))
    except (CodecError, TypeError):
        payload = repr((link.source, link.target)).encode("utf-8", "replace")
    return hash_bytes(payload)


class DigestAccumulator:
    """The commutative (count, xor, sum mod 2**64) entry accumulator."""

    __slots__ = ("count", "xor", "total")

    def __init__(self, count: int = 0, xor: int = 0, total: int = 0) -> None:
        self.count = count
        self.xor = xor
        self.total = total

    def include(self, entry_hash: int) -> None:
        self.count += 1
        self.xor ^= entry_hash
        self.total = (self.total + entry_hash) & MASK64

    def exclude(self, entry_hash: int) -> None:
        self.count -= 1
        self.xor ^= entry_hash
        self.total = (self.total - entry_hash) & MASK64

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.count, self.xor, self.total)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DigestAccumulator):
            return self.as_tuple() == other.as_tuple()
        return NotImplemented

    def __repr__(self) -> str:
        return ("DigestAccumulator(count=%d, xor=%#x, total=%#x)"
                % (self.count, self.xor, self.total))


class LabelDigest(DigestAccumulator):
    """Digest over ``(link, atom)`` label membership entries."""

    __slots__ = ("_salts",)

    def __init__(self) -> None:
        super().__init__()
        self._salts: Dict[object, int] = {}

    def _salt(self, link) -> int:
        salt = self._salts.get(link)
        if salt is None:
            salt = self._salts[link] = link_salt(link)
        return salt

    def entry_hash(self, link, atom: int) -> int:
        return mix64(self._salt(link) ^ (atom * _GOLDEN))

    def add(self, link, atom: int) -> None:
        # Inlined mix64 — this runs once per real label change on the
        # Algorithm 1/2 hot path.
        salt = self._salts.get(link)
        if salt is None:
            salt = self._salts[link] = link_salt(link)
        x = (salt ^ (atom * _GOLDEN)) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        h = x ^ (x >> 31)
        self.count += 1
        self.xor ^= h
        self.total = (self.total + h) & MASK64

    def remove(self, link, atom: int) -> None:
        salt = self._salts.get(link)
        if salt is None:
            salt = self._salts[link] = link_salt(link)
        x = (salt ^ (atom * _GOLDEN)) & MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
        h = x ^ (x >> 31)
        self.count -= 1
        self.xor ^= h
        self.total = (self.total - h) & MASK64

    def add_runs(self, link, runs: Iterable[Tuple[int, int]]) -> None:
        """Fold a whole label bucket in (restore path): ``runs`` are
        half-open ``(start, end)`` pairs."""
        for start, end in runs:
            for atom in range(start, end):
                self.add(link, atom)


class BoundaryDigest(DigestAccumulator):
    """Digest over the atom table's ``(boundary, atom)`` map entries."""

    __slots__ = ()

    @staticmethod
    def entry_hash(bound: int, atom: int) -> int:
        return mix64(hash_int(bound) ^ (atom * _GOLDEN))

    def add(self, bound: int, atom: int) -> None:
        self.include(mix64(hash_int(bound) ^ (atom * _GOLDEN)))

    def remove(self, bound: int, atom: int) -> None:
        self.exclude(mix64(hash_int(bound) ^ (atom * _GOLDEN)))


def format_digest(scheme: str,
                  parts: Sequence[Tuple[int, int, int]]) -> str:
    """Render accumulator parts as the canonical digest string."""
    body = ":".join("%x.%x.%x" % part for part in parts)
    return f"{scheme}:{body}"


def parse_digest(text: str) -> Tuple[str, List[Tuple[int, int, int]]]:
    """Inverse of :func:`format_digest`; raises ``ValueError`` on junk."""
    pieces = text.split(":")
    if len(pieces) < 2:
        raise ValueError(f"malformed digest {text!r}")
    scheme = pieces[0]
    parts: List[Tuple[int, int, int]] = []
    for piece in pieces[1:]:
        fields = piece.split(".")
        if len(fields) != 3:
            raise ValueError(f"malformed digest part {piece!r} in {text!r}")
        count, xor, total = (int(field, 16) for field in fields)
        parts.append((count, xor, total))
    return scheme, parts


def combine_digests(texts: Iterable[str]) -> Optional[str]:
    """Componentwise combination of same-scheme digests (xor of xors,
    sum of sums): the digest of a union of disjoint entry sets.

    Counts and sums add (mod 2**64 for sums), xors xor.  Returns ``None``
    for an empty input or if any element is ``None`` (digests disabled
    somewhere means no fleet-wide digest).  Mixed schemes raise.
    """
    combined: Optional[List[List[int]]] = None
    scheme = None
    for text in texts:
        if text is None:
            return None
        this_scheme, parts = parse_digest(text)
        if combined is None:
            scheme = this_scheme
            combined = [list(part) for part in parts]
            continue
        if this_scheme != scheme or len(parts) != len(combined):
            raise ValueError(
                f"cannot combine digest schemes {scheme!r} and"
                f" {this_scheme!r}")
        for slot, (count, xor, total) in zip(combined, parts):
            slot[0] += count
            slot[1] ^= xor
            slot[2] = (slot[2] + total) & MASK64
    if combined is None:
        return None
    return format_digest(scheme, [tuple(slot) for slot in combined])


def rules_digest(rule_states: Iterable[object]) -> str:
    """Order-independent digest over canonical rule encodings.

    The generic fallback for backends without native label/boundary
    structures: hashes each rule's codec encoding into one accumulator.
    Self-consistent across save/replay because backend restore replays
    the identical rule set.
    """
    from repro.persist.codec import encode

    acc = DigestAccumulator()
    for state in rule_states:
        acc.include(hash_bytes(encode(state)))
    return format_digest(RULES_SCHEME, [acc.as_tuple()])
