"""State-integrity layer: online digests and scrubbing.

Delta-net's verdicts are only as trustworthy as its incremental
``AtomTable``/``ForwardingIndex`` state — a silently diverged mirror
reports *wrong* invariants, which is strictly worse than crashing.  This
package makes state trustworthiness continuously checkable:

* :mod:`repro.integrity.digest` — order-independent incremental digests
  maintained in O(changed entries) on every label/boundary mutation,
  surfaced as ``VerificationSession.state_digest()`` on every backend and
  embedded in snapshots and journal checkpoint headers.
* :mod:`repro.integrity.scrub` — a budgeted, resumable scrubber that
  re-verifies live digests against from-scratch recomputation.  A
  mismatch is reported, not repaired: a diverged state is rebuilt from
  its journal and snapshot, or from rule zero.
"""

from repro.integrity.digest import (
    DigestAccumulator,
    LabelDigest,
    BoundaryDigest,
    combine_digests,
    digests_enabled,
    format_digest,
    parse_digest,
    rules_digest,
)
from repro.integrity.scrub import ScrubReport, Scrubber

__all__ = [
    "DigestAccumulator",
    "LabelDigest",
    "BoundaryDigest",
    "combine_digests",
    "digests_enabled",
    "format_digest",
    "parse_digest",
    "rules_digest",
    "ScrubReport",
    "Scrubber",
]
