"""Deterministic fault injection for chaos-testing the verifier stack.

:mod:`repro.faults.injector` is the mechanism: named fault points wired
into production code (`fire()` is a no-op until an injector is
installed), armed faults that crash at the n-th hit, and the
:class:`InjectedCrash` signal that simulates process death.

:mod:`repro.faults.chaos` is the policy: seed-derived
:class:`ChaosPlan`\\ s of fault events and a replay harness that drives a
checkpointed session through a scenario while crashing it, tearing
journal tails and crashing checkpoints — then proves the delivered
violation stream still matches the sweep oracle byte-for-byte.

:mod:`repro.faults.corruption` damages *state itself*: snapshot byte
flips, journal payload mutations, silently desynced labels — and proves
the stack fails loudly or answers correctly, never silently wrong.
"""

from repro.faults.injector import (
    Fault, FaultInjector, InjectedCrash, crash, fire, installed,
)
from repro.faults.chaos import (
    CHAOS_KINDS, ChaosPlan, FaultEvent, chaos_replay,
)
from repro.faults.corruption import (
    CORRUPTION_KINDS, corruption_plan, corruption_replay,
)

__all__ = [
    "CHAOS_KINDS",
    "CORRUPTION_KINDS",
    "ChaosPlan",
    "corruption_plan",
    "corruption_replay",
    "Fault",
    "FaultEvent",
    "FaultInjector",
    "InjectedCrash",
    "chaos_replay",
    "crash",
    "fire",
    "installed",
]
