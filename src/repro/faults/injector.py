"""Named fault points and the injector that arms them.

Production code declares *fault points* by calling :func:`fire` at the
spots where real systems fail — inside the checkpoint's tmp+rename
window.  With no
injector installed (the normal case, including all production use)
``fire`` is a single global read and returns immediately.

A test or chaos campaign installs a :class:`FaultInjector` armed with
:class:`Fault` descriptions: *at the n-th hit of point P, run this
action*.  The stock action is :func:`crash`: raise
:class:`InjectedCrash` — simulated process death.  It derives from
``BaseException`` so ordinary ``except Exception`` recovery code cannot
swallow it, exactly as no handler survives a real ``kill -9``.

Every trigger is recorded on ``injector.fired`` so tests can assert a
fault actually happened (a chaos campaign that silently never injects
proves nothing).

The installed injector is module-global state: chaos runs are
single-threaded harnesses, and the one global keeps ``fire`` cheap on
the hot path.  Do not install an injector from concurrent tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


class InjectedCrash(BaseException):
    """A simulated process death at a fault point.

    Deliberately a ``BaseException``: recovery code under test catches
    ``Exception``, and a fault that such code could swallow would test
    the injector, not the recovery.
    """


def crash(context: dict) -> None:
    """Stock action: die here (see :class:`InjectedCrash`)."""
    raise InjectedCrash(f"injected crash at {context.get('point')!r}")


@dataclass
class Fault:
    """One armed fault: fire ``action`` on the n-th hit of ``point``."""

    point: str
    action: Callable[[dict], None]
    #: trigger on the ``at``-th matching hit (1-based)
    at: int = 1
    #: disarm after the first trigger (set False for every-hit faults)
    once: bool = True
    hits: int = field(default=0, init=False)
    triggered: int = field(default=0, init=False)


class FaultInjector:
    """Holds armed faults and a log of everything that triggered."""

    def __init__(self, faults: Optional[List[Fault]] = None) -> None:
        self.faults: List[Fault] = list(faults or ())
        #: (point, context-sans-objects) per trigger, in order
        self.fired: List[Tuple[str, dict]] = []

    def arm(self, fault: Fault) -> Fault:
        self.faults.append(fault)
        return fault

    def fire(self, point: str, **context) -> None:
        context["point"] = point
        for fault in self.faults:
            if fault.point != point:
                continue
            fault.hits += 1
            live = (fault.hits == fault.at if fault.once
                    else fault.hits >= fault.at)
            if not live:
                continue
            fault.triggered += 1
            self.fired.append((point, {
                key: value for key, value in context.items()
                if isinstance(value, (str, int, float, bool, type(None)))}))
            fault.action(context)


_active: Optional[FaultInjector] = None


def fire(point: str, **context) -> None:
    """Hit a fault point; free when no injector is installed."""
    injector = _active
    if injector is not None:
        injector.fire(point, **context)


class installed:
    """Context manager installing ``injector`` as the active one."""

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> FaultInjector:
        global _active
        self._previous = _active
        _active = self.injector
        return self.injector

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        _active = self._previous
