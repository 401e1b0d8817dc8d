"""The fault injector: arming, matching, and the stock actions."""

import pytest

from repro.faults.injector import (
    Fault, FaultInjector, InjectedCrash, crash, fire, installed,
)


class TestFirePoint:
    def test_noop_when_nothing_installed(self):
        # The production path: a bare global read, no effect.
        fire("store.checkpoint.tmp-written", sequence=7)

    def test_installed_scopes_the_injector(self):
        injector = FaultInjector([Fault("p", crash)])
        with installed(injector):
            with pytest.raises(InjectedCrash):
                fire("p")
        fire("p")  # uninstalled again: back to a no-op

    def test_installed_nests_and_restores(self):
        outer, inner = FaultInjector(), FaultInjector()
        with installed(outer):
            with installed(inner):
                fire("p", shard=1)
            fire("p", shard=2)
        assert [ctx["shard"] for _pt, ctx in inner.fired] == []
        assert inner.faults == [] and outer.faults == []


class TestFaultMatching:
    def test_triggers_on_nth_hit_only(self):
        fault = Fault("p", crash, at=3)
        injector = FaultInjector([fault])
        injector.fire("p")
        injector.fire("p")
        assert fault.triggered == 0
        with pytest.raises(InjectedCrash):
            injector.fire("p")
        # once=True (the default): disarmed after the trigger.
        injector.fire("p")
        assert fault.triggered == 1
        assert fault.hits == 4

    def test_every_hit_when_not_once(self):
        fault = Fault("p", lambda ctx: None, at=2, once=False)
        injector = FaultInjector([fault])
        for _ in range(4):
            injector.fire("p")
        assert fault.triggered == 3  # hits 2, 3, 4

    def test_point_names_are_exact(self):
        injector = FaultInjector([Fault("store.checkpoint.tmp", crash)])
        injector.fire("store.checkpoint.tmp-written")  # different point
        assert injector.fired == []

    def test_fired_log_keeps_scalars_only(self):
        injector = FaultInjector([Fault("p", lambda ctx: None)])
        injector.fire("p", shard=3, stream=object(), note="x")
        (point, context), = injector.fired
        assert point == "p"
        assert context == {"point": "p", "shard": 3, "note": "x"}


class TestStockActions:
    def test_crash_is_not_swallowed_by_except_exception(self):
        # The whole point of InjectedCrash deriving from BaseException:
        # recovery code under test catches Exception, and must not be
        # able to absorb a simulated kill -9.
        with pytest.raises(InjectedCrash):
            try:
                crash({"point": "p"})
            except Exception:  # pragma: no cover - must not run
                pytest.fail("recovery code swallowed the injected crash")
