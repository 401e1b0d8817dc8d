"""Registry round-trip: names resolve, typos fail helpfully."""

import pytest

from repro.api import (
    BackendAdapter, UnknownBackendError, VerificationSession,
    available_backends, backend_description, create_backend,
    register_backend, unregister_backend,
)
from repro.core.rules import Rule

FOUR = ("apv", "deltanet", "netplumber", "veriflow")


class TestAvailableBackends:
    def test_lists_all_four(self):
        assert available_backends() == FOUR

    def test_sorted(self):
        names = available_backends()
        assert list(names) == sorted(names)

    def test_descriptions_nonempty(self):
        for name in FOUR:
            assert backend_description(name)


class TestCreateBackend:
    @pytest.mark.parametrize("name", FOUR)
    def test_round_trip(self, name):
        backend = create_backend(name, width=8)
        assert isinstance(backend, BackendAdapter)
        assert backend.name == name
        assert backend.width == 8
        backend.insert(Rule.forward(0, 0, 16, 1, "s1", "s2"))
        assert backend.num_rules == 1
        assert backend.flows_on(("s1", "s2")) == [(0, 16)]

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(UnknownBackendError, match="deltanet"):
            create_backend("deltane")

    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownBackendError, match="available"):
            create_backend("no-such-backend-at-all")

    def test_unknown_is_a_value_error(self):
        with pytest.raises(ValueError):
            VerificationSession("nope")

    def test_options_forwarded(self):
        backend = create_backend("veriflow", width=8, check_loops=False)
        assert backend._check_loops is False
        gc = create_backend("deltanet", width=8, gc=True)
        assert gc.native.gc is True


class TestRegisterBackend:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("deltanet")(type("X", (), {}))

    def test_custom_registration_and_removal(self):
        @register_backend("test-custom")
        class Custom(BackendAdapter):  # pragma: no cover - trivial
            def _do_insert(self, rule):
                raise NotImplementedError

            def _do_remove(self, rule):
                raise NotImplementedError

            def links(self):
                return []

            def flows_on(self, link):
                return []

            def reachable(self, src, dst):
                return []

            def find_loops(self):
                return []

        try:
            assert "test-custom" in available_backends()
            assert Custom.name == "test-custom"
        finally:
            unregister_backend("test-custom")
        assert "test-custom" not in available_backends()


class TestUniformErrors:
    @pytest.mark.parametrize("name", FOUR)
    def test_duplicate_rid(self, name):
        backend = create_backend(name, width=8)
        backend.insert(Rule.forward(0, 0, 16, 1, "s1", "s2"))
        with pytest.raises(ValueError, match="duplicate"):
            backend.insert(Rule.forward(0, 0, 8, 2, "s1", "s3"))

    @pytest.mark.parametrize("name", FOUR)
    def test_unknown_rid(self, name):
        backend = create_backend(name, width=8)
        with pytest.raises(KeyError):
            backend.remove(99)


class _SameRepr:
    """Distinct node objects whose reprs collide (regression fixture)."""

    def __repr__(self):
        return "node"


class TestCanonicalCycle:
    def test_rotation_invariant_under_repr_collisions(self):
        from repro.api.registry import canonical_cycle

        a, b = _SameRepr(), _SameRepr()
        cycle = (a, b, "z")
        rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
        assert len({canonical_cycle(rotation) for rotation in rotations}) == 1
