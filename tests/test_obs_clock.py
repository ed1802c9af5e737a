"""The unified Clock protocol: one timeline for every time consumer."""

import pytest

from repro.exceptions import SimulationError
from repro.obs.clock import (
    Clock,
    EngineClock,
    ManualClock,
    SystemClock,
    get_clock,
    set_clock,
)
from repro.sim.engine import Engine


class TestProtocol:
    def test_every_implementation_satisfies_clock(self):
        for clock in (SystemClock(), ManualClock(), EngineClock(Engine())):
            assert isinstance(clock, Clock)


class TestManualClock:
    def test_advances_monotonically(self):
        clock = ManualClock(start=2.0)
        assert clock.now() == 2.0
        assert clock.advance(3.5) == 5.5
        assert clock.now() == 5.5

    def test_negative_advance_refused(self):
        with pytest.raises(ValueError, match="advance"):
            ManualClock().advance(-0.1)


class TestSystemClock:
    def test_reads_monotonic_time(self):
        clock = SystemClock()
        first = clock.now()
        assert clock.now() >= first


class TestEngineClock:
    def test_reads_engine_time(self):
        engine = Engine()
        clock = EngineClock(engine)
        assert clock.now() == 0.0
        seen = []
        engine.schedule(4.0, lambda: seen.append(clock.now()))
        engine.run()
        assert seen == [4.0]
        assert clock.engine is engine

    def test_zero_advance_is_a_noop(self):
        clock = EngineClock(Engine())
        assert clock.advance(0.0) == 0.0

    def test_nonzero_advance_is_a_programming_error(self):
        # Engine time moves only through scheduled events; a synchronous
        # driver trying to push it forward must fail loudly.
        with pytest.raises(SimulationError, match="engine process"):
            EngineClock(Engine()).advance(1.0)


class TestGlobalClock:
    def test_set_clock_swaps_and_restores(self):
        injected = ManualClock(start=9.0)
        previous = set_clock(injected)
        try:
            assert get_clock() is injected
        finally:
            assert set_clock(previous) is injected
        assert get_clock() is previous


class TestCacRebinding:
    def test_bind_clock_reaches_health_and_breakers(self):
        # AdmissionPlane construction rebinds an existing CAC -- every
        # component holding a clock reference must move with it,
        # including breakers created before the rebind.
        import random
        from repro.core import AdmissionPlane, NetworkCAC
        from repro.network.topology import star_network

        cac = NetworkCAC(star_network(3, bounds={0: 32}),
                         rng=random.Random(0))
        breaker = cac.breakers.breaker("hub", "t0->hub")  # pre-rebind
        engine = Engine()
        plane = AdmissionPlane(cac, engine)
        assert cac.clock is plane.clock
        assert cac.health._clock is plane.clock
        assert cac.breakers.clock is plane.clock
        assert breaker.clock is plane.clock
