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
    def test_plane_rebinds_the_cac_clock(self):
        # AdmissionPlane construction moves an existing CAC onto the
        # engine's timeline; every later walk's channel reads it.
        import random
        from repro.core import AdmissionPlane, NetworkCAC
        from repro.network.topology import star_network

        cac = NetworkCAC(star_network(3, bounds={0: 32}),
                         rng=random.Random(0))
        engine = Engine()
        plane = AdmissionPlane(cac, engine)
        assert cac.clock is plane.clock
