"""The failure detector: suspicion machine, flap damping, latency."""

import pytest

from repro.obs.clock import ManualClock
from repro.robustness.health import DOWN, SUSPECT, UP, HealthMonitor


def monitor(**kwargs):
    return HealthMonitor(clock=ManualClock(), **kwargs)


class TestSuspicionStateMachine:
    def test_unseen_target_is_up(self):
        assert monitor().state("anything") == UP
        assert not monitor().is_down("anything")

    def test_single_timeout_is_only_suspect(self):
        health = monitor()
        newly_down = health.record_timeout("s0->s1")
        assert not newly_down
        assert health.state("s0->s1") == SUSPECT
        assert not health.is_down("s0->s1")

    def test_threshold_consecutive_timeouts_declare_down(self):
        health = monitor(suspicion_threshold=3)
        assert not health.record_timeout("s0->s1")
        assert not health.record_timeout("s0->s1")
        assert health.record_timeout("s0->s1")  # newly down
        assert health.state("s0->s1") == DOWN
        # Further timeouts are not *new* declarations.
        assert not health.record_timeout("s0->s1")

    def test_success_resets_suspect_to_up(self):
        health = monitor(suspicion_threshold=3)
        health.record_timeout("s0->s1")
        health.record_timeout("s0->s1")
        health.record_success("s0->s1")
        assert health.state("s0->s1") == UP
        # The consecutive count restarted: two more timeouts only suspect.
        health.record_timeout("s0->s1")
        health.record_timeout("s0->s1")
        assert health.state("s0->s1") == SUSPECT

    def test_success_recovers_down_target_when_not_flapping(self):
        health = monitor(suspicion_threshold=2)
        health.record_timeout("s0->s1")
        health.record_timeout("s0->s1")
        assert health.is_down("s0->s1")
        health.record_success("s0->s1")
        assert health.state("s0->s1") == UP

    def test_targets_are_independent(self):
        health = monitor(suspicion_threshold=2)
        health.record_timeout("a", kind="link")
        health.record_timeout("a", kind="link")
        health.record_timeout("b", kind="switch")
        assert health.is_down("a")
        assert health.state("b") == SUSPECT
        assert health.down_targets() == ["a"]
        assert health.down_targets(kind="switch") == []
        assert health.snapshot() == {
            "a": ("link", DOWN), "b": ("switch", SUSPECT),
        }


class TestFlapDamping:
    def flap(self, health, target, times, clock, gap=1.0):
        """Bounce the target down/up ``times`` times."""
        for _ in range(times):
            while not health.is_down(target):
                health.record_timeout(target)
            clock.advance(gap)
            health.record_success(target)

    def test_flapping_target_disbelieves_success(self):
        clock = ManualClock()
        health = HealthMonitor(clock=clock, suspicion_threshold=2,
                               flap_window=240.0, flap_threshold=3,
                               hold_down=60.0)
        # Two bounces are believed...
        self.flap(health, "link", 2, clock)
        assert health.state("link") == UP
        # ...the third down inside the window engages damping.
        health.record_timeout("link")
        health.record_timeout("link")
        assert health.is_down("link")
        health.record_success("link")
        assert health.is_down("link"), "success believed while flapping"

    def test_hold_down_elapsed_readmits_success(self):
        clock = ManualClock()
        health = HealthMonitor(clock=clock, suspicion_threshold=2,
                               flap_window=240.0, flap_threshold=3,
                               hold_down=60.0)
        self.flap(health, "link", 3, clock)
        assert health.is_down("link")
        clock.advance(60.0)  # quiet for hold_down since last timeout
        health.record_success("link")
        assert health.state("link") == UP

    def test_old_downs_age_out_of_the_window(self):
        clock = ManualClock()
        health = HealthMonitor(clock=clock, suspicion_threshold=1,
                               flap_window=100.0, flap_threshold=2,
                               hold_down=50.0)
        health.record_timeout("link")          # down #1 at t=0
        clock.advance(1.0)
        health.record_success("link")
        clock.advance(200.0)                   # down #1 leaves the window
        health.record_timeout("link")          # down #2 at t=201
        health.record_success("link")          # only 1 recent down: believed
        assert health.state("link") == UP


class TestGroundTruthLatency:
    def test_listener_stamps_failure_instant(self):
        clock = ManualClock()
        health = HealthMonitor(clock=clock, suspicion_threshold=2)
        listener = health.link_listener()
        clock.advance(10.0)
        listener("s0->s1", False)  # injector fails the link at t=10
        clock.advance(5.0)
        health.record_timeout("s0->s1")
        clock.advance(5.0)
        health.record_timeout("s0->s1")
        assert health.is_down("s0->s1")
        assert health.detection_latency("s0->s1") == pytest.approx(10.0)

    def test_latency_unknown_without_ground_truth(self):
        health = monitor(suspicion_threshold=1)
        health.record_timeout("s0->s1")
        assert health.is_down("s0->s1")
        assert health.detection_latency("s0->s1") is None

    def test_listener_does_not_move_the_state_machine(self):
        health = monitor()
        health.link_listener()("s0->s1", False)
        assert health.state("s0->s1") == UP

    def test_repair_clears_the_stamp(self):
        clock = ManualClock()
        health = HealthMonitor(clock=clock, suspicion_threshold=1)
        listener = health.link_listener()
        listener("s0->s1", False)
        listener("s0->s1", True)
        health.record_timeout("s0->s1")
        assert health.detection_latency("s0->s1") is None


class TestHooksAndValidation:
    def test_on_down_fires_once_per_transition(self):
        health = monitor(suspicion_threshold=2)
        fired = []
        health.on_down(lambda target, kind: fired.append((target, kind)))
        health.record_timeout("s0->s1", kind="link")
        health.record_timeout("s0->s1", kind="link")
        health.record_timeout("s0->s1", kind="link")  # already down
        assert fired == [("s0->s1", "link")]
        health.record_success("s0->s1")
        health.record_timeout("s0->s1")
        health.record_timeout("s0->s1")
        assert fired == [("s0->s1", "link")] * 2

    def test_detection_counter(self, obs_enabled):
        registry, _tracer = obs_enabled
        health = monitor(suspicion_threshold=1)
        health.record_timeout("s0->s1", kind="link")
        health.record_timeout("s1", kind="switch")
        assert registry.total("cac_failure_detections_total") == 2

    @pytest.mark.parametrize("kwargs", [
        {"suspicion_threshold": 0},
        {"flap_threshold": 1},
        {"flap_window": 0},
        {"hold_down": -1.0},
    ])
    def test_bad_parameters_refused(self, kwargs):
        with pytest.raises(ValueError):
            monitor(**kwargs)
