import signal
import time

import pytest

import speed
from speed import Interval, SpeedProbe


def test_probe_samples_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        _, interval = probe.timed(time.sleep, 0.1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.costs) >= 5
    assert interval.busy == pytest.approx(interval.end - interval.start - probe.spent, abs=1e-3)


def test_scaled_divides_by_the_mean_probe_cost_near_the_interval():
    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 10.0]
    probe.costs = [1e-4, 2e-4, 3e-4, 9e-4]
    assert probe.scaled(Interval(0.95, 2.05, 1.0)) == pytest.approx(1.0 * 1e-4 / 2.5e-4)
    # No sample within the padding: the nearest ones on either side are used.
    assert probe.scaled(Interval(5.0, 6.0, 1.0)) == pytest.approx(1e-4 / 6e-4)


def test_kernel_is_deterministic():
    assert speed.kernel() == speed.kernel()
