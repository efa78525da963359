import signal
import time

import pytest

from hostclock import REFERENCE_S, HostClock


class Script:
    """A fake wall clock in which each calibration takes the next of
    the given durations."""

    def __init__(self, durations):
        self.now = 0.0
        self.durations = list(durations)

    def __call__(self):
        return self.now

    def work(self):
        self.now += self.durations.pop(0)


def scripted(durations):
    script = Script(durations)
    clock = HostClock(work=script.work, clock=script, cpu=lambda: 0.0)
    return clock, script


def test_a_gap_counts_at_the_mean_speed_of_its_two_calibrations():
    clock, script = scripted([REFERENCE_S, 3 * REFERENCE_S])
    clock.calibrate()
    script.now += 4.0
    clock.calibrate()
    gap_start, gap_end = REFERENCE_S, REFERENCE_S + 4.0
    assert clock.reference(gap_start, gap_end) == pytest.approx(2.0)
    assert clock.reference(0.0, gap_start) == 0.0
    assert clock.reference(gap_end, script.now) == pytest.approx(0.0)


def test_outside_the_calibrations_the_nearest_one_sets_the_speed():
    clock, script = scripted([2 * REFERENCE_S])
    script.now = 10.0
    clock.calibrate()
    end = script.now
    assert clock.reference(8.0, 10.0) == pytest.approx(1.0)
    assert clock.reference(end, end + 6.0) == pytest.approx(3.0)
    assert clock.reference(8.0, end + 6.0) == pytest.approx(4.0)


def test_at_reference_speed_only_calibration_time_is_left_out():
    clock, script = scripted([REFERENCE_S] * 4)
    for _ in range(3):
        clock.calibrate()
        script.now += 1.0
    clock.calibrate()
    assert clock.reference(0.0, script.now) == pytest.approx(3.0)
    # The map is monotone, so spans keep their nesting.
    points = [0.5 * step for step in range(10)]
    positions = [clock.position(point) for point in points]
    assert positions == sorted(positions)


def test_a_calibration_inside_a_calibration_is_skipped():
    clock, script = scripted([REFERENCE_S])

    def work():
        script.work()
        clock.calibrate()

    clock.work = work
    clock.calibrate()
    assert len(clock.calibrations) == 1


def test_calibration_cpu_is_counted():
    ticks = iter([1.0, 1.5, 4.0, 4.25])
    clock = HostClock(work=lambda: None, cpu=lambda: next(ticks))
    clock.calibrate()
    clock.calibrate()
    assert clock.cpu == pytest.approx(0.75)


def wait_for_calibrations(clock, count):
    deadline = time.monotonic() + 2.0
    while len(clock.calibrations) < count and time.monotonic() < deadline:
        pass


def test_the_clock_calibrates_periodically_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with HostClock(interval=0.01, work=lambda: None) as clock:
        wait_for_calibrations(clock, 4)
    assert len(clock.calibrations) >= 4
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_the_alarm_is_restored_after_an_exception():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with HostClock(interval=0.01, work=lambda: None):
            raise RuntimeError("pipeline failed")
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
