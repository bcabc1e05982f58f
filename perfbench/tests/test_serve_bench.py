from array import array

import pytest

import openloop
import serve_bench
import stats


def burst(latency_ms, n=100, rate=1000.0, cpu_us=50.0, slowness=1.0):
    """``n`` requests at ``rate``, each answered ``latency_ms`` after it was due."""
    due = array("d", (k / rate for k in range(n)))
    done = array("d", (t + latency_ms / 1e3 for t in due))
    phase = openloop.Phase(due=due, sent=array("d", due), done=done, answered=n)
    return serve_bench.Burst(phase, cpu_ns=int(cpu_us * 1e3 * n), slowness=slowness)


def test_burst_figures_are_divided_by_the_cpu_slowness():
    # the same work on a CPU running at half speed reads the same
    timed = serve_bench.Timed([burst(0.1), burst(0.2, cpu_us=100.0, slowness=2.0)])
    assert timed.p50_ms() == pytest.approx(0.1)
    assert timed.cpu_us_per_op() == pytest.approx(50.0)


def test_medians_over_bursts_ignore_one_stall():
    timed = serve_bench.Timed([burst(0.1), burst(50.0), burst(0.1)])
    assert timed.p50_ms() == pytest.approx(0.1)
    # over all samples the stall owns the top third
    assert stats.percentile(timed.latencies_ms(), 90.0) == pytest.approx(50.0)


def test_saturated_rate_is_scaled_up_by_the_slowness():
    # 100 answers over 99 ms of sends plus 1 ms, on a CPU at half speed
    timed = serve_bench.Timed([burst(1.0, slowness=2.0)])
    assert timed.ops_per_s() == pytest.approx(100 / 0.1 * 2.0)
    assert timed.busy_share() == pytest.approx(100 * 50e-6 / 0.1)
