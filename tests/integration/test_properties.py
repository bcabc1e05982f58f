"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.cdf import EmpiricalCDF, ks_distance
from repro.dns.mxutil import sort_mx
from repro.dns.records import MXRecord
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import TripletStore
from repro.greylist.triplet import Triplet
from repro.mta.schedule import FixedIntervalSchedule, TableSchedule
from repro.net.address import IPv4Address
from repro.sim.clock import Clock, format_duration
from repro.sim.events import EventScheduler
from repro.sim.rng import RandomStream

ipv4_values = st.integers(min_value=0, max_value=(1 << 32) - 1)
small_floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAddressProperties:
    @given(ipv4_values)
    def test_parse_str_roundtrip(self, value):
        address = IPv4Address(value)
        assert IPv4Address.parse(str(address)) == address

    @given(ipv4_values, ipv4_values)
    def test_ordering_matches_values(self, a, b):
        assert (IPv4Address(a) < IPv4Address(b)) == (a < b)


class TestDurationProperties:
    @given(st.integers(min_value=0, max_value=10 ** 7))
    def test_format_parse_roundtrip(self, seconds):
        minutes, secs = format_duration(seconds).split(":")
        assert len(secs) == 2 and int(secs) < 60
        assert int(minutes) * 60 + int(secs) == seconds


class TestCDFProperties:
    @given(st.lists(small_floats, min_size=1, max_size=200))
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        xs = sorted(set(samples)) + [max(samples) + 1.0]
        values = [cdf.at(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    @given(st.lists(small_floats, min_size=1, max_size=100))
    def test_quantile_inverts_cdf(self, samples):
        cdf = EmpiricalCDF.from_samples(samples)
        for q in (0.25, 0.5, 0.75, 1.0):
            assert cdf.at(cdf.quantile(q)) >= q

    @given(
        st.lists(small_floats, min_size=1, max_size=60),
        st.lists(small_floats, min_size=1, max_size=60),
    )
    def test_ks_distance_is_metric_like(self, a, b):
        cdf_a = EmpiricalCDF.from_samples(a)
        cdf_b = EmpiricalCDF.from_samples(b)
        d = ks_distance(cdf_a, cdf_b)
        assert 0.0 <= d <= 1.0
        assert ks_distance(cdf_b, cdf_a) == d
        assert ks_distance(cdf_a, cdf_a) == 0.0


class TestMXSortProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=65535),
                st.integers(min_value=0, max_value=30),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_sort_mx_orders_by_preference(self, specs):
        records = [
            MXRecord("d.example", pref, f"mx{idx}.d.example")
            for pref, idx in specs
        ]
        ordered = sort_mx(records)
        assert sorted(r.preference for r in ordered) == [
            r.preference for r in ordered
        ]
        assert sorted(str(r) for r in ordered) == sorted(str(r) for r in records)


class TestScheduleProperties:
    @given(
        st.floats(min_value=10.0, max_value=7200.0, allow_nan=False),
        st.floats(min_value=3600.0, max_value=86400.0, allow_nan=False),
    )
    def test_fixed_interval_attempt_times_monotone(self, interval, horizon):
        schedule = FixedIntervalSchedule(interval=interval, max_queue_time=None)
        times = schedule.attempt_times(horizon)
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(t <= horizon for t in times)

    @given(
        st.lists(
            st.floats(min_value=1.0, max_value=10 ** 5, allow_nan=False),
            min_size=1,
            max_size=15,
            unique=True,
        )
    )
    def test_table_schedule_reproduces_its_ages(self, raw_ages):
        ages = sorted(raw_ages)
        schedule = TableSchedule(ages=ages, max_queue_time=None, repeat_last=False)
        times = schedule.attempt_times(ages[-1] + 1)
        expected = [0.0] + ages
        # Delays accumulate in floating point; compare within tolerance.
        assert len(times) == len(expected)
        assert all(
            abs(a - b) < 1e-6 * max(1.0, b) for a, b in zip(times, expected)
        )


class TestTripletStoreProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),   # client index
                st.integers(min_value=0, max_value=3),   # sender index
                st.floats(min_value=0.1, max_value=3600.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_attempt_counts_accumulate(self, events):
        clock = Clock()
        store = TripletStore(clock, retry_window=10 ** 9)
        expected = {}
        for client_idx, sender_idx, gap in events:
            clock.advance_by(gap)
            triplet = Triplet(
                IPv4Address(client_idx),
                f"s{sender_idx}@x.example",
                "r@y.example",
            )
            entry = store.observe(triplet)
            expected[triplet] = expected.get(triplet, 0) + 1
            assert entry.attempts == expected[triplet]
        assert store.size == len(expected)

    @given(st.floats(min_value=0.0, max_value=86400.0, allow_nan=False))
    def test_policy_pass_iff_age_at_least_delay(self, age):
        clock = Clock()
        policy = GreylistPolicy(clock=clock, delay=300.0)
        client = IPv4Address.parse("198.51.100.1")
        policy.on_rcpt_to(client, "s@x.example", "r@y.example")
        clock.advance_by(age)
        decision = policy.on_rcpt_to(client, "s@x.example", "r@y.example")
        assert decision.accept == (age >= 300.0)


class TestSchedulerProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_events_fire_in_sorted_order(self, times):
        scheduler = EventScheduler()
        fired = []
        for t in times:
            scheduler.schedule_at(t, lambda t=t: fired.append(t))
        scheduler.run()
        assert fired == sorted(times)
        assert scheduler.events_processed == len(times)

    @given(st.integers(min_value=0, max_value=2 ** 31), st.text(max_size=20))
    def test_rng_split_deterministic(self, seed, label):
        a = RandomStream(seed).split(label)
        b = RandomStream(seed).split(label)
        assert a.random() == b.random()
