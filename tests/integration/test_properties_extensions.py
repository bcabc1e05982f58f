"""Property-based tests for the extension modules."""

from statistics import fmean

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bootstrap import bootstrap_ci
from repro.greylist.keying import KeyStrategy, derive_key
from repro.greylist.persistence import dump_store, load_store
from repro.greylist.store import TripletStore
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.smtp.wire import parse_command, render_mail_from, render_rcpt_to

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
localparts = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12
).filter(lambda s: "@" not in s)
domains = st.sampled_from(
    ["x.net", "mail.example", "corp.example", "a.b.example"]
)
emails = st.builds(lambda local, dom: f"{local}@{dom}", localparts, domains)


class TestKeyingProperties:
    @given(addresses, emails, emails)
    def test_full_triplet_is_identity(self, client, sender, recipient):
        key = derive_key(KeyStrategy.FULL_TRIPLET, client, sender, recipient)
        assert key == Triplet(client, sender, recipient)

    @given(addresses, emails, emails)
    def test_coarser_strategies_merge_what_finer_ones_split(
        self, client, sender, recipient
    ):
        # Partition refinement: if two observations share a FULL_TRIPLET
        # key they must share every coarser key.
        fine = derive_key(KeyStrategy.FULL_TRIPLET, client, sender, recipient)
        for strategy in (
            KeyStrategy.CLIENT_NET_TRIPLET,
            KeyStrategy.SENDER_DOMAIN,
            KeyStrategy.CLIENT_ONLY,
        ):
            a = derive_key(strategy, client, sender, recipient)
            b = derive_key(
                strategy, fine.client, fine.sender, fine.recipient
            )
            assert a == b

    @given(addresses, emails, emails, emails)
    def test_client_only_ignores_mail_fields(
        self, client, sender1, sender2, recipient
    ):
        a = derive_key(KeyStrategy.CLIENT_ONLY, client, sender1, recipient)
        b = derive_key(KeyStrategy.CLIENT_ONLY, client, sender2, recipient)
        assert a == b

    @given(addresses, addresses, emails, emails)
    def test_strategies_never_merge_distinct_far_clients(
        self, client_a, client_b, sender, recipient
    ):
        if (client_a.value >> 8) == (client_b.value >> 8):
            return  # same /24: merging is allowed
        for strategy in KeyStrategy:
            a = derive_key(strategy, client_a, sender, recipient)
            b = derive_key(strategy, client_b, sender, recipient)
            assert a != b


class TestPersistenceProperties:
    @settings(max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),   # client index
                st.integers(min_value=0, max_value=5),    # sender index
                st.floats(min_value=0.1, max_value=3600.0, allow_nan=False),
                st.booleans(),                            # mark passed?
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_dump_load_preserves_live_entries(self, events):
        clock = Clock()
        store = TripletStore(clock, retry_window=10 ** 9)
        for client_idx, sender_idx, gap, passed in events:
            clock.advance_by(gap)
            triplet = Triplet(
                IPv4Address(client_idx),
                f"s{sender_idx}@x.example",
                "r@y.example",
            )
            store.observe(triplet)
            if passed:
                store.mark_passed(triplet)
        restored = load_store(dump_store(store), clock, retry_window=10 ** 9)
        assert restored.size == store.size
        for entry in store.entries():
            other = restored.lookup(entry.triplet)
            assert other is not None
            assert other.attempts == entry.attempts
            assert other.passed == entry.passed
            assert other.first_seen == entry.first_seen


class TestWireProperties:
    @given(emails)
    def test_mail_from_roundtrip(self, address):
        assert parse_command(render_mail_from(address)).argument == address

    @given(emails)
    def test_rcpt_to_roundtrip(self, address):
        assert parse_command(render_rcpt_to(address)).argument == address

    @given(emails)
    def test_bare_dialect_roundtrip(self, address):
        command = parse_command(render_mail_from(address, bracketed=False))
        assert command.argument == address


class TestBootstrapProperties:
    @settings(max_examples=25)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=60,
        ),
        st.integers(min_value=0, max_value=100),
    )
    def test_interval_brackets_estimate(self, samples, seed):
        ci = bootstrap_ci(samples, fmean, seed=seed, resamples=100)
        assert ci.low <= ci.estimate <= ci.high
        # Resample means can drift by a few ULPs from the sample extremes.
        slack = 1e-9 * max(1.0, max(abs(s) for s in samples))
        assert min(samples) - slack <= ci.low
        assert ci.high <= max(samples) + slack
