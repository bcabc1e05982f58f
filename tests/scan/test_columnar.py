"""Unit tests for the columnar pipeline (:mod:`repro.scan.columnar`).

The columns are a lossless re-encoding of the generator's ground truth:
every cell must agree with what :class:`SyntheticInternet` actually built.
"""

import pytest

from repro.faults.model import FaultConfig, fault_params
from repro.scan.batch import elided_glue
from repro.scan.columnar import (
    NO_OUTAGE,
    NO_POOL,
    TOPO_POOL_BALANCED,
    TOPO_POOL_FAILOVER,
    build_columnar_chunk,
    chunk_records,
    columnar_adoption_shard,
    pool_apex_of,
)
from repro.scan.population import (
    CATEGORY_ORDER,
    PopulationConfig,
    PopulationPlan,
    SyntheticInternet,
    population_params,
    provider_pool_apex,
)
from repro.scan.profiles import PROFILE_CODE, PROFILES, profile_config
from repro.scan.scanner import DNSScanner

#: A config that exercises every topology branch: self-hosted multi-MX,
#: both pool layouts, transient and persistent outages, both
#: misconfiguration flavours.
POOLED = dict(
    num_domains=600,
    transient_outage_rate=0.05,
    persistent_outage_rate=0.1,
    provider_pool_fraction=0.4,
    provider_equal_preference=0.5,
)


def build_both(config: PopulationConfig, seed: int, chunk_index: int):
    plan = PopulationPlan(config, seed)
    chunk = build_columnar_chunk(plan, config, seed, chunk_index)
    internet = SyntheticInternet.shard(config, seed, [chunk_index])
    return plan, chunk, internet


class TestColumnsMatchGroundTruth:
    @pytest.mark.parametrize("chunk_index", [0, 1])
    def test_pooled_config(self, chunk_index):
        config = PopulationConfig(**POOLED)
        plan, chunk, internet = build_both(config, 42, chunk_index)
        rows = plan.chunk_rows(chunk_index)
        assert chunk.n == len(rows) == len(internet.domains)
        for i, (truth, (index, code, rank)) in enumerate(
            zip(internet.domains, rows)
        ):
            name = plan.name_of(index)
            assert truth.name == name
            assert chunk.category[i] == code
            assert CATEGORY_ORDER[int(chunk.category[i])] is truth.category
            assert int(chunk.rank[i]) == rank
            # The MX record triples are derivable, not stored: hostname,
            # preference and address must all round-trip.
            expected = [
                (host, pref, None if addr is None else addr.value)
                for host, pref, addr in truth.mx_hosts
            ]
            assert chunk_records(chunk, i, name) == expected
            assert int(chunk.mx_count[i]) == len(truth.mx_hosts)
            # Outage schedule and provider-pool cells.
            outage = int(chunk.outage_scan[i])
            assert (None if outage == NO_OUTAGE else outage) == truth.outage_scan
            assert bool(chunk.persistent[i]) == truth.persistent_outage
            pool = int(chunk.provider_pool[i])
            assert (None if pool == NO_POOL else pool) == truth.provider_pool
            if truth.provider_pool is not None:
                expected_topo = (
                    TOPO_POOL_BALANCED
                    if truth.pool_balanced
                    else TOPO_POOL_FAILOVER
                )
                assert int(chunk.topology[i]) == expected_topo
                assert pool_apex_of(chunk, i) == provider_pool_apex(
                    truth.provider_pool
                )
            else:
                assert pool_apex_of(chunk, i) is None

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_every_profile(self, name):
        config = profile_config(name, num_domains=400)
        _, chunk, internet = build_both(config, 7, 0)
        assert all(p == PROFILE_CODE[name] for p in chunk.profile)
        for i, truth in enumerate(internet.domains):
            expected = [
                (host, pref, None if addr is None else addr.value)
                for host, pref, addr in truth.mx_hosts
            ]
            assert chunk_records(chunk, i, truth.name) == expected


class TestGlueElision:
    """Fault-free elision stays columnar; only faults reach the replay."""

    @staticmethod
    def _payload(**extra):
        config = profile_config("provider-consolidated", num_domains=500)
        return {
            "population": population_params(config),
            "seed": 11,
            "glue_elision_rate": 0.1,
            "chunk": 0,
            **extra,
        }

    def test_elision_never_delegates(self, monkeypatch):
        from repro.scan import batch

        def refuse(payload):
            raise AssertionError("fault-free payload went to the faulted replay")

        monkeypatch.setattr(batch, "batched_adoption_shard", refuse)
        assert columnar_adoption_shard(self._payload())["repaired"] > 0

    def test_faults_still_delegate(self, monkeypatch):
        from repro.scan import batch

        replay = batch.batched_adoption_shard
        calls = []

        def spy(payload):
            calls.append(payload["chunk"])
            return replay(payload)

        monkeypatch.setattr(batch, "batched_adoption_shard", spy)
        payload = self._payload(
            faults=fault_params(FaultConfig.uniform(0.05, seed=3))
        )
        assert columnar_adoption_shard(payload) == replay(payload)
        assert calls == [0]

    @pytest.mark.parametrize("scan_index", [0, 1])
    def test_elided_glue_matches_scanner(self, scan_index):
        # The shared per-domain draw contract against the object scanner:
        # the capture drops exactly the glue records the helper names, in
        # record order among the glue-carrying ones.
        config = PopulationConfig(**POOLED)
        internet = SyntheticInternet.shard(config, 42, [0])
        scanner = DNSScanner(internet, glue_elision_rate=0.5, seed=42)
        capture = {o.domain: o for o in scanner.iter_observations(scan_index)}
        elided_total = 0
        for truth in internet.domains:
            glued = [host for host, _, addr in truth.mx_hosts if addr is not None]
            if not glued:
                continue
            dropped = elided_glue(42, truth.name, {scan_index: len(glued)}, 0.5)
            expected = {
                host for host, lost in zip(glued, dropped[scan_index]) if lost
            }
            lost = {
                record.exchange
                for record in capture[truth.name].mx
                if record.address is None and record.exchange in glued
            }
            assert lost == expected, truth.name
            elided_total += len(expected)
        assert elided_total > 0

    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_elision_rate_calibrated(self, rate):
        # 24,000 glue-carrying records (3,000 domains, four records in
        # each of two captures): the share elided lies within four
        # binomial standard deviations of the rate.
        records = elided = 0
        for i in range(3000):
            dropped = elided_glue(5, f"dom{i:07d}.example", {0: 4, 1: 4}, rate)
            for capture in dropped.values():
                records += len(capture)
                elided += sum(capture)
        sd = (records * rate * (1 - rate)) ** 0.5
        assert abs(elided - records * rate) <= 4 * sd

    @pytest.mark.parametrize("carrying", [{0: 5}, {1: 5}, {2: 1}, {-1: 1}])
    def test_draws_cover_two_captures_of_four_records(self, carrying):
        with pytest.raises(ValueError):
            elided_glue(5, "dom0000000.example", carrying, 0.1)


class TestProfiles:
    def test_registry_and_codes_aligned(self):
        assert set(PROFILE_CODE) == set(PROFILES)
        assert len(set(PROFILE_CODE.values())) == len(PROFILE_CODE)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_configs_valid_and_roundtrip(self, name):
        config = profile_config(name, num_domains=300)
        assert config.num_domains == 300
        assert config.profile == name
        # Canonical params survive the worker-payload round trip.
        from repro.scan.population import population_from_params

        assert population_from_params(population_params(config)) == config

    def test_overrides_win(self):
        config = profile_config(
            "dns-abuse", num_domains=100, transient_outage_rate=0.2
        )
        assert config.transient_outage_rate == 0.2

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            profile_config("figure3", num_domains=10)
