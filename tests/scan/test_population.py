"""Unit tests for the synthetic internet population generator."""

import hashlib

import pytest

from repro.dns.mxutil import implicit_mx, resolve_exchangers
from repro.dns.resolver import StubResolver
from repro.net.address import IPv4Network
from repro.scan.alexa import PAPER_NOLISTING_RANKS
from repro.scan.population import (
    FIGURE2_MIX,
    POOL_HOSTS,
    PROVIDER_ADDRESS_SPACE,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    SyntheticInternet,
)
from repro.scan.profiles import PROFILES, profile_config


@pytest.fixture(scope="module")
def internet():
    return SyntheticInternet(PopulationConfig(num_domains=2000), seed=42)


class TestConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PopulationConfig(
                num_domains=10,
                mix={DomainCategory.SINGLE_MX: 0.5},
            )

    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_domains=10, transient_outage_rate=1.5)

    def test_needs_domains(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_domains=0)

    def test_figure2_mix_sums_to_one(self):
        assert sum(FIGURE2_MIX.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("space", ["10.0.0.0/24", "255.255.255.0/24"])
    def test_address_space_must_fit_population(self, space):
        # 1,000 domains in two 512-domain chunks reserve 4,096 addresses.
        with pytest.raises(ValueError, match="address_space"):
            PopulationConfig(num_domains=1000, address_space=space)

    def test_address_space_that_fits_is_accepted(self):
        PopulationConfig(num_domains=64, chunk_size=64, address_space="10.0.0.0/24")

    def test_mix_fractions_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError, match="mix"):
            PopulationConfig(
                num_domains=10,
                mix={DomainCategory.SINGLE_MX: 1.5, DomainCategory.MULTI_MX: -0.5},
            )

    @pytest.mark.parametrize(
        "single, multi", [(float("nan"), 1.0), (float("inf"), float("-inf"))]
    )
    def test_mix_fractions_must_be_finite(self, single, multi):
        # Both mixes sum to NaN, which slips past a sum-to-one check.
        with pytest.raises(ValueError, match="mix"):
            PopulationConfig(
                num_domains=10,
                mix={DomainCategory.SINGLE_MX: single, DomainCategory.MULTI_MX: multi},
            )

    @pytest.mark.parametrize("weights", [(), (0.2,) * 4, (0.125,) * 8])
    def test_extra_mx_weight_count_bounded(self, weights):
        # Every extra exchanger takes an address: a multi-MX domain holds
        # at most MAX_ADDRESSES_PER_DOMAIN of them.
        with pytest.raises(ValueError, match="extra_mx_weights"):
            PopulationConfig(num_domains=10, extra_mx_weights=weights)

    @pytest.mark.parametrize(
        "weights",
        [
            (0.5, float("nan"), 0.5),
            (0.5, float("inf"), 0.5),
            (1.5, -0.5),
            (0.0, 0.0, 0.0),
        ],
    )
    def test_extra_mx_weights_finite_non_negative_positive_sum(self, weights):
        with pytest.raises(ValueError, match="extra_mx_weights"):
            PopulationConfig(num_domains=10, extra_mx_weights=weights)

    @pytest.mark.parametrize(
        "rate",
        [
            "persistent_outage_rate",
            "dangling_mx_fraction",
            "provider_pool_fraction",
            "provider_equal_preference",
        ],
    )
    def test_every_rate_bounded(self, rate):
        with pytest.raises(ValueError, match="rates"):
            PopulationConfig(num_domains=10, **{rate: -0.1})
        with pytest.raises(ValueError, match="rates"):
            PopulationConfig(num_domains=10, **{rate: float("nan")})

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk_size"):
            PopulationConfig(num_domains=10, chunk_size=0)

    def test_provider_pool_count_must_be_positive(self):
        with pytest.raises(ValueError, match="provider_pool_count"):
            PopulationConfig(num_domains=10, provider_pool_count=0)

    def test_provider_pools_must_fit_their_block(self):
        block = IPv4Network.parse(PROVIDER_ADDRESS_SPACE)
        fits = block.num_addresses // POOL_HOSTS
        PopulationConfig(
            num_domains=10, provider_pool_fraction=0.1, provider_pool_count=fits
        )
        with pytest.raises(ValueError, match="provider pools exceed"):
            PopulationConfig(
                num_domains=10,
                provider_pool_fraction=0.1,
                provider_pool_count=fits + 1,
            )

    @pytest.mark.parametrize("space", ["198.18.0.0/24", "198.0.0.0/8"])
    def test_population_space_must_avoid_the_provider_block(self, space):
        # Only a population that uses provider pools reserves the block.
        PopulationConfig(num_domains=10, chunk_size=10, address_space=space)
        with pytest.raises(ValueError, match="overlaps the provider pool"):
            PopulationConfig(
                num_domains=10,
                chunk_size=10,
                address_space=space,
                provider_pool_fraction=0.1,
            )

    def test_fewer_extra_mx_weights_accepted(self):
        internet = SyntheticInternet(
            PopulationConfig(num_domains=200, extra_mx_weights=(1.0,)), seed=7
        )
        multi = domains_in(internet, DomainCategory.MULTI_MX)
        assert multi and all(len(t.mx_hosts) == 2 for t in multi)


class TestGeneration:
    def test_exact_domain_count(self, internet):
        assert internet.num_domains == 2000
        assert len(internet.domains) == 2000

    def test_category_counts_match_mix(self, internet):
        counts = internet.truth_counts()
        # Largest-remainder apportionment: counts within 1 of exact shares.
        for category, fraction in FIGURE2_MIX.items():
            assert abs(counts[category] - 2000 * fraction) <= 1

    def test_deterministic_for_seed(self):
        a = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        b = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        assert [t.category for t in a.domains] == [t.category for t in b.domains]

    def test_different_seeds_shuffle_categories(self):
        a = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        b = SyntheticInternet(PopulationConfig(num_domains=300), seed=8)
        assert [t.category for t in a.domains] != [t.category for t in b.domains]

    def test_alexa_ranks_are_a_permutation(self, internet):
        ranks = sorted(t.alexa_rank for t in internet.domains)
        assert ranks == list(range(1, 2001))


class TestPlanChunks:
    def _plan(self):
        return PopulationPlan(
            PopulationConfig(num_domains=300, chunk_size=128), seed=5
        )

    @pytest.mark.parametrize("chunk", [-1, 3])
    def test_chunk_index_out_of_range_rejected(self, chunk):
        with pytest.raises(ValueError, match="out of range"):
            self._plan().chunk_rows(chunk)

    def test_rows_follow_planted_ranks(self):
        plan = self._plan()
        columnar = [row for k in range(plan.num_chunks) for row in plan.chunk_rows(k)]
        assert [row[0] for row in columnar] == list(range(300))
        assert len(plan.chunk_rows(2)) == 300 - 2 * 128
        # Planting re-ranks domains, which the rows then report.
        planted = set(plan.plant([1, 2]))
        after = [row for k in range(plan.num_chunks) for row in plan.chunk_rows(k)]
        assert after != columnar
        assert [row[2] for row in after] == [plan.rank(row[0]) for row in after]
        assert {plan.rank(index) for index in planted} == {1, 2}


class TestGroundTruthStructure:
    def test_single_mx_domains(self, internet):
        for truth in domains_in(internet, DomainCategory.SINGLE_MX)[:20]:
            assert len(truth.mx_hosts) == 1
            assert truth.primary[2] is not None

    def test_multi_mx_domains(self, internet):
        for truth in domains_in(internet, DomainCategory.MULTI_MX)[:20]:
            assert len(truth.mx_hosts) >= 2

    def test_nolisting_domains_have_dead_primary(self, internet):
        for truth in domains_in(internet, DomainCategory.NOLISTING):
            primary = truth.primary
            assert primary is not None
            assert not internet.is_listening(primary[2], scan_index=0)
            assert not internet.is_listening(primary[2], scan_index=1)
            # At least one secondary answers.
            secondaries = [h for h in truth.mx_hosts if h is not primary]
            assert any(
                addr is not None and internet.is_listening(addr, 0)
                for (_, _, addr) in secondaries
            )

    def test_misconfigured_domains_lack_usable_mx(self, internet):
        for truth in domains_in(internet, DomainCategory.MISCONFIGURED)[:20]:
            assert all(addr is None for (_, _, addr) in truth.mx_hosts)

    def test_zones_created_for_all_domains(self, internet):
        assert internet.zones.num_zones == 2000


def domains_in(internet, category):
    """The generated domains of one category, in generation order."""
    return [t for t in internet.domains if t.category is category]


def exchangers_of(internet, truth):
    """``truth``'s exchangers as a scanner resolves them from the zones."""
    return resolve_exchangers(StubResolver(internet.zones), truth.name)


def misconfigured(internet, dangling):
    """Misconfigured domains with a dangling MX, or with no MX at all."""
    return [
        t
        for t in domains_in(internet, DomainCategory.MISCONFIGURED)
        if bool(t.mx_hosts) == dangling
    ]


class TestGeneratedZones:
    """The generator's zones, read back the way the DNS scan reads them."""

    def test_single_mx_domain_resolves_to_its_listener(self, internet):
        for truth in domains_in(internet, DomainCategory.SINGLE_MX):
            (exchanger,) = exchangers_of(internet, truth)
            assert exchanger.address == truth.primary[2]
            for scan in (0, 1):
                assert internet.is_listening(exchanger.address, scan) == (
                    truth.outage_scan != scan
                )

    def test_multi_mx_exchangers_resolve_in_preference_order(self, internet):
        for truth in domains_in(internet, DomainCategory.MULTI_MX):
            exchangers = exchangers_of(internet, truth)
            assert len(exchangers) == len(truth.mx_hosts) >= 2
            assert all(e.resolvable for e in exchangers)
            preferences = [e.preference for e in exchangers]
            assert preferences == sorted(set(preferences))
            assert exchangers[0].address == truth.primary[2]

    def test_multi_mx_exchangers_listen_outside_outages(self, internet):
        for truth in domains_in(internet, DomainCategory.MULTI_MX):
            primary, *secondaries = exchangers_of(internet, truth)
            for scan in (0, 1):
                assert internet.is_listening(primary.address, scan) == (
                    truth.outage_scan != scan
                )
                assert all(internet.is_listening(s.address, scan) for s in secondaries)

    def test_nolisting_dead_primary_is_the_first_exchanger(self, internet):
        for truth in domains_in(internet, DomainCategory.NOLISTING):
            primary, *secondaries = exchangers_of(internet, truth)
            assert secondaries
            # A real A record for a host that refuses port 25 (Figure 1).
            assert primary.resolvable
            assert primary.preference < secondaries[0].preference
            for scan in (0, 1):
                assert not internet.is_listening(primary.address, scan)
                assert internet.is_listening(secondaries[0].address, scan)

    def test_misconfigured_domains_come_in_both_kinds(self, internet):
        no_mx = misconfigured(internet, dangling=False)
        dangling = misconfigured(internet, dangling=True)
        assert no_mx and dangling
        assert len(no_mx) + len(dangling) == internet.truth_counts()[
            DomainCategory.MISCONFIGURED
        ]

    def test_no_mx_domain_exists_but_names_no_exchanger(self, internet):
        resolver = StubResolver(internet.zones)
        for truth in misconfigured(internet, dangling=False):
            # NODATA rather than NXDOMAIN: the zone answers, without MX.
            assert resolve_exchangers(resolver, truth.name) == []
            # No apex A record either, so no implicit MX to fall back on.
            assert implicit_mx(resolver, truth.name) is None
            assert resolver.resolve_a(f"www.{truth.name}")

    def test_dangling_mx_names_an_unresolvable_exchanger(self, internet):
        for truth in misconfigured(internet, dangling=True):
            (exchanger,) = exchangers_of(internet, truth)
            assert exchanger.hostname == truth.mx_hosts[0][0]
            assert not exchanger.resolvable

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_dangling_fraction_picks_the_misconfiguration(self, fraction):
        internet = SyntheticInternet(
            PopulationConfig(num_domains=1000, dangling_mx_fraction=fraction), seed=42
        )
        assert domains_in(internet, DomainCategory.MISCONFIGURED)
        assert misconfigured(internet, dangling=fraction == 0.0) == []

    def test_pool_domains_share_the_pools_exchangers(self):
        internet = SyntheticInternet(PopulationConfig(**POOLED), seed=42)
        resolver = StubResolver(internet.zones)
        domains_of = {}
        addresses_of = {}
        for truth in internet.domains:
            if truth.provider_pool is None:
                continue
            exchangers = resolve_exchangers(resolver, truth.name)
            assert all(e.resolvable for e in exchangers)
            domains_of.setdefault(truth.provider_pool, []).append(truth.name)
            addresses_of.setdefault(truth.provider_pool, set()).update(
                e.address for e in exchangers
            )
        assert domains_of
        assert any(len(names) > 1 for names in domains_of.values())
        assert all(len(addresses) <= POOL_HOSTS for addresses in addresses_of.values())
        # No two pools hand out the same exchanger.
        assert sum(map(len, addresses_of.values())) == len(set().union(*addresses_of.values()))

    def test_pool_layout_sets_the_preferences(self):
        internet = SyntheticInternet(PopulationConfig(**POOLED), seed=42)
        layouts = set()
        for truth in internet.domains:
            if truth.provider_pool is None:
                continue
            preferences = [e.preference for e in exchangers_of(internet, truth)]
            if truth.pool_balanced:
                # Load balancing: every exchanger at one preference.
                assert len(set(preferences)) == 1
            else:
                # Fail-over: strictly ascending preferences.
                assert preferences == sorted(set(preferences))
            layouts.add(truth.pool_balanced)
        assert layouts == {False, True}


class TestTransientOutages:
    def test_outage_only_affects_one_scan(self):
        config = PopulationConfig(
            num_domains=1000, transient_outage_rate=0.2
        )
        internet = SyntheticInternet(config, seed=3)
        flapping = [t for t in internet.domains if t.outage_scan is not None]
        assert flapping, "with a 20% rate some domains must flap"
        for truth in flapping:
            address = truth.primary[2]
            down_scan = truth.outage_scan
            up_scan = 1 - down_scan
            assert not internet.is_listening(address, down_scan)
            assert internet.is_listening(address, up_scan)

    def test_persistent_outage_mimics_nolisting(self):
        config = PopulationConfig(
            num_domains=500,
            transient_outage_rate=0.0,
            persistent_outage_rate=0.5,
        )
        internet = SyntheticInternet(config, seed=3)
        persistent = [t for t in internet.domains if t.persistent_outage]
        assert persistent
        for truth in persistent:
            address = truth.primary[2]
            assert not internet.is_listening(address, 0)
            assert not internet.is_listening(address, 1)

    def test_all_mail_addresses_cover_mx_hosts(self, internet):
        addresses = internet.all_mail_addresses()
        assert len(addresses) == len(set(addresses))
        expected = sum(
            1
            for t in internet.domains
            for (_, _, a) in t.mx_hosts
            if a is not None
        )
        assert len(addresses) == expected


# ----------------------------------------------------------------------
# Pinned worlds
# ----------------------------------------------------------------------
#: Same knobs as ``tests/scan/test_columnar.py``'s ``POOLED``: self-hosted
#: multi-MX, both pool layouts, both outage kinds, both misconfigurations.
POOLED = dict(
    num_domains=600,
    transient_outage_rate=0.05,
    persistent_outage_rate=0.1,
    provider_pool_fraction=0.4,
    provider_equal_preference=0.5,
)


def _whole(config, seed):
    return [SyntheticInternet(config, seed)]


def _shards(config, seed):
    return [
        SyntheticInternet.shard(config, seed, [k]) for k in range(config.num_chunks)
    ]


def _planted(config, seed):
    internet = SyntheticInternet(config, seed)
    plan = PopulationPlan(config, seed)
    plan.plant(PAPER_NOLISTING_RANKS)
    for index, truth in enumerate(internet.domains):
        truth.alexa_rank = plan.rank(index)
    return [internet]


#: case -> (build, config, seed).  ``build`` returns the internets whose
#: contents, in order, make up the world.
WORLDS = {
    "default-2000": (_whole, PopulationConfig(num_domains=2000), 42),
    "pooled": (_whole, PopulationConfig(**POOLED), 42),
    "outages": (
        _whole,
        PopulationConfig(
            num_domains=1000, transient_outage_rate=0.2, persistent_outage_rate=0.5
        ),
        3,
    ),
    # 1,100 domains fill eleven chunks; 1,050 leave a last chunk of 50.
    "chunk100-1100": (_whole, PopulationConfig(num_domains=1100, chunk_size=100), 42),
    "chunk100-1050": (_whole, PopulationConfig(num_domains=1050, chunk_size=100), 42),
    **{
        f"profile-{name}": (_whole, profile_config(name, num_domains=1500), 7)
        for name in sorted(PROFILES)
    },
    **{
        f"{build.__name__[1:]}-seed{seed}": (
            build,
            PopulationConfig(**{**POOLED, "num_domains": 1200, "chunk_size": 256}),
            seed,
        )
        for seed in (7, 42)
        for build in (_whole, _shards)
    },
    "planted-5000": (_planted, PopulationConfig(num_domains=5000), 42),
}

#: SHA-256 of :func:`world_lines` for each world.  A digest that moves means
#: the generated population moved, for both engines and every cached result:
#: update one only for a deliberate change to the population.
WORLD_DIGESTS = {
    "chunk100-1050": "0d4b9bfbd9f626322b11b6440099efa6ca88cc0a495fbf5b924532dc4045f1c6",
    "chunk100-1100": "621f103d312328ab9c56635f5c4a82bc640e21bf2f021506c4701107838b41fd",
    "default-2000": "359ce7494233d54c60548256bb605217b35af604499b95a2b20512ae0e6e6bf2",
    "outages": "4412c51e502ed55edb98bda558b0c1dd937551a988d3e4c54c9ceb1ae1620a1d",
    "planted-5000": "fd53406d2e7235e262308a0d05da985b1302e23190de1e2d0fab55c502018b15",
    "pooled": "8bc54af7ee0f8ea7fdc363900effe4184e70690a0be66d8f6ae3903ef1486724",
    "profile-dns-abuse": "859141e27d611bd545dda23b42527581abe684e07234cad2a10afe434605cf3b",
    "profile-figure2": "bccc05655ab93f7353cd89a422f212147ce9e3847b2a9897cf3969399be8f050",
    "profile-provider-consolidated": (
        "d6bc2eee7d87018fac04f1d2fa248f50ea8f1fbe198d6494f44c66d2f0598639"
    ),
    "shards-seed42": "3bb737fa7fea9320c1c70b869c3f24168676e96198d9176a84b611369565c0d6",
    "shards-seed7": "cfc12f086a240d00b8df3e7893e598747b1a83584fc2c93b1e63d65a71a96e28",
    "whole-seed42": "8e8e20d943905249aaaab996b04e6900c29e451861dfd6704b171707e18c42bb",
    "whole-seed7": "d69eb4aeda50f94bcb40109f18c34aef6581bd023d29f36e2f7896a7d91bf3f4",
}


def world_lines(internet):
    """Everything one internet holds, as repr-able rows in a fixed order."""
    for truth in internet.domains:
        yield (
            truth.name,
            truth.category.value,
            [(host, pref, None if a is None else str(a)) for host, pref, a in truth.mx_hosts],
            truth.outage_scan,
            truth.persistent_outage,
            truth.alexa_rank,
            truth.provider_pool,
            truth.pool_balanced,
        )
    for zone in internet.zones.zones:
        # A then MX records, each by owner in insertion order: the order
        # the digests were pinned over.
        records = [*zone._a.values(), *zone._mx.values()]
        yield (zone.apex, [str(record) for owned in records for record in owned])
    addresses = internet.all_mail_addresses()
    yield [str(a) for a in addresses]
    yield [(internet.is_listening(a, 0), internet.is_listening(a, 1)) for a in addresses]
    yield sorted((c.value, n) for c, n in internet.truth_counts().items())
    for category in sorted(DomainCategory, key=lambda c: c.value):
        yield (category.value, [t.name for t in domains_in(internet, category)])


def world_digest(internets):
    digest = hashlib.sha256()
    for internet in internets:
        for line in world_lines(internet):
            digest.update(repr(line).encode())
            digest.update(b"\n")
    return digest.hexdigest()


class TestPinnedWorlds:
    """The generated world, field for field, against digests pinned earlier.

    The columnar tests compare the columns with objects built from those
    same columns, and the engine-equivalence suite runs both engines on one
    population; only these digests notice a change to the population itself.
    """

    @pytest.mark.parametrize("case", sorted(WORLDS))
    def test_world_unchanged(self, case):
        build, config, seed = WORLDS[case]
        assert world_digest(build(config, seed)) == WORLD_DIGESTS[case]
