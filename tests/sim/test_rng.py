"""Unit tests for the splittable random streams and the keyed draws."""

import pytest

from repro.sim.rng import RandomStream, keyed_words


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStream(7)
        b = RandomStream(7)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RandomStream(7)
        b = RandomStream(8)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_split_is_stable(self):
        a = RandomStream(7).split("bots")
        b = RandomStream(7).split("bots")
        assert a.random() == b.random()

    def test_split_labels_independent(self):
        root = RandomStream(7)
        a = root.split("alpha")
        b = root.split("beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_split_does_not_consume_parent(self):
        root = RandomStream(7)
        before = RandomStream(7)
        root.split("child")
        assert root.random() == before.random()

    def test_nested_split_paths(self):
        a = RandomStream(7).split("x").split("y")
        b = RandomStream(7).split("x").split("y")
        assert a.random() == b.random()
        assert "x/y" in a.label

    def test_split_seeds_pinned(self):
        # Child seeds come from SHA-256 of "seed:label"; changing the
        # derivation would silently change every experiment's draws.
        assert RandomStream(7).split("bots").seed == 2964960196357780616
        assert RandomStream(7).split("x").split("y").seed == 4426457731265836008

    def test_repr_names_seed_and_path(self):
        assert repr(RandomStream(7).split("x")) == (
            "RandomStream(seed=15897730785395961261, label='root/x')"
        )


class TestDraws:
    def test_uniform_bounds(self):
        rng = RandomStream(1)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_integer_draw_bounds(self):
        rng = RandomStream(10)
        assert {rng.randint(1, 3) for _ in range(200)} == {1, 2, 3}
        assert {rng.randrange(4) for _ in range(200)} == {0, 1, 2, 3}

    def test_choices_follow_weights(self):
        rng = RandomStream(11)
        assert rng.choices(["a", "b"], [0.0, 1.0], k=20) == ["b"] * 20

    def test_expovariate_mean(self):
        rng = RandomStream(12)
        draws = [rng.expovariate(0.5) for _ in range(4000)]
        assert min(draws) > 0
        assert 1.8 < sum(draws) / len(draws) < 2.2

    def test_choice_and_sample(self):
        rng = RandomStream(2)
        population = ["a", "b", "c", "d"]
        assert rng.choice(population) in population
        sampled = rng.sample(population, 2)
        assert len(sampled) == 2 and len(set(sampled)) == 2

    def test_shuffle_is_permutation(self):
        rng = RandomStream(3)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_weighted_index_respects_zero_weights(self):
        rng = RandomStream(4)
        for _ in range(50):
            assert rng.weighted_index([0.0, 1.0, 0.0]) == 1

    def test_weighted_index_distribution(self):
        rng = RandomStream(5)
        draws = [rng.weighted_index([1.0, 9.0]) for _ in range(2000)]
        fraction_heavy = draws.count(1) / len(draws)
        assert 0.85 < fraction_heavy < 0.95

    def test_weighted_index_rejects_bad_weights(self):
        rng = RandomStream(6)
        with pytest.raises(ValueError):
            rng.weighted_index([0.0, 0.0])
        with pytest.raises(ValueError):
            rng.weighted_index([1.0, -1.0])


class TestKeyedWords:
    @pytest.mark.parametrize(
        "seed, label, words",
        [
            (
                0,
                "elision:dom0000000.example",
                (
                    9124816037920425200, 16811517041135181216,
                    12620984125870284293, 3519532002653468249,
                    17745636519936782913, 1542675923929715066,
                    4285949103113215326, 8580716015640220648,
                ),
            ),
            (
                42,
                "faults:host:1:10.0.0.7",
                (
                    16179825997338976930, 15075661975273328714,
                    9133718794999960719, 10922350535383883570,
                    14310081488907554283, 9561459186534352470,
                    1046521678999171649, 4517658163507388763,
                ),
            ),
            (
                -5,
                "faults:dns:0:dom0000003.example",
                (
                    9864873794645805313, 13911355167710713704,
                    1407341497617013540, 15319101808802778469,
                    13983606172358957927, 16423310370605040666,
                    6632935572125020348, 1094521281836458766,
                ),
            ),
        ],
    )
    def test_words_pinned(self, seed, label, words):
        # The words of BLAKE2b-512 over "seed:label", little-endian;
        # changing the derivation would silently change every keyed draw.
        assert keyed_words(seed, label) == words

    def test_seed_and_label_both_key_the_draw(self):
        assert keyed_words(1, "x") != keyed_words(2, "x")
        assert keyed_words(1, "x") != keyed_words(1, "y")
