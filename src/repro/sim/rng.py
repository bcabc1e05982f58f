"""Deterministic random numbers: sequential streams and keyed draws.

Every experiment takes a single integer ``seed``; components derive their own
independent sub-streams by *splitting* the root stream with a string label.
Splitting is stable: the same (seed, label-path) always yields the same
stream, regardless of what other components do — adding a new component to an
experiment never perturbs the randomness seen by existing ones.

A decision about one entity that needs only a few uniforms — whether a
capture drops a domain's glue, whether a host is down during a scan,
which defence a receiver domain deploys — does not build a stream at
all.  :func:`keyed_words` hashes the entity's ``(seed, label)`` into
eight 64-bit words, a counter-based draw in the sense of Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011): no generator is
seeded and no state is kept, so query order, chunking, engine and worker
count cannot change a draw.
:class:`RandomStream` stays for sequential draws: the population
generator, bots and message specs.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Sequence, Tuple, TypeVar

T = TypeVar("T")

_KEYED_WORDS = struct.Struct("<8Q")


def _derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from (seed, label) via SHA-256.

    Hashing avoids the correlated low-bit problem of naive seed arithmetic and
    keeps derivation independent of Python's hash randomization.
    """
    payload = f"{seed}:{label}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def keyed_words(seed: int, label: str) -> Tuple[int, ...]:
    """The eight 64-bit words keyed by ``(seed, label)``.

    The little-endian words of the 64-byte BLAKE2b digest of
    ``"<seed>:<label>"``, the text :func:`_derive_seed` hashes.  Word
    ``w`` stands for the uniform ``(w >> 11) / 2**53``, built from the
    53 bits :meth:`random.Random.random` uses, so "below ``rate``" is
    exactly ``w >> 11 < rate * 2**53``.
    """
    payload = f"{seed}:{label}".encode("utf-8")
    return _KEYED_WORDS.unpack(hashlib.blake2b(payload, digest_size=64).digest())


class RandomStream:
    """A labelled, splittable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Root seed for this stream.
    label:
        Human-readable path of split labels, for debugging.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split(self, label: str) -> "RandomStream":
        """Create an independent child stream identified by ``label``."""
        child_seed = _derive_seed(self.seed, label)
        return RandomStream(child_seed, f"{self.label}/{label}")

    # ------------------------------------------------------------------
    # Draws (thin, explicit delegation — no __getattr__ magic)
    # ------------------------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def randrange(self, stop: int) -> int:
        return self._rng.randrange(stop)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def choices(self, population: Sequence[T], weights: Sequence[float], k: int) -> list:
        return self._rng.choices(population, weights=weights, k=k)

    def sample(self, population: Sequence[T], k: int) -> list:
        return self._rng.sample(population, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        return self._rng.lognormvariate(mu, sigma)

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Draw an index proportionally to ``weights``."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        x = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            if w < 0:
                raise ValueError("weights must be non-negative")
            acc += w
            if x < acc:
                return i
        return len(weights) - 1

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, label={self.label!r})"
