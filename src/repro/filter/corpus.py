"""Synthetic mail corpus for training/evaluating the content filter.

Seeded generators producing spam and ham texts with realistic vocabulary
overlap: spam recycles a small set of pitch templates with noisy variation
(the mass-mailer reality that makes Bayesian filtering work), ham draws
from workplace templates with wider topical spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.rng import RandomStream

_SPAM_TEMPLATES = (
    "win a free {prize} now click here {url}",
    "cheap {drug} online no prescription best price {url}",
    "you have been selected for a {prize} claim immediately {url}",
    "make money fast from home earn {amount} per week {url}",
    "hot singles in your area meet tonight {url}",
    "limited offer luxury {prize} replica watches {url}",
    "your account needs verification login here {url} urgent",
)

_HAM_TEMPLATES = (
    "hi {name} attached the {doc} for review before the {meeting} meeting",
    "reminder the {meeting} meeting moved to {time} see agenda",
    "thanks {name} the {doc} looks good minor comments inline",
    "can you send the {doc} numbers for q{quarter} by {time}",
    "lunch {time}? also need your input on the {doc}",
    "build failed on branch {name} see log details attached",
    "please approve the {doc} request in the portal when you can",
)

_PRIZES = ("iphone", "vacation", "gift card", "laptop", "cruise")
_DRUGS = ("meds", "pills", "supplements")
_AMOUNTS = ("$500", "$2000", "$9999")
_URLS = ("http://offer.invalid", "http://deal.invalid", "http://claim.invalid")
_NAMES = ("ana", "bob", "chen", "dana", "eve")
_DOCS = ("report", "budget", "slides", "spec", "forecast")
_MEETINGS = ("standup", "review", "planning", "board")
_TIMES = ("10am", "noon", "3pm", "friday")


def generate_spam(rng: RandomStream, count: int) -> List[str]:
    """``count`` spam texts with seeded template variation."""
    texts = []
    for _ in range(count):
        template = rng.choice(_SPAM_TEMPLATES)
        texts.append(
            template.format(
                prize=rng.choice(_PRIZES),
                drug=rng.choice(_DRUGS),
                amount=rng.choice(_AMOUNTS),
                url=rng.choice(_URLS),
            )
        )
    return texts


def generate_ham(rng: RandomStream, count: int) -> List[str]:
    """``count`` ham texts with seeded template variation."""
    texts = []
    for _ in range(count):
        template = rng.choice(_HAM_TEMPLATES)
        texts.append(
            template.format(
                name=rng.choice(_NAMES),
                doc=rng.choice(_DOCS),
                meeting=rng.choice(_MEETINGS),
                time=rng.choice(_TIMES),
                quarter=rng.randint(1, 4),
            )
        )
    return texts


@dataclass
class Corpus:
    """A labelled train/test split."""

    train_spam: List[str]
    train_ham: List[str]
    test_spam: List[str]
    test_ham: List[str]


def build_corpus(
    seed: int,
    train_per_class: int = 200,
    test_per_class: int = 100,
) -> Corpus:
    """Seeded corpus with disjoint train/test streams."""
    rng = RandomStream(seed, "corpus")
    return Corpus(
        train_spam=generate_spam(rng.split("train-spam"), train_per_class),
        train_ham=generate_ham(rng.split("train-ham"), train_per_class),
        test_spam=generate_spam(rng.split("test-spam"), test_per_class),
        test_ham=generate_ham(rng.split("test-ham"), test_per_class),
    )
