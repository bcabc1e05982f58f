"""Addresses are validated once, where they enter the program.

``GreylistPolicy.on_rcpt_to`` takes canonical addresses and keys them
through the trusted ``Triplet`` constructor.  These tests pin both halves
of that contract: for canonical input the trusted and public constructors
build interchangeable keys, and every production caller hands the policy
canonical addresses.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cost_attack import run_cost_attack
from repro.core.greylist_experiment import run_kelihos_threshold_sweep
from repro.core.variants import compare_variants
from repro.greylist.keying import KeyStrategy, derive_key
from repro.greylist.policy import GreylistPolicy
from repro.greylist.triplet import Triplet, _trusted_triplet
from repro.maillog.university import DeploymentConfig, UniversityDeployment
from repro.net.address import IPv4Address
from repro.serve.plugins import DecisionCache, GreylistingPlugin, PluginChain
from repro.serve.protocol import PolicyRequest
from repro.sim.clock import Clock
from repro.smtp.message import validate_address

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
localparts = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEF0123456789._-",
    min_size=1,
    max_size=12,
)
domains = st.sampled_from(
    ["x.net", "Mail.Example", "CORP.example", "a.b.example", "root.example."]
)
#: Canonical addresses: whatever validate_address makes of raw ones.
canonical = st.builds(
    lambda local, dom: validate_address(f"{local}@{dom}"), localparts, domains
)


def assert_interchangeable(trusted, public):
    assert trusted == public and public == trusted
    assert hash(trusted) == hash(public)
    assert {trusted: "t"}[public] == "t"
    assert {public: "p"}[trusted] == "p"


class TestTrustedConstructor:
    @given(addresses, canonical, canonical)
    def test_agrees_with_the_public_constructor(self, client, sender, recipient):
        assert_interchangeable(
            _trusted_triplet(client, sender, recipient),
            Triplet(client, sender, recipient),
        )

    @given(addresses, canonical, canonical)
    def test_every_key_strategy_builds_a_valid_triplet(
        self, client, sender, recipient
    ):
        # Each strategy's key equals the public, validating construction
        # of the same fields, so no strategy lets a non-canonical key in.
        for strategy in KeyStrategy:
            key = derive_key(strategy, client, sender, recipient)
            assert_interchangeable(
                key, Triplet(key.client, key.sender, key.recipient)
            )


def _served_requests():
    plugin = GreylistingPlugin(
        GreylistPolicy(clock=Clock(), delay=300.0), cache=DecisionCache()
    )
    chain = PluginChain([plugin])
    for index in range(10):
        chain.decide(
            PolicyRequest({
                "request": "smtpd_access_policy",
                "protocol_state": "RCPT",
                "client_address": f"10.0.0.{index}",
                "sender": f" Spam{index}@Bot.EXAMPLE",
                "recipient": "Victim@Victim.Example ",
            })
        )


CALLERS = {
    "kelihos-testbed": lambda: run_kelihos_threshold_sweep(
        thresholds=(300.0,), num_messages=5, horizon=20000.0
    ),
    "university-deployment": lambda: UniversityDeployment(
        DeploymentConfig(num_messages=60), seed=3
    ).run(),
    "cost-attack": lambda: run_cost_attack(
        spam_per_day=20, benign_per_day=5, duration_days=2.0
    ),
    "variants": compare_variants,
    "serve-plugin": _served_requests,
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_every_caller_passes_canonical_addresses(caller, monkeypatch):
    seen = []
    decide = GreylistPolicy.on_rcpt_to

    def spy(self, client, sender, recipient):
        seen.append((sender, recipient))
        return decide(self, client, sender, recipient)

    monkeypatch.setattr(GreylistPolicy, "on_rcpt_to", spy)
    CALLERS[caller]()
    assert seen, f"{caller} made no greylist decision"
    for sender, recipient in seen:
        assert sender == validate_address(sender)
        assert recipient == validate_address(recipient)
