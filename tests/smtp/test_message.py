"""Unit tests for messages, envelopes and address validation."""

import random
import re

import pytest

from repro.smtp.message import (
    AddressSyntaxError,
    Message,
    domain_of,
    validate_address,
)


class TestValidateAddress:
    def test_canonicalizes_domain_case(self):
        assert validate_address("Bob@Foo.NET") == "Bob@foo.net"

    def test_preserves_local_part_case(self):
        # Local parts are case-sensitive per RFC 5321.
        assert validate_address("MixedCase@foo.net").startswith("MixedCase@")

    @pytest.mark.parametrize(
        "bad",
        ["nodomain", "two@@foo.net", "@foo.net", "x@", "x@nodot", "a b@foo.net"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(AddressSyntaxError):
            validate_address(bad)

    def test_domain_of(self):
        assert domain_of("bob@foo.net") == "foo.net"


_REFERENCE_WHITESPACE_RE = re.compile(r"\s")


def _reference_validate_address(address: str) -> str:
    """The regex-based implementation the split-based one replaced."""
    address = address.strip()
    if address.count("@") != 1:
        raise AddressSyntaxError(f"malformed address {address!r}")
    local, domain = address.split("@")
    if not local or not domain or "." not in domain:
        raise AddressSyntaxError(f"malformed address {address!r}")
    if _REFERENCE_WHITESPACE_RE.search(address) is not None:
        raise AddressSyntaxError(f"whitespace in address {address!r}")
    return f"{local}@{domain.lower()}"


#: Every character str.isspace() or the regex ``\s`` treats as whitespace.
_EVERY_CHARACTER = "".join(map(chr, range(0x110000)))
_WHITESPACE = sorted(
    set(re.findall(r"\s", _EVERY_CHARACTER)) | {c for c in _EVERY_CHARACTER if c.isspace()}
)
#: Address characters, with case-changing letters among them: some
#: whose lower() is longer, a titlecase one, a numeral with a case.
_CLEAN = list("abcdeXYZ0129.-_+") + ["É", "é", "ß", "İ", "ǅ", "Ⅰ", "Σ", "ς"]
_NOISY = _CLEAN + list("@@..") + ["\u200b", "\x00"] + _WHITESPACE


def _fuzz_addresses(seed: int, count: int) -> list:
    rng = random.Random(seed)

    def word(alphabet: list, low: int, high: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(low, high)))

    def pad() -> str:
        return word(_WHITESPACE, 0, 2) if rng.random() < 0.3 else ""

    out = [word(_NOISY, 0, 12) for _ in range(count // 2)]
    for _ in range(count - len(out)):
        address = f"{word(_CLEAN, 1, 6)}@{word(_CLEAN, 0, 5)}.{word(_CLEAN, 1, 5)}"
        if rng.random() < 0.2:
            at = rng.randint(0, len(address))
            address = address[:at] + rng.choice(_NOISY) + address[at:]
        out.append(pad() + address + pad())
    return out


class TestValidateAddressAgainstReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_result_or_same_error(self, seed):
        for address in _fuzz_addresses(seed, 3000):
            try:
                expected = _reference_validate_address(address)
            except AddressSyntaxError as error:
                with pytest.raises(AddressSyntaxError) as caught:
                    validate_address(address)
                assert str(caught.value) == str(error), address
            else:
                assert validate_address(address) == expected, address

    def test_fuzz_set_exercises_every_outcome(self):
        outcomes = set()
        for address in _fuzz_addresses(0, 3000):
            try:
                canonical = _reference_validate_address(address)
            except AddressSyntaxError as error:
                outcomes.add(str(error).split(" ", 1)[0])
            else:
                outcomes.add("canonical" if canonical == address else "rewritten")
        assert outcomes == {"malformed", "whitespace", "canonical", "rewritten"}

    def test_canonical_input_returned_as_is(self):
        canonical = [
            a for a in _fuzz_addresses(1, 3000)
            if _safe_reference(a) == a
        ] + ["staff3@cs.unimi.example", "Bob@foo.net"]
        assert len(canonical) > 20
        for address in canonical:
            assert validate_address(address) is address


def _safe_reference(address: str):
    try:
        return _reference_validate_address(address)
    except AddressSyntaxError:
        return None


class TestMessage:
    def test_basic_construction(self):
        message = Message(sender="a@x.net", recipients=["b@y.net"])
        assert message.sender == "a@x.net"
        assert message.recipients == ["b@y.net"]
        assert message.size > 0

    def test_recipient_required(self):
        with pytest.raises(AddressSyntaxError):
            Message(sender="a@x.net", recipients=[])

    def test_message_ids_unique(self):
        a = Message(sender="a@x.net", recipients=["b@y.net"])
        b = Message(sender="a@x.net", recipients=["b@y.net"])
        assert a.message_id != b.message_id

    def test_invalid_recipient_rejected(self):
        with pytest.raises(AddressSyntaxError):
            Message(sender="a@x.net", recipients=["nope"])

    def test_campaign_tagging(self):
        message = Message(
            sender="a@x.net", recipients=["b@y.net"], campaign_id="c-1"
        )
        assert message.campaign_id == "c-1"

