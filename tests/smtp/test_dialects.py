"""Unit tests for SMTP dialects and dialect fingerprinting."""

import pytest

from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.smtp.dialects import (
    COMPLIANT_MTA,
    CUTWAIL_DIALECT,
    DIALECT_BY_NAME,
    KELIHOS_DIALECT,
    KNOWN_DIALECTS,
    DialectFingerprinter,
    DialectProfile,
    extract_features,
    play_dialect,
)
from repro.smtp.message import Message
from repro.smtp.server import SMTPServer

CLIENT = IPv4Address.parse("198.51.100.7")


def transcript_for(profile, recipient="u@victim.example"):
    clock = Clock()
    server = SMTPServer(hostname="smtp.victim.example", clock=clock)
    message = Message(sender="a@x.example", recipients=[recipient])
    return play_dialect(profile, server, clock, CLIENT, message, recipient), server


class TestDialectProfiles:
    def test_compliant_script(self):
        script = COMPLIANT_MTA.session_script(
            "mail.x.example", "a@x.example", "u@v.example"
        )
        assert script[0] == "EHLO mail.x.example"
        assert script[1] == "MAIL FROM:<a@x.example>"
        assert script[-1] == "QUIT"

    def test_cutwail_script_is_sloppy(self):
        script = CUTWAIL_DIALECT.session_script(
            "mail.x.example", "a@x.example", "u@v.example"
        )
        assert script[0] == "HELO mail"          # non-FQDN greeting
        assert script[1] == "MAIL FROM:a@x.example"  # no brackets
        assert "QUIT" not in script              # drops the connection

    def test_kelihos_script(self):
        script = KELIHOS_DIALECT.session_script(
            "bot.x.example", "a@x.example", "u@v.example"
        )
        assert script[0].startswith("HELO ")
        assert "QUIT" not in script

    def test_registry(self):
        assert len(KNOWN_DIALECTS) == 4
        assert DIALECT_BY_NAME["cutwail"] is CUTWAIL_DIALECT


class TestPlayDialect:
    def test_compliant_delivery_succeeds(self):
        transcript, server = transcript_for(COMPLIANT_MTA)
        assert server.stats.messages_accepted == 1
        assert transcript.ended_with_quit()

    def test_bot_dialect_still_delivers_on_open_server(self):
        transcript, server = transcript_for(CUTWAIL_DIALECT)
        # A plain server accepts sloppy-but-parseable commands.
        assert server.stats.messages_accepted == 1
        assert not transcript.ended_with_quit()


class TestFeatureExtraction:
    def test_compliant_features(self):
        transcript, _ = transcript_for(COMPLIANT_MTA)
        features = extract_features(transcript)
        assert features.used_ehlo
        assert features.helo_name_is_fqdn
        assert features.bracketed_paths
        assert features.quit_before_close
        assert features.malformed_lines == 0

    def test_cutwail_features(self):
        transcript, _ = transcript_for(CUTWAIL_DIALECT)
        features = extract_features(transcript)
        assert not features.used_ehlo
        assert not features.helo_name_is_fqdn
        assert not features.bracketed_paths
        assert not features.quit_before_close


class TestFingerprinting:
    @pytest.fixture
    def fingerprinter(self):
        return DialectFingerprinter()

    def test_each_dialect_attributed_to_itself(self, fingerprinter):
        for profile in KNOWN_DIALECTS:
            transcript, _ = transcript_for(profile)
            result = fingerprinter.classify(transcript)
            assert result.dialect == profile.name, profile.name
            assert result.score == 4

    def test_bot_likelihood_ordering(self, fingerprinter):
        clean, _ = transcript_for(COMPLIANT_MTA)
        dirty, _ = transcript_for(CUTWAIL_DIALECT)
        assert fingerprinter.classify(clean).bot_likelihood == 0.0
        assert fingerprinter.classify(dirty).bot_likelihood == 1.0
        assert not fingerprinter.classify(clean).looks_like_bot
        assert fingerprinter.classify(dirty).looks_like_bot

    def test_kelihos_mildly_bot_like(self, fingerprinter):
        transcript, _ = transcript_for(KELIHOS_DIALECT)
        result = fingerprinter.classify(transcript)
        # HELO + no QUIT = 2 deviations out of 4.
        assert result.bot_likelihood == pytest.approx(0.5)

    def test_requires_dialects(self):
        with pytest.raises(ValueError):
            DialectFingerprinter([])

    def test_custom_dialect(self, fingerprinter):
        custom = DialectProfile(
            name="lazy", greeting_verb="HELO", sends_quit=True
        )
        transcript, _ = transcript_for(custom)
        result = DialectFingerprinter([custom, COMPLIANT_MTA]).classify(
            transcript
        )
        assert result.dialect == "lazy"
