"""Unit tests for the SMTP wire-format layer."""

import pytest

from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.smtp.message import Message
from repro.smtp.server import SMTPServer
from repro.smtp.wire import (
    Command,
    CommandSyntaxError,
    TranscribingSession,
    parse_command,
    render_mail_from,
    render_rcpt_to,
)

CLIENT = IPv4Address.parse("198.51.100.7")


class TestParseCommand:
    def test_helo(self):
        cmd = parse_command("HELO mail.example.net")
        assert cmd.verb == "HELO"
        assert cmd.argument == "mail.example.net"

    def test_ehlo_case_insensitive_verb(self):
        assert parse_command("ehlo x.example").verb == "EHLO"

    def test_mail_from_bracketed(self):
        cmd = parse_command("MAIL FROM:<a@b.net>")
        assert cmd.verb == "MAIL"
        assert cmd.argument == "a@b.net"

    def test_mail_from_with_parameters(self):
        cmd = parse_command("MAIL FROM:<a@b.net> SIZE=1024 BODY=8BITMIME")
        assert cmd.parameters == (("SIZE", "1024"), ("BODY", "8BITMIME"))

    def test_mail_from_bare_address_dialect(self):
        # Bots often skip the angle brackets; the parser tolerates it.
        cmd = parse_command("MAIL FROM:a@b.net")
        assert cmd.argument == "a@b.net"

    def test_rcpt_to(self):
        cmd = parse_command("RCPT TO:<c@d.net>")
        assert cmd.verb == "RCPT"
        assert cmd.argument == "c@d.net"

    def test_null_reverse_path(self):
        # Bounce messages use MAIL FROM:<>.
        cmd = parse_command("MAIL FROM:<>")
        assert cmd.argument == ""

    def test_data_quit_rset(self):
        for verb in ("DATA", "QUIT", "RSET", "NOOP"):
            assert parse_command(verb).verb == verb

    def test_unknown_verb(self):
        assert parse_command("XFROB abc").verb == "UNKNOWN"

    def test_empty_line_rejected(self):
        with pytest.raises(CommandSyntaxError):
            parse_command("   ")

    def test_mail_missing_colon_rejected(self):
        with pytest.raises(CommandSyntaxError):
            parse_command("MAIL a@b.net")

    def test_mail_garbage_path_rejected(self):
        with pytest.raises(CommandSyntaxError):
            parse_command("MAIL FROM:nonsense")

    @pytest.mark.parametrize("line", ["MAIL FROM:", "RCPT TO:   "])
    def test_missing_path_rejected(self, line):
        with pytest.raises(CommandSyntaxError, match="missing path"):
            parse_command(line)

    def test_str_falls_back_to_verb_and_argument(self):
        assert str(Command("RCPT", "TO:<c@d.net>")) == "RCPT TO:<c@d.net>"
        assert str(Command("QUIT")) == "QUIT"
        assert str(parse_command("noop\r\n")) == "noop"

    def test_render_roundtrip(self):
        assert parse_command(render_mail_from("a@b.net")).argument == "a@b.net"
        assert parse_command(render_rcpt_to("c@d.net")).argument == "c@d.net"
        assert render_mail_from("a@b.net", bracketed=False) == "MAIL FROM:a@b.net"


class TestTranscribingSession:
    def _run_session(self, lines, message=None):
        clock = Clock()
        server = SMTPServer(hostname="smtp.victim.example", clock=clock)
        session = server.session_factory(CLIENT)
        wire = TranscribingSession(session, clock)
        replies = [wire.execute(line, message=message) for line in lines]
        return server, wire.transcript, replies

    def test_full_delivery_transcribed(self):
        message = Message(
            sender="a@x.example", recipients=["u@victim.example"]
        )
        server, transcript, replies = self._run_session(
            [
                "EHLO mail.x.example",
                "MAIL FROM:<a@x.example>",
                "RCPT TO:<u@victim.example>",
                "DATA",
                "QUIT",
            ],
            message=message,
        )
        assert all(r.is_positive for r in replies)
        assert server.stats.messages_accepted == 1
        assert transcript.verbs() == ["EHLO", "MAIL", "RCPT", "DATA", "QUIT"]
        assert transcript.ended_with_quit()
        # Banner + 5 commands + 5 replies.
        assert len(transcript.entries) == 11

    def test_syntax_error_gets_500(self):
        _, transcript, replies = self._run_session(["MAIL FROM:garbage"])
        assert replies[0].code == 500
        assert not transcript.ended_with_quit()

    def test_unknown_command_gets_502(self):
        _, _, replies = self._run_session(["EHLO x.example", "XFROB now"])
        assert replies[1].code == 502

    def test_data_without_message_fails(self):
        _, _, replies = self._run_session(
            [
                "EHLO x.example",
                "MAIL FROM:<a@x.example>",
                "RCPT TO:<u@victim.example>",
                "DATA",
            ]
        )
        assert replies[3].code == 554

    def test_rset_and_noop_through_the_wire(self):
        _, transcript, replies = self._run_session(
            [
                "EHLO x.example",
                "MAIL FROM:<a@x.example>",
                "RSET",
                "NOOP",
                "RCPT TO:<u@victim.example>",
            ]
        )
        assert [r.code for r in replies] == [250, 250, 250, 250, 503]
        assert transcript.verbs() == ["EHLO", "MAIL", "RSET", "NOOP", "RCPT"]

    def test_malformed_lines_marked_in_commands(self):
        _, transcript, _ = self._run_session(["MAIL FROM:garbage"])
        assert transcript.client_commands()[0].verb == "MALFORMED"

    def test_transcript_renders_directions(self):
        _, transcript, _ = self._run_session(["EHLO x.example"])
        text = str(transcript)
        assert "S: 220" in text
        assert "C: EHLO x.example" in text
