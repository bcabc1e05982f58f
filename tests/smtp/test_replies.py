"""Unit tests for the canned SMTP reply helpers."""

from repro.smtp import replies


class TestReplyHelpers:
    def test_ready_banner(self):
        reply = replies.ready("smtp.victim.example")
        assert reply.code == 220
        assert "smtp.victim.example" in reply.text
        assert reply.is_positive

    def test_ok(self):
        assert replies.ok().code == 250
        assert replies.ok("custom").text == "custom"

    def test_closing(self):
        reply = replies.closing("smtp.victim.example")
        assert reply.code == 221
        assert reply.is_positive

    def test_greylisted_mentions_retry(self):
        reply = replies.greylisted(123.7)
        assert reply.code == 450
        assert "123" in reply.text
        assert reply.is_transient_failure

    def test_bad_sequence(self):
        reply = replies.bad_sequence("MAIL FROM")
        assert reply.code == 503
        assert "MAIL FROM" in reply.text
        assert reply.is_permanent_failure

    def test_str_rendering(self):
        assert str(replies.ok("fine")) == "250 fine"
        assert str(replies.Reply(451)) == "451"
