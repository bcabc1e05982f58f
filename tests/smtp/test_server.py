"""Unit tests for the server-side SMTP state machine and policies."""

import pytest

from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.smtp import replies
from repro.smtp.message import Message
from repro.smtp.replies import Reply
from repro.smtp.server import (
    ConnectionPolicy,
    PolicyDecision,
    SessionState,
    SMTPServer,
)

CLIENT = IPv4Address.parse("198.51.100.7")


def make_server(**kwargs):
    return SMTPServer(hostname="smtp.victim.example", clock=Clock(), **kwargs)


def full_dialogue(server, message=None, recipient="user@victim.example"):
    if message is None:
        message = Message(sender="alice@sender.example", recipients=[recipient])
    session = server.session_factory(CLIENT)
    assert session.banner.code == replies.CODE_READY
    assert session.ehlo("client.sender.example").is_positive
    assert session.mail_from(message.sender).is_positive
    reply = session.rcpt_to(recipient)
    if not reply.is_positive:
        return session, reply
    return session, session.data(message)


class TestHappyPath:
    def test_full_delivery(self):
        server = make_server()
        _, reply = full_dialogue(server)
        assert reply.code == replies.CODE_OK
        assert server.stats.messages_accepted == 1
        assert len(server.mailbox) == 1
        assert server.log[0].accepted is True
        assert server.log[0].stage == "data"

    def test_helo_also_accepted(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        assert session.helo("old-client").is_positive
        assert session.state is SessionState.GREETED

    def test_multiple_recipients_logged_individually(self):
        server = make_server()
        message = Message(
            sender="alice@sender.example",
            recipients=["u1@victim.example", "u2@victim.example"],
        )
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from(message.sender)
        session.rcpt_to("u1@victim.example")
        session.rcpt_to("u2@victim.example")
        session.data(message)
        assert server.stats.envelopes_accepted == 2
        assert server.stats.messages_accepted == 1

    def test_second_transaction_same_session(self):
        server = make_server()
        session, reply = full_dialogue(server)
        assert reply.is_positive
        message = Message(
            sender="alice@sender.example", recipients=["u2@victim.example"]
        )
        assert session.mail_from(message.sender).is_positive
        assert session.rcpt_to("u2@victim.example").is_positive
        assert session.data(message).is_positive
        assert server.stats.messages_accepted == 2

    def test_quit_closes(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        reply = session.quit()
        assert reply.code == replies.CODE_CLOSING
        assert session.state is SessionState.CLOSED

    def test_abort_drops_the_open_envelope_once(self):
        # A client that vanished mid-transaction: the envelope is
        # discarded and the teardown counted once, however often reported.
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("alice@sender.example")
        session.rcpt_to("user@victim.example")
        session.abort()
        session.abort()
        assert session.state is SessionState.CLOSED
        assert session.sender is None and session.recipients == []
        assert server.stats.sessions_aborted == 1
        assert len(server.mailbox) == 0


class TestSequenceEnforcement:
    def test_mail_before_helo_rejected(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        reply = session.mail_from("a@b.net")
        assert reply.code == replies.CODE_BAD_SEQUENCE
        assert server.stats.protocol_errors == 1

    def test_rcpt_before_mail_rejected(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        assert session.rcpt_to("u@victim.example").code == replies.CODE_BAD_SEQUENCE

    def test_data_before_rcpt_rejected(self):
        server = make_server()
        message = Message(sender="a@b.net", recipients=["u@victim.example"])
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("a@b.net")
        assert session.data(message).code == replies.CODE_BAD_SEQUENCE

    def test_rset_clears_transaction(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("a@b.net")
        session.rcpt_to("u@victim.example")
        session.rset()
        assert session.state is SessionState.GREETED
        message = Message(sender="a@b.net", recipients=["u@victim.example"])
        assert session.data(message).code == replies.CODE_BAD_SEQUENCE

    def test_bad_sender_syntax(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        assert session.mail_from("not-an-address").code == replies.CODE_PARAM_SYNTAX_ERROR

    def test_bad_recipient_syntax(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("a@b.net")
        assert session.rcpt_to("nope").code == replies.CODE_PARAM_SYNTAX_ERROR


class TestRecipientValidation:
    def test_relay_denied_for_foreign_domain(self):
        server = make_server(local_domains=["victim.example"])
        _, reply = full_dialogue(server, recipient="user@other.example")
        assert reply.code == replies.CODE_USER_NOT_LOCAL
        assert server.log[-1].stage == "relay"

    def test_unknown_recipient_rejected_before_policy(self):
        # The paper notes servers refuse unknown recipients *before*
        # greylisting; the log stage must reflect that ordering.
        class CountingPolicy(ConnectionPolicy):
            def __init__(self):
                self.rcpt_calls = 0

            def on_rcpt_to(self, client, sender, recipient):
                self.rcpt_calls += 1
                return PolicyDecision.ok()

        policy = CountingPolicy()
        server = make_server(
            policy=policy,
            valid_recipients={"real@victim.example"},
        )
        _, reply = full_dialogue(server, recipient="ghost@victim.example")
        assert reply.code == replies.CODE_MAILBOX_UNAVAILABLE
        assert policy.rcpt_calls == 0
        assert server.log[-1].stage == "rcpt"

    def test_known_recipient_accepted(self):
        server = make_server(valid_recipients={"real@victim.example"})
        _, reply = full_dialogue(server, recipient="real@victim.example")
        assert reply.is_positive


class TestPolicyHooks:
    def test_connect_rejection_closes_session(self):
        class RejectAll(ConnectionPolicy):
            def on_connect(self, client):
                return PolicyDecision.reject(
                    Reply(replies.CODE_SERVICE_UNAVAILABLE, "go away")
                )

        server = make_server(policy=RejectAll())
        session = server.session_factory(CLIENT)
        assert session.banner.code == replies.CODE_SERVICE_UNAVAILABLE
        assert session.state is SessionState.CLOSED

    def test_rcpt_policy_rejection_logged(self):
        class Defer(ConnectionPolicy):
            def on_rcpt_to(self, client, sender, recipient):
                return PolicyDecision.reject(replies.greylisted(300))

        server = make_server(policy=Defer())
        _, reply = full_dialogue(server)
        assert reply.code == replies.CODE_MAILBOX_BUSY
        assert reply.is_transient_failure
        record = server.log[-1]
        assert record.stage == "policy"
        assert not record.accepted

    def test_message_policy_rejection(self):
        class RejectBody(ConnectionPolicy):
            def on_message(self, client, envelope, message):
                return PolicyDecision.reject(
                    Reply(replies.CODE_TRANSACTION_FAILED, "content")
                )

        server = make_server(policy=RejectBody())
        _, reply = full_dialogue(server)
        assert reply.code == replies.CODE_TRANSACTION_FAILED
        assert server.mailbox == []


class TestReplies:
    def test_reply_classes(self):
        assert Reply(250, "ok").is_positive
        assert Reply(354, "go").is_positive
        assert Reply(450, "grey").is_transient_failure
        assert Reply(550, "no").is_permanent_failure

    def test_implausible_code_rejected(self):
        with pytest.raises(ValueError):
            Reply(99)

    def test_greylisted_reply_format(self):
        reply = replies.greylisted(300)
        assert reply.code == 450
        assert "Greylisted" in reply.text
