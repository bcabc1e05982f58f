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
        assert server.stats.messages_accepted == 0


class RecordingPolicy(ConnectionPolicy):
    """Records the envelopes DATA hands over; refuses ``refuse`` recipients."""

    def __init__(self, refuse=(), reply=Reply(replies.CODE_TRANSACTION_FAILED, "refused")):
        self.envelopes = []
        self.refuse = set(refuse)
        self.reply = reply

    def on_message(self, client, envelope, message):
        self.envelopes.append(envelope)
        if envelope.recipient in self.refuse:
            return PolicyDecision(accept=False, reply=self.reply)
        return PolicyDecision.ok()


TWO_RECIPIENTS = ["u1@victim.example", "u2@victim.example"]


def open_transaction(server, message):
    """A session with MAIL and every RCPT of ``message`` accepted."""
    session = server.session_factory(CLIENT)
    session.ehlo("c")
    assert session.mail_from(message.sender).is_positive
    for recipient in message.recipients:
        assert session.rcpt_to(recipient).is_positive
    return session


class TestDataPhase:
    def test_policy_sees_one_envelope_per_recipient(self):
        policy = RecordingPolicy()
        server = make_server(policy=policy)
        message = Message(
            sender="alice@sender.example", recipients=TWO_RECIPIENTS, campaign_id="c-9"
        )
        open_transaction(server, message).data(message)
        assert [
            (e.sender, e.recipient, e.message_id, e.campaign_id) for e in policy.envelopes
        ] == [
            ("alice@sender.example", recipient, message.message_id, "c-9")
            for recipient in TWO_RECIPIENTS
        ]

    def test_log_records_carry_message_and_campaign_ids(self):
        server = make_server()
        message = Message(
            sender="alice@sender.example", recipients=TWO_RECIPIENTS, campaign_id="c-9"
        )
        open_transaction(server, message).data(message)
        assert [
            (r.recipient, r.stage, r.accepted, r.message_id, r.campaign_id)
            for r in server.log
        ] == [
            (recipient, "data", True, message.message_id, "c-9")
            for recipient in TWO_RECIPIENTS
        ]

    def test_mixed_outcome_accepts_the_message_once(self):
        policy = RecordingPolicy(
            refuse={"u2@victim.example"},
            reply=Reply(replies.CODE_MAILBOX_UNAVAILABLE, "user unknown"),
        )
        server = make_server(policy=policy)
        message = Message(sender="alice@sender.example", recipients=TWO_RECIPIENTS)
        reply = open_transaction(server, message).data(message)
        # One accepting recipient makes the transaction succeed.
        assert reply.code == replies.CODE_OK
        assert server.stats.messages_accepted == 1
        assert [(r.recipient, r.accepted, r.reply_code) for r in server.log] == [
            ("u1@victim.example", True, replies.CODE_OK),
            ("u2@victim.example", False, replies.CODE_MAILBOX_UNAVAILABLE),
        ]
        assert server.stats.envelopes_accepted == 1
        assert server.stats.envelopes_rejected == 1

    def test_deferral_of_every_recipient_is_the_answer(self):
        deferral = Reply(replies.CODE_LOCAL_ERROR, "4.7.1 try again later")
        server = make_server(policy=RecordingPolicy(refuse=TWO_RECIPIENTS, reply=deferral))
        message = Message(sender="alice@sender.example", recipients=TWO_RECIPIENTS)
        assert open_transaction(server, message).data(message) == deferral
        assert server.stats.messages_accepted == 0

    def test_any_permanent_refusal_fails_the_transaction(self):
        class DeferThenReject(ConnectionPolicy):
            def on_message(self, client, envelope, message):
                if envelope.recipient == TWO_RECIPIENTS[0]:
                    return PolicyDecision.reject(Reply(replies.CODE_MAILBOX_BUSY, "later"))
                return PolicyDecision.reject(Reply(replies.CODE_MAILBOX_UNAVAILABLE, "no"))

        server = make_server(policy=DeferThenReject())
        message = Message(sender="alice@sender.example", recipients=TWO_RECIPIENTS)
        reply = open_transaction(server, message).data(message)
        assert reply.code == replies.CODE_TRANSACTION_FAILED

    def test_data_ends_the_transaction(self):
        server = make_server()
        message = Message(sender="alice@sender.example", recipients=TWO_RECIPIENTS)
        session = open_transaction(server, message)
        assert session.data(message).is_positive
        assert session.state is SessionState.GREETED
        assert session.sender is None and session.recipients == []
        # A new transaction must start with MAIL FROM again.
        assert session.rcpt_to("u3@victim.example").code == replies.CODE_BAD_SEQUENCE
        assert session.data(message).code == replies.CODE_BAD_SEQUENCE
        assert server.stats.messages_accepted == 1


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

    def test_mail_from_inside_a_transaction_is_refused(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("a@b.net")
        session.rcpt_to("u1@victim.example")
        # RFC 5321: a nested MAIL is a sequence error; the open
        # transaction stays as it was.
        assert session.mail_from("z@b.net").code == replies.CODE_BAD_SEQUENCE
        assert session.state is SessionState.RCPT
        assert session.sender == "a@b.net"
        assert session.recipients == ["u1@victim.example"]

    def test_mail_from_again_before_rcpt_replaces_the_sender(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.mail_from("a@b.net")
        assert session.mail_from("z@b.net").is_positive
        session.rcpt_to("u2@victim.example")
        message = Message(sender="z@b.net", recipients=["u2@victim.example"])
        assert session.data(message).is_positive
        assert [(r.sender, r.recipient) for r in server.log] == [
            ("z@b.net", "u2@victim.example")
        ]

    def test_commands_after_quit_are_refused(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        session.quit()
        assert session.ehlo("c").code == replies.CODE_BAD_SEQUENCE
        assert session.rset().code == replies.CODE_BAD_SEQUENCE
        assert session.mail_from("a@b.net").code == replies.CODE_BAD_SEQUENCE
        assert session.state is SessionState.CLOSED

    def test_rset_before_greeting_keeps_the_session_ungreeted(self):
        server = make_server()
        session = server.session_factory(CLIENT)
        assert session.rset().is_positive
        assert session.state is SessionState.CONNECTED
        assert session.mail_from("a@b.net").code == replies.CODE_BAD_SEQUENCE

    def test_ehlo_advertises_extensions_helo_does_not(self):
        server = make_server()
        extended = server.session_factory(CLIENT).ehlo("c")
        plain = server.session_factory(CLIENT).helo("c")
        assert "PIPELINING" in extended.text
        assert "PIPELINING" not in plain.text
        assert extended.code == plain.code == replies.CODE_OK

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

    def test_foreign_recipient_rejected_before_policy(self):
        # The paper notes servers refuse recipients they do not serve
        # *before* greylisting; the log stage must reflect that ordering.
        class CountingPolicy(ConnectionPolicy):
            def __init__(self):
                self.rcpt_calls = 0

            def on_rcpt_to(self, client, sender, recipient):
                self.rcpt_calls += 1
                return PolicyDecision.ok()

        policy = CountingPolicy()
        server = make_server(policy=policy, local_domains=["victim.example"])
        _, reply = full_dialogue(server, recipient="ghost@other.example")
        assert reply.code == replies.CODE_USER_NOT_LOCAL
        assert policy.rcpt_calls == 0
        assert server.log[-1].stage == "relay"


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

    def test_rejection_without_reply_is_refused(self):
        # The session answers a rejection with its reply; one without a
        # reply would leave the session to invent one.
        with pytest.raises(ValueError, match="reply"):
            PolicyDecision(accept=False)

    def test_helo_rejection_leaves_the_session_ungreeted(self):
        class RefuseHelo(ConnectionPolicy):
            def on_helo(self, client, helo_name):
                return PolicyDecision.reject(Reply(replies.CODE_TRANSACTION_FAILED, "bad"))

        server = make_server(policy=RefuseHelo())
        session = server.session_factory(CLIENT)
        assert session.ehlo("c").code == replies.CODE_TRANSACTION_FAILED
        assert session.state is SessionState.CONNECTED
        assert session.helo_name is None
        assert session.mail_from("a@b.net").code == replies.CODE_BAD_SEQUENCE

    def test_mail_from_rejection_opens_no_transaction(self):
        class RefuseSender(ConnectionPolicy):
            def on_mail_from(self, client, sender):
                return PolicyDecision.reject(Reply(replies.CODE_MAILBOX_BUSY, "later"))

        server = make_server(policy=RefuseSender())
        session = server.session_factory(CLIENT)
        session.ehlo("c")
        assert session.mail_from("a@b.net").code == replies.CODE_MAILBOX_BUSY
        assert session.state is SessionState.GREETED
        assert session.sender is None
        assert session.rcpt_to("u@victim.example").code == replies.CODE_BAD_SEQUENCE

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
        assert server.stats.messages_accepted == 0


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
