"""Protocol-layer tests: incremental parsing, tolerances, hard errors."""

import pytest

from repro.serve.protocol import (
    ACTION_DUNNO,
    MAX_REQUEST_BYTES,
    PolicyRequest,
    ProtocolError,
    StanzaParser,
    format_request,
    format_response,
    iter_response_actions,
    parse_response,
)

#: A verbatim policy request as Postfix 3.x sends it (the attribute set
#: of the SMTPD_POLICY_README example, RCPT state).  The golden test
#: pins that a real recorded exchange parses to the expected attrs.
POSTFIX_TRANSCRIPT = (
    b"request=smtpd_access_policy\n"
    b"protocol_state=RCPT\n"
    b"protocol_name=SMTP\n"
    b"helo_name=some.domain.tld\n"
    b"queue_id=8045F2AB23\n"
    b"sender=foo@bar.tld\n"
    b"recipient=bar@foo.tld\n"
    b"recipient_count=0\n"
    b"client_address=1.2.3.4\n"
    b"client_name=another.domain.tld\n"
    b"reverse_client_name=another.domain.tld\n"
    b"instance=123.456.7\n"
    b"sasl_method=plain\n"
    b"sasl_username=you\n"
    b"sasl_sender=\n"
    b"size=12345\n"
    b"ccert_subject=solaris9.porcupine.org\n"
    b"ccert_issuer=Wietse+20Venema\n"
    b"ccert_fingerprint=C2:9D:F4:87:71:73:73:D9:18:E7:C2:F3:C1:DA:6E:04\n"
    b"encryption_protocol=TLSv1/SSLv3\n"
    b"encryption_cipher=DHE-RSA-AES256-SHA\n"
    b"encryption_keysize=256\n"
    b"etrn_domain=\n"
    b"stress=\n"
    b"ccert_pubkey_fingerprint=68:B3:29:DA:98:93:E3:40:99:C7:D8:AD:5C:B9:C9:40\n"
    b"client_port=1234\n"
    b"policy_context=submission\n"
    b"server_address=10.3.2.1\n"
    b"server_port=54321\n"
    b"\n"
)


class TestStanzaParser:
    def test_golden_postfix_transcript(self):
        requests = StanzaParser().feed(POSTFIX_TRANSCRIPT)
        assert len(requests) == 1
        request = requests[0]
        assert request.request == "smtpd_access_policy"
        assert request.protocol_state == "RCPT"
        assert request.client_address == "1.2.3.4"
        assert request.sender == "foo@bar.tld"
        assert request.recipient == "bar@foo.tld"
        assert request.helo_name == "some.domain.tld"
        # Unknown attributes are preserved verbatim, empty values too.
        assert request.get("queue_id") == "8045F2AB23"
        assert request.get("etrn_domain") == ""
        assert request.get("policy_context") == "submission"
        assert len(request.attrs) == 29

    def test_pipelined_burst_parses_in_one_feed(self):
        burst = b"".join(
            format_request(
                {
                    "request": "smtpd_access_policy",
                    "protocol_state": "RCPT",
                    "client_address": f"10.0.0.{i}",
                    "sender": f"s{i}@a.example",
                    "recipient": "r@b.example",
                }
            )
            for i in range(50)
        )
        requests = StanzaParser().feed(burst)
        assert [r.client_address for r in requests] == [
            f"10.0.0.{i}" for i in range(50)
        ]

    def test_stanza_split_across_arbitrary_feed_boundaries(self):
        wire = POSTFIX_TRANSCRIPT * 3
        for chunk in (1, 2, 3, 7, 64):
            parser = StanzaParser()
            seen = []
            for base in range(0, len(wire), chunk):
                seen.extend(parser.feed(wire[base : base + chunk]))
            assert len(seen) == 3
            assert all(r.client_address == "1.2.3.4" for r in seen)
            assert parser.pending == 0

    def test_terminator_straddling_two_feeds(self):
        parser = StanzaParser()
        assert parser.feed(b"request=smtpd_access_policy\n") == []
        requests = parser.feed(b"\n")
        assert len(requests) == 1
        assert parser.pending == 0

    def test_truncated_stanza_stays_pending(self):
        parser = StanzaParser()
        assert parser.feed(b"request=smtpd_access_policy\nsender=a@b.c\n") == []
        assert parser.pending > 0  # EOF now would mean a truncated request

    def test_unknown_keys_are_preserved(self):
        parser = StanzaParser()
        [request] = parser.feed(
            b"request=smtpd_access_policy\nfrobnicate=yes\n\n"
        )
        assert request.get("frobnicate") == "yes"

    def test_equals_in_value_splits_on_first(self):
        [request] = StanzaParser().feed(b"sender=a=b@c.example\n\n")
        assert request.sender == "a=b@c.example"

    def test_duplicate_attribute_keeps_last(self):
        [request] = StanzaParser().feed(
            b"sender=first@a.example\nsender=second@a.example\n\n"
        )
        assert request.sender == "second@a.example"

    def test_crlf_lines_parse(self):
        [request] = StanzaParser().feed(
            b"request=smtpd_access_policy\r\nsender=a@b.example\r\n\r\n"
        )
        assert request.sender == "a@b.example"

    def test_line_without_equals_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            StanzaParser().feed(b"this is not an attribute\n\n")

    def test_oversized_complete_stanza_is_protocol_error(self):
        parser = StanzaParser(max_request_bytes=128)
        wire = b"filler=" + b"x" * 200 + b"\n\n"
        with pytest.raises(ProtocolError):
            parser.feed(wire)

    def test_oversized_unterminated_stanza_is_protocol_error(self):
        parser = StanzaParser(max_request_bytes=128)
        with pytest.raises(ProtocolError):
            parser.feed(b"filler=" + b"x" * 200)

    def test_malformed_line_error_carries_earlier_requests(self):
        good = b"sender=a@b.example\n\n"
        with pytest.raises(ProtocolError) as caught:
            StanzaParser().feed(good + b"no equals\n\n")
        assert [r.sender for r in caught.value.requests] == ["a@b.example"]

    def test_oversized_complete_error_carries_earlier_requests(self):
        good = b"sender=a@b.example\n\n"
        parser = StanzaParser(max_request_bytes=128)
        with pytest.raises(ProtocolError) as caught:
            parser.feed(good + b"filler=" + b"x" * 200 + b"\n\n")
        assert [r.sender for r in caught.value.requests] == ["a@b.example"]

    def test_oversized_unterminated_error_carries_earlier_requests(self):
        good = b"sender=a@b.example\n\n"
        with pytest.raises(ProtocolError) as caught:
            StanzaParser().feed(good + b"x" * 20_000)
        assert [r.sender for r in caught.value.requests] == ["a@b.example"]

    def test_oversized_guard_spans_feeds(self):
        parser = StanzaParser(max_request_bytes=128)
        parser.feed(b"filler=" + b"x" * 100)
        with pytest.raises(ProtocolError):
            parser.feed(b"y" * 100)

    def test_default_cap_accepts_postfix_sized_requests(self):
        assert len(POSTFIX_TRANSCRIPT) < MAX_REQUEST_BYTES
        assert StanzaParser().feed(POSTFIX_TRANSCRIPT)

    def test_minimum_cap_enforced(self):
        with pytest.raises(ValueError):
            StanzaParser(max_request_bytes=8)


class TestRequestAccessors:
    def test_stamp_parses_float(self):
        assert PolicyRequest({"stamp": "1234.5"}).stamp == 1234.5

    def test_stamp_absent_is_none(self):
        assert PolicyRequest({}).stamp is None

    def test_stamp_malformed_is_none(self):
        assert PolicyRequest({"stamp": "not-a-float"}).stamp is None

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e400"])
    def test_stamp_non_finite_is_none(self, raw):
        # An infinite stamp used to move the replay clock to infinity.
        assert PolicyRequest({"stamp": raw}).stamp is None

    def test_missing_accessors_default_empty(self):
        request = PolicyRequest({})
        assert request.request == ""
        assert request.protocol_state == ""
        assert request.client_address == ""


class TestWireFormatting:
    def test_response_round_trip(self):
        assert parse_response(format_response("DUNNO")) == "DUNNO"
        wire = format_response("DEFER_IF_PERMIT 450 4.2.0 Greylisted")
        assert wire.endswith(b"\n\n")
        assert parse_response(wire) == "DEFER_IF_PERMIT 450 4.2.0 Greylisted"

    def test_response_bytes_are_cached(self):
        assert format_response(ACTION_DUNNO) is format_response(ACTION_DUNNO)

    def test_request_round_trip(self):
        attrs = {
            "request": "smtpd_access_policy",
            "protocol_state": "RCPT",
            "client_address": "1.2.3.4",
            "sender": "a@b.example",
            "recipient": "c@d.example",
        }
        [parsed] = StanzaParser().feed(format_request(attrs))
        assert parsed.attrs == attrs

    def test_response_without_action_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_response(b"verdict=DUNNO\n\n")

    def test_iter_response_actions_consumes_and_keeps_residue(self):
        buffer = bytearray(
            format_response("DUNNO") + format_response("OK") + b"action=PART"
        )
        assert list(iter_response_actions(buffer)) == ["DUNNO", "OK"]
        assert bytes(buffer) == b"action=PART"
