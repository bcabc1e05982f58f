"""End-to-end daemon tests over real sockets.

Every test drives a live :class:`PolicyServer` through ``asyncio.run``
inside a synchronous test function (the suite has no async test
runner).  The graceful-shutdown tests are the satellite contract: a
SIGTERM-style stop drains in-flight connections, flushes the backend,
and loses no acknowledged triplet write on either durable backend.
"""

import asyncio
import os
import signal

import pytest

from repro.greylist.backends import create_backend
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import TripletStore
from repro.serve.client import PolicyClient, make_request_attrs
from repro.serve.plugins import GreylistingPlugin, PluginChain
from repro.serve.protocol import ACTION_DUNNO, MAX_REQUEST_BYTES, format_request
from repro.serve.server import PolicyServer, ReplayClock, WallClock


def make_server(
    backend_name="memory", path=None, commit_every=None, **server_kwargs
):
    clock = ReplayClock()
    backend = create_backend(backend_name, path, commit_every=commit_every)
    store = TripletStore(clock=clock, backend=backend)
    policy = GreylistPolicy(clock=clock, delay=300.0, store=store)
    chain = PluginChain([GreylistingPlugin(policy)])
    server = PolicyServer(
        chain, clock, flush_interval=0.0, **server_kwargs
    )
    return server, policy


async def send_until_closed(wire):
    """Write ``wire`` to a fresh server; return what came back, and its stats."""
    server, _ = make_server()
    host, port = await server.start()
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(wire)
    await writer.drain()
    try:
        data = await reader.read()  # the server closes on a protocol error
    except ConnectionResetError:  # ... with part of the wire still unread
        data = b""
    writer.close()
    await server.shutdown()
    return data, server.stats


def attrs(client="10.1.2.3", sender="a@b.example", stamp=None, i=0):
    return make_request_attrs(
        client, sender, f"victim{i}@victim.example", stamp=stamp
    )


class TestServing:
    def test_greylist_defer_then_pass_over_the_wire(self):
        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            client = await PolicyClient.connect(host, port)
            try:
                first = await client.request(attrs(stamp=0.0))
                second = await client.request(attrs(stamp=301.0))
            finally:
                await client.close()
                await server.shutdown()
            return first, second, server.stats

        first, second, stats = asyncio.run(scenario())
        assert first.startswith("DEFER_IF_PERMIT 450")
        assert second == ACTION_DUNNO
        assert stats.decisions == 2
        assert stats.connections == 1
        assert stats.actions == {"DEFER_IF_PERMIT": 1, "DUNNO": 1}

    def test_pipelined_burst_answers_in_order(self):
        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            client = await PolicyClient.connect(host, port)
            try:
                batch = [
                    attrs(client=f"10.0.0.{i}", stamp=float(i), i=i)
                    for i in range(20)
                ]
                return await client.pipeline(batch)
            finally:
                await client.close()
                await server.shutdown()

        actions = asyncio.run(scenario())
        assert len(actions) == 20
        assert all(a.startswith("DEFER_IF_PERMIT") for a in actions)

    def test_concurrent_connections_share_one_policy(self):
        async def scenario():
            server, policy = make_server()
            host, port = await server.start()

            async def one(i):
                client = await PolicyClient.connect(host, port)
                try:
                    return await client.request(
                        attrs(client=f"10.0.1.{i}", stamp=float(i), i=i)
                    )
                finally:
                    await client.close()

            actions = await asyncio.gather(*(one(i) for i in range(32)))
            await server.shutdown()
            return actions, policy, server.stats

        actions, policy, stats = asyncio.run(scenario())
        assert len(actions) == 32
        assert stats.connections == 32
        # Every wire decision came from the one shared policy core.
        assert len(policy.events) == 32

    def test_malformed_stanza_closes_connection_and_counts(self):
        data, stats = asyncio.run(
            send_until_closed(b"this line has no equals sign\n\n")
        )
        assert data == b""
        assert stats.protocol_errors == 1
        # The peer did not close mid-stanza: nothing was truncated.
        assert stats.truncated == 0

    def test_oversized_stanza_closes_connection_and_counts(self):
        wire = b"filler=" + b"x" * (MAX_REQUEST_BYTES + 4096) + b"\n\n"
        data, stats = asyncio.run(send_until_closed(wire))
        assert data == b""
        assert stats.protocol_errors == 1
        assert stats.truncated == 0

    def test_empty_attribute_name_closes_connection_and_counts(self):
        data, stats = asyncio.run(send_until_closed(b"=no-name\n\n"))
        assert data == b""
        assert stats.protocol_errors == 1
        assert stats.truncated == 0

    def test_stanza_pipelined_ahead_of_a_bad_one_is_answered(self):
        wire = format_request(attrs(stamp=1.0)) + b"no equals\n\n"
        data, stats = asyncio.run(send_until_closed(wire))
        assert data.startswith(b"action=DEFER_IF_PERMIT")
        assert data.count(b"\n\n") == 1
        assert stats.decisions == 1
        assert stats.protocol_errors == 1
        assert stats.truncated == 0

    def test_error_after_an_answered_stanza_keeps_the_answer(self):
        async def scenario():
            server, policy = make_server()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(format_request(attrs(stamp=1.0)))
            answer = await reader.readuntil(b"\n\n")
            writer.write(b"no equals sign here\n\n")
            rest = await reader.read()
            writer.close()
            await server.shutdown()
            return answer, rest, policy, server.stats

        answer, rest, policy, stats = asyncio.run(scenario())
        assert answer.startswith(b"action=DEFER_IF_PERMIT")
        assert rest == b""
        assert len(policy.events) == 1
        assert stats.decisions == 1
        assert stats.protocol_errors == 1
        assert stats.truncated == 0

    def test_close_between_stanzas_is_not_truncated(self):
        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            client = await PolicyClient.connect(host, port)
            await client.request(attrs(stamp=1.0))
            await client.close()
            await asyncio.sleep(0.05)
            await server.shutdown()
            return server.stats

        stats = asyncio.run(scenario())
        assert stats.decisions == 1
        assert stats.protocol_errors == 0
        assert stats.truncated == 0

    def test_truncated_stanza_at_eof_is_counted(self):
        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"request=smtpd_access_policy\nsender=a@b.c\n")
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.05)
            await server.shutdown()
            return server.stats

        stats = asyncio.run(scenario())
        assert stats.truncated == 1

    def test_start_twice_is_an_error(self):
        async def scenario():
            server, _ = make_server()
            await server.start()
            try:
                with pytest.raises(RuntimeError):
                    await server.start()
            finally:
                await server.shutdown()

        asyncio.run(scenario())


class TestClocks:
    def test_replay_clock_follows_stamps_clamped_monotonic(self):
        clock = ReplayClock()
        clock.observe_stamp(10.0)
        assert clock.now == 10.0
        clock.observe_stamp(5.0)  # out-of-order under concurrency
        assert clock.now == 10.0
        clock.observe_stamp(None)
        assert clock.now == 10.0
        clock.observe_stamp(12.5)
        assert clock.now == 12.5

    def test_wall_clock_ignores_stamps(self):
        import time

        clock = WallClock()
        clock.observe_stamp(1.0)
        assert abs(clock.now - time.time()) < 5.0


class TestGracefulShutdown:
    @pytest.mark.parametrize("backend_name", ["sqlite", "shm"])
    def test_no_acknowledged_write_lost_on_durable_backends(
        self, backend_name, tmp_path
    ):
        """The drain contract: every decision a client got an answer for
        must be present in durable storage after shutdown, even with
        commits batched far beyond the number of writes."""
        path = str(tmp_path / f"triplets.{backend_name}")

        async def scenario():
            server, policy = make_server(
                backend_name, path, commit_every=10_000
            )
            host, port = await server.start()
            client = await PolicyClient.connect(host, port)
            try:
                batch = [
                    attrs(client=f"10.0.2.{i}", stamp=float(i), i=i)
                    for i in range(50)
                ]
                actions = await client.pipeline(batch)
            finally:
                await client.close()
            await server.shutdown()  # drains + flushes + closes backend
            return actions, len(policy.events)

        actions, event_count = asyncio.run(scenario())
        assert len(actions) == 50
        assert event_count == 50

        # Reopen the durable file cold: all 50 triplets must be there.
        reopened = create_backend(backend_name, path)
        try:
            assert len(list(reopened.scan())) == 50
        finally:
            if backend_name == "shm":
                reopened.unlink()  # the segment outlives close by design
            else:
                reopened.close()

    def test_shutdown_is_idempotent(self):
        async def scenario():
            server, _ = make_server()
            await server.start()
            await server.shutdown()
            await server.shutdown()

        asyncio.run(scenario())

    def test_sigterm_drains_and_exits_zero(self):
        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            runner = asyncio.ensure_future(server.run_until_signalled())
            await asyncio.sleep(0.01)
            client = await PolicyClient.connect(host, port)
            action = await client.request(attrs(stamp=0.0))
            await client.close()
            os.kill(os.getpid(), signal.SIGTERM)
            exit_code = await asyncio.wait_for(runner, timeout=5.0)
            return action, exit_code

        action, exit_code = asyncio.run(scenario())
        assert action.startswith("DEFER_IF_PERMIT")
        assert exit_code == 0

    def test_in_flight_burst_is_answered_during_drain(self):
        """Stanzas buffered before the stop signal are still decided."""

        async def scenario():
            server, _ = make_server()
            host, port = await server.start()
            client = await PolicyClient.connect(host, port)
            batch = [
                attrs(client=f"10.0.3.{i}", stamp=float(i), i=i)
                for i in range(10)
            ]
            pipelined = asyncio.ensure_future(client.pipeline(batch))
            await asyncio.sleep(0)  # let the writes hit the socket
            await server.shutdown()
            actions = await asyncio.wait_for(pipelined, timeout=5.0)
            await client.close()
            return actions

        actions = asyncio.run(scenario())
        assert len(actions) == 10
