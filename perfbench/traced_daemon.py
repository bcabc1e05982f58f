"""The serving daemon with timing spans around each layer.

Builds the chain ``repro serve --clock replay`` builds (memory backend,
one worker) from public classes, wraps their methods with spans, and
serves until SIGTERM.  SIGUSR1 snapshots the gauges (decision-cache
hits and misses, store entries, retained policy events) so the harness
can cut out the window it timed.  Spans and GC pauses are kept in
memory and written to ``--trace-out`` at exit.

Layers and the spans that stand for them:

* ``serve.server`` — one event-loop iteration, from the selector's
  return to its next call (socket reads and writes, stream machinery,
  the connection handler);
* ``serve.protocol.feed`` — ``StanzaParser.feed``;
* ``serve.plugins.chain`` / ``serve.plugins.cache`` — ``PluginChain.decide``
  and ``CachedWhitelist.matches`` (the ``DecisionCache`` lookup);
* ``greylist.policy`` — ``GreylistPolicy.on_rcpt_to``;
* ``greylist.store.observe`` / ``greylist.store.mark_passed`` — the
  ``TripletStore`` calls.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import selectors
import signal
import sys
from typing import Any, Dict, List, Optional

import spans


def build(tracer: spans.Tracer, delay: float):
    from repro.greylist.backends import SERVING_COMMIT_EVERY, create_backend
    from repro.greylist.policy import GreylistPolicy
    from repro.greylist.store import TripletStore
    from repro.serve.plugins import (
        CachedWhitelist,
        DecisionCache,
        GreylistingPlugin,
        PluginChain,
    )
    from repro.serve.protocol import StanzaParser
    from repro.serve.server import PolicyServer, ReplayClock

    patcher = spans.Patcher(tracer)
    patcher.wrap(StanzaParser, "feed", "serve.protocol.feed")
    patcher.wrap(PluginChain, "decide", "serve.plugins.chain")
    patcher.wrap(CachedWhitelist, "matches", "serve.plugins.cache")
    patcher.wrap(GreylistPolicy, "on_rcpt_to", "greylist.policy")
    patcher.wrap(TripletStore, "observe", "greylist.store.observe")
    patcher.wrap(TripletStore, "mark_passed", "greylist.store.mark_passed")

    clock = ReplayClock()
    store = TripletStore(
        clock,
        backend=create_backend("memory", None, commit_every=SERVING_COMMIT_EVERY),
    )
    policy = GreylistPolicy(clock=clock, delay=delay, store=store)
    cache = DecisionCache()
    chain = PluginChain([GreylistingPlugin(policy, cache=cache)])
    server = PolicyServer(chain, clock)

    def gauges() -> Dict[str, float]:
        return {
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "entries": store.size,
            "events": len(policy.events),
        }

    return server, gauges


class TracedSelector(selectors.DefaultSelector):  # type: ignore[misc,valid-type]
    """Closes the loop-iteration span before each wait, opens one after."""

    tracer: Optional[spans.Tracer] = None
    nid = 0

    def select(self, timeout: Optional[float] = None) -> List[Any]:
        tracer = self.tracer
        assert tracer is not None
        if tracer.depth:
            tracer.end()
        try:
            return super().select(timeout)
        finally:
            tracer.begin(self.nid)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--delay", type=float, required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    tracer = spans.Tracer()
    server, gauges = build(tracer, args.delay)
    gc.callbacks.append(spans.gc_probe(tracer))
    TracedSelector.tracer = tracer
    TracedSelector.nid = tracer.name_id("serve.server")

    async def serve() -> int:
        host, port = await server.start()
        print(f"listening on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, lambda: tracer.mark(gauges()))
        status = await server.run_until_signalled()
        stats = server.stats
        print(
            f"served {stats.decisions} decisions over {stats.connections} "
            f"connections ({stats.protocol_errors} protocol errors, "
            f"{stats.truncated} truncated)",
            flush=True,
        )
        return status

    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(TracedSelector())
    ) as runner:
        status = runner.run(serve())
    while tracer.depth:
        tracer.end()
    tracer.dump(args.trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
