"""Live serving layer: asyncio Postfix policy daemon over the engine.

The simulator measures greylisting; this package *serves* it.  A single
asyncio event loop speaks the Postfix policy-delegation protocol
(:mod:`repro.serve.protocol`), walks an iRedAPD-style plugin chain
(:mod:`repro.serve.plugins`) whose greylisting link is the exact
:class:`~repro.greylist.policy.GreylistPolicy` the experiments run, and
answers ``action=DUNNO`` / ``DEFER_IF_PERMIT`` / ... at 10k+ concurrent
connections (:mod:`repro.serve.server`).  The load generator
(:mod:`repro.serve.loadgen`) replays the synthetic internet's bot
traffic through the daemon so the served and simulated paths are
provably one policy core.
"""
