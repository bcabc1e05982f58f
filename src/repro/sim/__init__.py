"""Deterministic discrete-event simulation kernel.

Everything time- or randomness-dependent in the reproduction runs on top of
this package: a virtual :class:`~repro.sim.clock.Clock`, a FIFO-stable
:class:`~repro.sim.events.EventScheduler` and splittable
:class:`~repro.sim.rng.RandomStream` seeds.
"""
