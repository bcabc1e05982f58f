#!/usr/bin/env python3
"""Quickstart: a greylisted mail server, a benign sender, and two spam bots.

Builds the smallest interesting scenario on the simulator:

* a victim domain protected by greylisting (Postgrey defaults: 300 s);
* a well-behaved MTA (postfix retry schedule) that delivers after one
  deferral;
* a fire-and-forget bot (Cutwail-style) that is blocked outright;
* a retrying bot (Kelihos-style) that defeats greylisting.

Run:  python examples/quickstart.py
"""

from repro.botnet.families import CUTWAIL, KELIHOS
from repro.core.testbed import Defense, Testbed, TestbedConfig
from repro.dns.resolver import StubResolver
from repro.mta.profiles import PROFILES
from repro.mta.queue import QueueManager
from repro.net.address import pool_for
from repro.sim.rng import RandomStream
from repro.smtp.client import SMTPClient
from repro.smtp.message import Message


def main(seed: int = 7) -> None:
    # --- the defended server -------------------------------------------
    testbed = Testbed(
        TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=300.0)
    )
    print(f"victim domain : {testbed.config.victim_domain}")
    print(f"defence       : greylisting, threshold {testbed.greylist.delay:g}s")

    # --- a benign sender running postfix -------------------------------
    sender_pool = pool_for("203.0.113.0/24")
    client = SMTPClient(
        internet=testbed.internet,
        resolver=StubResolver(testbed.zones, clock=testbed.clock),
        source_address=sender_pool.allocate(),
        helo_name="mail.company.example",
    )
    queue = QueueManager(testbed.scheduler, client, PROFILES["postfix"].schedule)
    queue.submit(
        Message(
            sender="alice@company.example",
            recipients=["bob@victim.example"],
            subject="quarterly report",
        )
    )

    # --- two bots with the paper's family behaviours -------------------
    rng = RandomStream(seed, "quickstart")
    cutwail = CUTWAIL.build_bot(
        internet=testbed.internet,
        resolver=testbed.resolver,
        scheduler=testbed.scheduler,
        source_address=testbed.allocate_bot_address(),
        rng=rng.split("cutwail"),
    )
    kelihos = KELIHOS.build_bot(
        internet=testbed.internet,
        resolver=testbed.resolver,
        scheduler=testbed.scheduler,
        source_address=testbed.allocate_bot_address(),
        rng=rng.split("kelihos"),
    )
    spam = Message(
        sender="spam@botnet.example",
        recipients=["bob@victim.example"],
        subject="You won!!!",
    )
    cutwail.assign(spam)
    kelihos.assign(
        Message(
            sender="spam2@botnet.example",
            recipients=["bob@victim.example"],
            subject="You won again!!!",
        )
    )

    # --- run a simulated day --------------------------------------------
    testbed.run(horizon=86400.0)

    # --- outcomes ---------------------------------------------------------
    benign = queue.entries[0]
    print("\nbenign mail (postfix):")
    print(f"  state={benign.state.value}, attempts={benign.attempt_count}, "
          f"delay={benign.delivery_delay:.0f}s")

    print("cutwail bot (fire-and-forget):")
    task = cutwail.tasks[0]
    print(f"  delivered={task.delivered}, attempts={task.attempt_count} "
          f"(gave up after the 450 greylisting reply)")

    print("kelihos bot (retries >= 300s):")
    task = kelihos.tasks[0]
    print(f"  delivered={task.delivered}, attempts={task.attempt_count}, "
          f"delay={task.delivery_delay:.0f}s")

    print("\nserver log:")
    for record in testbed.server.log:
        status = "ACCEPT" if record.accepted else f"DEFER({record.reply_code})"
        print(f"  t={record.timestamp:>8.1f}s  {record.sender:<24} "
              f"-> {record.recipient:<22} {status}")

    accepted = testbed.server.stats.messages_accepted
    print(f"\nmessages accepted: {accepted} "
          "(the benign one and the Kelihos spam; Cutwail was blocked)")


if __name__ == "__main__":
    main()
