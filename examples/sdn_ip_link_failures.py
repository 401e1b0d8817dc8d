#!/usr/bin/env python3
"""Real-time verification of a live SDN-IP deployment (paper §4.2.2).

Recreates Figure 7's pipeline in-process:

    BGP peers --eBGP--> RIB --SDN-IP--> controller --(+r / -r)--> verifier

Sixteen switches in the Airtel topology, one Quagga-like border router
per switch announcing Route-Views-style prefixes.  A
:class:`repro.VerificationSession` (Delta-net backend with atom GC)
subscribes to the controller's rule feed and checks every
insertion/removal for forwarding loops as it happens; an event injector
then fails and recovers every link (the Airtel 1 campaign) while
verification keeps up.  Because the controller feed is just
``session.apply(op)``, any registered backend can sit in the verifier
box — set ``BACKEND=veriflow`` to watch the baseline fall behind.

Run:  python examples/sdn_ip_link_failures.py
"""

import os

from repro import LoopProperty, VerificationSession
from repro.analysis.stats import summarize
from repro.bgp.prefixes import PrefixPool
from repro.bgp.updates import UpdateStream
from repro.sdn.controller import Controller
from repro.sdn.events import EventInjector
from repro.sdn.sdnip import SdnIp
from repro.topology.generators import airtel


def main() -> None:
    topology = airtel()
    controller = Controller(topology)
    backend = os.environ.get("BACKEND", "deltanet")
    options = {"gc": True} if backend == "deltanet" else {}
    session = VerificationSession(backend, properties=(LoopProperty(),),
                                 **options)
    times = []

    def verify(op) -> None:
        """The verifier box of Figure 7: check each +r / -r in real time."""
        result = session.apply(op)
        times.append(result.latency)

    controller.subscribe(verify)

    peers = {f"bgp{i}": i for i in range(topology.num_nodes)}
    sdnip = SdnIp(controller, peers)
    stream = UpdateStream(list(peers), PrefixPool(seed=42),
                          prefixes_per_peer=8, seed=42)

    print(f"announcing prefixes from 16 border routers (backend={backend}) ...")
    sdnip.handle_updates(stream.initial_announcements())
    stats = session.stats()
    print(f"  programmed {controller.num_installed} rules, "
          f"{stats.get('atoms', '?')} atoms, "
          f"{len(session.violations())} transient loops")

    print("\ninjecting link failures (Airtel 1 campaign: every link once) ...")
    injector = EventInjector(sdnip)
    failures = injector.single_failure_sweep()
    print(f"  {failures} failures + recoveries caused "
          f"{len(times) - controller.num_installed} extra rule operations")

    print("\nroute flapping (withdraw/re-announce) ...")
    sdnip.handle_updates(stream.flaps(40))

    summary = summarize(times)
    print(f"\nverified {summary['count']} rule updates in real time:")
    print(f"  median {summary['median'] * 1e6:.1f} us, "
          f"mean {summary['mean'] * 1e6:.1f} us, "
          f"p99 {summary['p99'] * 1e6:.1f} us, "
          f"{summary['frac_below_threshold'] * 100:.1f}% under 250 us")
    print(f"  forwarding loops flagged: {len(session.violations())} "
          f"(reroute churn can transiently loop; steady state is clean)")
    print(f"final state: {session!r}")


if __name__ == "__main__":
    main()
