#!/usr/bin/env python3
"""Datalog-style "what if" queries (paper §4.3.2, Table 4).

Builds a consistent data plane from the Berkeley-style dataset, then
asks, for every link: *what is the fate of packets using this link if it
fails?* — through two :class:`repro.VerificationSession` instances whose
only difference is the backend name.  Delta-net answers with a
constant-time label lookup; Veriflow-RI recomputes equivalence classes
and one forwarding graph per EC behind the very same
``what_if_link_down`` call, and the speedup is printed.

Run:  python examples/what_if_queries.py
"""

import time

from repro import LinkDown, VerificationSession
from repro.datasets.builders import build_berkeley


def main() -> None:
    dataset = build_berkeley(scale=0.6)
    print(f"building the {dataset.name} data plane "
          f"({dataset.num_inserts} rules) ...")
    deltanet = VerificationSession("deltanet")
    # check_loops=False: skip Veriflow's per-insert EC loop checking
    # while loading — this example only measures the what-if queries.
    veriflow = VerificationSession("veriflow", check_loops=False)
    for op in dataset.ops:
        if op.is_insert:
            deltanet.apply(op)
            veriflow.apply(op)
    links = deltanet.links()
    stats = deltanet.stats()
    print(f"  {stats['atoms']} atoms over {len(links)} labelled links")

    print(f"\nfailing each of the {len(links)} links (hypothetically) ...")
    start = time.perf_counter()
    impacts = [deltanet.query(LinkDown(link)).spans for link in links]
    deltanet_time = time.perf_counter() - start

    start = time.perf_counter()
    for link in links:
        veriflow.query(LinkDown(link))
    veriflow_time = time.perf_counter() - start

    worst_index = max(range(len(links)), key=lambda i: len(impacts[i]))
    print(f"  Delta-net:   {deltanet_time * 1e3:8.1f} ms total "
          f"({deltanet_time / len(links) * 1e3:.2f} ms/query)")
    print(f"  Veriflow-RI: {veriflow_time * 1e3:8.1f} ms total "
          f"({veriflow_time / len(links) * 1e3:.2f} ms/query)")
    print(f"  speedup: {veriflow_time / deltanet_time:.1f}x "
          f"(the paper reports 10x to orders of magnitude)")
    print(f"\nworst-hit link {links[worst_index]}: "
          f"{len(impacts[worst_index])} affected interval(s), e.g. "
          f"{impacts[worst_index][:3]}")


if __name__ == "__main__":
    main()
