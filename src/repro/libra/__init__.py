"""Libra-style header-space sharding on top of Delta-net (§5).

"Libra's partitioning scheme into disjoint subnets is orthogonal to our
algorithm ... it would be interesting to leverage both ideas together in
future work."  This package does exactly that: it partitions the
destination space into disjoint shards (Libra's "subnets"), routes every
rule to the shards its prefix intersects, and runs one independent
:class:`~repro.core.deltanet.DeltaNet` per shard.  Shards never share
state — the map step of Libra's MapReduce formulation — while each
shard keeps Delta-net's incremental guarantees.  The shards run in one
process: the package models Libra's partition (and gives the
differential fuzzer a second Delta-net backend to compare), not its
distribution.
"""

from repro.libra.sharding import ShardedDeltaNet, even_shards

__all__ = ["ShardedDeltaNet", "even_shards"]
