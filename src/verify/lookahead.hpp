// Shard layouts for the sharded event kernel, from the torus alone
// (DESIGN.md §11).
//
// The kernel is a conservative PDES: each shard may run ahead of the global
// minimum by the lookahead, the least latency of any message another shard
// can still send it. The torus makes that bound a fact of link physics:
// every packet crossing from shard A to shard B pays at least the cheapest
// link crossing (net::LatencyConfig::minLinkCrossingNs) per hop. A
// ShardFamily maps whole nodes to shards, so every shard boundary runs
// along torus links and no pair bound can collapse to zero; a layout that
// splits a node cannot be expressed.
//
// The dynamic side is the kernel's window barrier (sim::Simulator): while a
// run executes it rejects any cross-shard message faster than the pair
// bound shardLayout() hands it ("sharded.lookahead").
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "net/latency.hpp"
#include "sim/shard_layout.hpp"
#include "util/torus_coord.hpp"

namespace anton::verify {

/// The shipped node->shard maps.
enum class ShardFamily {
  kPerNode,  ///< "per-node": one shard per node (finest, most parallel)
  kSlabX,    ///< "slab-x": one shard per x-slab; boundaries are x-links only
};

/// Cross-shard boundary statistics of one unordered shard pair.
struct ShardPairStat {
  int a = 0, b = 0;          ///< a < b
  double linkBoundNs = 0.0;  ///< min route latency between the two shards
  int boundaryLinks = 0;     ///< torus links joining the pair (0 = the
                             ///< shards are not adjacent)
};

/// The bound of every shard pair (a < b) under `shardOfNode` (node linear
/// index -> shard), from topology alone: the cheapest dimension-ordered
/// route between any node of one shard and any node of the other, at
/// lat.minLinkCrossingNs(dim) per hop. Adjacent pairs get one link
/// crossing; pairs further apart still exchange multi-hop messages and get
/// their (larger) route minimum.
std::map<std::pair<int, int>, ShardPairStat> shardPairBounds(
    const util::TorusShape& shape, const std::vector<int>& shardOfNode,
    const net::LatencyConfig& lat);

/// The sharded kernel's layout for `family` over `shape`: the node->shard
/// map plus every pair's shardPairBounds() bound, sound for any workload
/// (adaptive routing may cross any boundary, whether or not a plan puts
/// traffic on it); the budget is the minimum pair bound. Throws
/// std::runtime_error when a multi-shard layout has no shard pairs.
sim::ShardLayout shardLayout(const util::TorusShape& shape,
                             ShardFamily family,
                             const net::LatencyConfig& lat = {});

}  // namespace anton::verify
