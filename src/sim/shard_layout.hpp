// Sharding description consumed by the parallel (sharded) event kernel.
//
// A ShardLayout is pure data: which shard owns each machine node and the
// per-shard-pair channel lookahead bounds. It deliberately knows nothing
// about how those numbers were derived — verify::shardLayout() (in
// verify/lookahead.hpp) builds one from the torus topology for a shard
// family whose shards are whole nodes. Keeping the kernel's input data-only
// preserves the layering: src/sim never depends on src/verify.
//
// The synchronization-window width is the minimum pair bound
// (lookaheadPs()): every cross-shard message pays at least one boundary
// crossing, so no shard can receive an event earlier than that past the
// global minimum (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace anton::sim {

struct ShardLayout {
  std::string name;  ///< sharding family, e.g. "per-node", "slab-x"
  int numShards = 1;
  /// Node linear index -> owning shard. Every node a Machine will route
  /// through must be covered.
  std::vector<int> shardOfNode;
  /// Channel lookahead per shard pair (a < b), in picoseconds:
  /// verify::shardPairBounds over the full topology — adaptive routing may
  /// cross any adjacent boundary, whether or not a plan puts traffic on it.
  std::map<std::pair<int, int>, Time> pairBoundPs;

  int shardOf(int node) const {
    if (node < 0 || std::size_t(node) >= shardOfNode.size())
      throw std::out_of_range("ShardLayout: node " + std::to_string(node) +
                              " outside the sharded node range");
    return shardOfNode[std::size_t(node)];
  }

  /// Channel bound for an (unordered) shard pair; -1 when the pair has no
  /// bound — a live message between such shards violates the layout.
  Time pairBound(int a, int b) const {
    if (a > b) std::swap(a, b);
    auto it = pairBoundPs.find({a, b});
    return it == pairBoundPs.end() ? Time(-1) : it->second;
  }

  /// The run-ahead budget: the minimum pair bound (0 without any pair, which
  /// the kernel refuses).
  Time lookaheadPs() const {
    if (pairBoundPs.empty()) return 0;
    Time cap = pairBoundPs.begin()->second;
    for (const auto& [pair, bound] : pairBoundPs) cap = std::min(cap, bound);
    return cap;
  }
};

}  // namespace anton::sim
