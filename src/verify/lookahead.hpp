// Static parallel-safety analysis: lookahead and shard-conflict proofs
// (DESIGN.md §11).
//
// The ROADMAP's parallel event kernel is a conservative PDES: shards
// exchange timestamped events and each shard may safely execute up to
// T + lookahead, where lookahead is the minimum latency of any message that
// can still arrive from another shard. The torus makes that bound *static*:
// every packet crossing from shard A to shard B pays at least the cheapest
// link-crossing latency on the A/B boundary (net::LatencyConfig::
// minLinkCrossingNs). This analyzer proves, per CommPlan and sharding,
// which of the plan's happens-before edges cross shards and that each one
// carries at least the shard pair's claimed lookahead — before a single
// thread exists. Its report (VERIFY_lookahead.json) is the static proof the
// sharded kernel's topology budget is tested against: shardLayout() below
// builds the kernel's layout from the torus alone, and its budget never
// exceeds what this analyzer proves for any shipped plan (sharded_test).
//
// Diagnostics (Violation::check):
//   "lookahead.zero"     — a cross-shard happens-before edge with zero
//                          static latency (a node's clients split across
//                          shards): the pair's lookahead is 0 and the
//                          conservative kernel serializes on every event.
//   "lookahead.slack"    — an edge whose static minimum latency is below
//                          the shard pair's claimed lookahead bound: an
//                          optimistic kernel trusting the claim would have
//                          to roll back, a conservative one would race.
//   "lookahead.deadlock" — a cycle of shards connected by zero-lookahead
//                          boundaries: null messages cannot advance any
//                          clock on the cycle, so the kernel deadlocks.
//
// The dynamic side is the sharded kernel itself: its window barrier
// (sim::Simulator) rejects, while the run executes, any cross-shard message
// faster than the pair bound shardLayout() hands it ("sharded.lookahead").
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "sim/shard_layout.hpp"
#include "util/torus_coord.hpp"
#include "verify/checks.hpp"
#include "verify/plan.hpp"

namespace anton::verify {

/// A sharding of the machine for the parallel kernel: every client maps to
/// one shard. The shipped shardings are client-uniform per node; the seeded
/// unsafe ones deliberately are not.
struct Sharding {
  std::string name;
  int numShards = 1;
  std::function<int(net::ClientAddr)> shardOf;  ///< result in [0, numShards)
  /// Lookahead the kernel claims for every shard pair, in ns; negative
  /// derives the bound from topology + latency minima (the safe default).
  double claimedLookaheadNs = -1.0;

  int shardOfNode(int node) const { return shardOf({node, 0}); }
};

/// One shard per node: the finest torus sharding (maximum parallelism,
/// smallest lookahead = one link crossing).
Sharding perNodeSharding(const util::TorusShape& shape);

/// One shard per x-slab (yz-plane): coarser shards whose boundaries are
/// exclusively x-links.
Sharding slabSharding(const util::TorusShape& shape);

/// Seeded-unsafe: the slices of every node land in one shard, the HTIS and
/// accumulation memories in another — same-node program order becomes a
/// zero-latency cross-shard edge, in both directions.
Sharding splitNodeSharding(const util::TorusShape& shape);

/// Seeded-unsafe: per-node shards with a claimed lookahead bound larger
/// than the boundary links actually guarantee (rollback bait).
Sharding claimedLookaheadSharding(const util::TorusShape& shape,
                                  double claimNs);

/// Cross-shard boundary statistics of one unordered shard pair.
struct ShardPairStat {
  int a = 0, b = 0;             ///< a < b
  double linkBoundNs = 0.0;     ///< min link-crossing latency on the boundary
  int boundaryLinks = 0;        ///< torus links joining the pair (0 = the
                                ///< boundary runs through a node)
  int edges = 0;                ///< happens-before edges crossing the pair
};

/// A named happens-before edge with its static latency and the bound it was
/// checked against (the tightest edge per pair, plus every violating edge).
struct CriticalEdge {
  std::string from, to;  ///< EventGraph::describe of both endpoints
  int fromShard = 0, toShard = 0;
  double latencyNs = 0.0;
  double boundNs = 0.0;
  bool violates = false;
};

/// The parallelism budget of one (plan, sharding): what the parallel kernel
/// may assume, and where the assumption is tight.
struct LookaheadReport {
  std::string plan;
  std::string sharding;
  int numShards = 0;
  /// The global conservative budget: min pair bound over every boundary
  /// that carries at least one happens-before edge (0 when any such
  /// boundary is intra-node; equal to the cheapest link crossing otherwise).
  double safeLookaheadNs = 0.0;
  /// Maximum number of distinct neighbor shards any shard exchanges
  /// happens-before edges with (the conflict-graph degree: how many peers a
  /// shard must await null messages from).
  int conflictDegree = 0;
  int crossShardEdges = 0;  ///< happens-before edges crossing shards
  int eventsModeled = 0;    ///< vertices of the unrolled event graph
  std::vector<ShardPairStat> pairs;        ///< pairs with edges, sorted
  std::vector<CriticalEdge> criticalEdges; ///< tightest edge per pair first
  std::vector<Violation> violations;       ///< lookahead.{zero,slack,deadlock}

  bool ok() const { return violations.empty(); }
};

/// Minimum link-crossing latency between every adjacent shard pair (a < b),
/// from topology alone: 0 when a node's clients span the pair, else the min
/// over boundary links of lat.minLinkCrossingNs(dim). Shared by the static
/// analyzer and shardLayout() so the proof and the kernel's barrier guard
/// enforce one bound.
std::map<std::pair<int, int>, ShardPairStat> shardPairBounds(
    const util::TorusShape& shape, const Sharding& sharding,
    const net::LatencyConfig& lat);

/// The sharded kernel's layout for `sharding` over `shape`: the node->shard
/// map plus every pair's shardPairBounds() bound; its budget is the minimum
/// pair bound, sound for any workload on the sharding. Throws
/// std::runtime_error naming lookahead.zero when a node's clients are split
/// across shards, and when a multi-shard sharding has no shard pairs.
sim::ShardLayout shardLayout(const util::TorusShape& shape,
                             const Sharding& sharding,
                             const net::LatencyConfig& lat = {});

/// Statically prove (or refute) `sharding` over the plan's happens-before
/// event graph. `rounds` template rounds are unrolled so round-wrap edges
/// are covered (2 is enough: every edge kind appears by round 1).
LookaheadReport analyzeLookahead(const CommPlan& plan, const Sharding& sharding,
                                 const net::LatencyConfig& lat = {},
                                 int rounds = 2);

}  // namespace anton::verify
