// Static parallel-safety analyzer (DESIGN.md §11).
//
// The safe half: the shipped shardings (per-node, x-slab) of real plans
// must prove violation-free, with the derived lookahead budget equal to the
// calibrated minimum link crossing. The unsafe half: each seeded-bad
// sharding must fire its distinct diagnostic with a named critical edge.
// The dynamic check of the same bound is the sharded kernel's window
// barrier (tests/sharded_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/allreduce.hpp"
#include "net/machine.hpp"
#include "sim/simulator.hpp"
#include "verify/lookahead.hpp"

namespace anton {
namespace {

// The dim-ordered all-reduce on a 2x2x2 torus: every node both sends and
// waits in all three dimension phases, so every shard pair carries edges.
verify::CommPlan allReducePlan() {
  sim::Simulator sim;
  net::Machine machine(sim, {2, 2, 2});
  core::DimOrderedAllReduce reduce(machine);
  verify::CommPlan p;
  p.name = "allreduce-2x2x2";
  p.shape = {2, 2, 2};
  reduce.appendPlan(p, "");
  return p;
}

// A counted write into an accumulation memory: under the split-node
// sharding the receiving node's phase anchors (slice side) and its wait
// (accumulation side) land on different shards, so same-node program order
// becomes a zero-latency cross-shard edge in both directions.
verify::CommPlan accumPlan() {
  verify::CommPlan p;
  p.name = "accum-2x1x1";
  p.shape = {2, 1, 1};
  p.addPhaseEdge("send", "recv");
  verify::PlannedWrite w;
  w.phase = "send";
  w.srcNode = 0;
  w.dst = {1, net::kAccum0};
  w.counterId = 0;
  p.writes.push_back(w);
  verify::CounterExpectation e;
  e.site = "recv";
  e.phase = "recv";
  e.client = {1, net::kAccum0};
  e.counterId = 0;
  e.perRound = 1;
  e.recoveryArmed = true;
  p.expectations.push_back(e);
  return p;
}

bool hasCheck(const std::vector<verify::Violation>& vs,
              const std::string& check) {
  return std::any_of(vs.begin(), vs.end(), [&](const verify::Violation& v) {
    return v.check == check;
  });
}

TEST(Lookahead, MinLinkCrossingMatchesCalibratedComponents) {
  net::LatencyConfig lat;
  for (int dim = 0; dim < 3; ++dim) {
    double expect = std::min(lat.transitNs[std::size_t(dim)],
                             lat.routerHopBaseNs + lat.routerHopEachNs) +
                    2.0 * lat.adapterNs + lat.wireNs[std::size_t(dim)];
    EXPECT_DOUBLE_EQ(lat.minLinkCrossingNs(dim), expect) << "dim " << dim;
    // Faults, stalls and serialization only ever add latency on top.
    EXPECT_GT(lat.minLinkCrossingNs(dim), 0.0);
  }
}

TEST(Lookahead, ShardPairBoundsOnTheTorus) {
  util::TorusShape shape{4, 4, 1};
  net::LatencyConfig lat;
  verify::Sharding perNode = verify::perNodeSharding(shape);
  auto pairs = verify::shardPairBounds(shape, perNode, lat);
  // Adjacent nodes: exactly the one-link minimum, with counted boundary
  // links; distance-2 nodes: two crossings.
  auto adj = pairs.at({0, 1});
  EXPECT_DOUBLE_EQ(adj.linkBoundNs, lat.minLinkCrossingNs(0));
  EXPECT_GT(adj.boundaryLinks, 0);
  auto far = pairs.at({0, 2});
  EXPECT_DOUBLE_EQ(far.linkBoundNs, 2.0 * lat.minLinkCrossingNs(0));

  // A node split across shards collapses that pair's bound to zero.
  verify::Sharding split = verify::splitNodeSharding(shape);
  auto splitPairs = verify::shardPairBounds(shape, split, lat);
  EXPECT_DOUBLE_EQ(splitPairs.at({0, 1}).linkBoundNs, 0.0);
  EXPECT_EQ(splitPairs.at({0, 1}).boundaryLinks, 0);
}

TEST(Lookahead, SafeShardingsProveViolationFree) {
  verify::CommPlan plan = allReducePlan();
  net::LatencyConfig lat;
  for (const verify::Sharding& sh : {verify::perNodeSharding(plan.shape),
                                     verify::slabSharding(plan.shape)}) {
    verify::LookaheadReport r = verify::analyzeLookahead(plan, sh, lat);
    EXPECT_TRUE(r.ok()) << sh.name;
    EXPECT_GT(r.crossShardEdges, 0) << sh.name;
    EXPECT_GT(r.eventsModeled, 0) << sh.name;
    // The budget is exactly one link crossing: the all-reduce exchanges
    // between adjacent nodes in every dimension.
    double minCrossing = std::min({lat.minLinkCrossingNs(0),
                                   lat.minLinkCrossingNs(1),
                                   lat.minLinkCrossingNs(2)});
    EXPECT_DOUBLE_EQ(r.safeLookaheadNs, minCrossing) << sh.name;
    EXPECT_GT(r.conflictDegree, 0) << sh.name;
    ASSERT_FALSE(r.criticalEdges.empty()) << sh.name;
    // Critical edges are named, not indexed: both endpoints describe the
    // event in human terms.
    EXPECT_NE(r.criticalEdges[0].from.find("node "), std::string::npos);
    EXPECT_NE(r.criticalEdges[0].to.find("node "), std::string::npos);
  }
}

TEST(Lookahead, SplitNodeShardingFiresZeroAndDeadlock) {
  verify::CommPlan plan = accumPlan();
  verify::Sharding split = verify::splitNodeSharding(plan.shape);
  // The safe shardings accept this plan...
  EXPECT_TRUE(
      verify::analyzeLookahead(plan, verify::perNodeSharding(plan.shape))
          .ok());
  // ...but the split sharding turns the receiving node's program order into
  // a zero-latency shard crossing in both directions, so both the
  // zero-lookahead edge and the shard cycle are diagnosed.
  verify::LookaheadReport r = verify::analyzeLookahead(plan, split);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "lookahead.zero"));
  EXPECT_TRUE(hasCheck(r.violations, "lookahead.deadlock"));
  // The diagnostic names the offending edge.
  for (const verify::Violation& v : r.violations) {
    if (v.check == "lookahead.zero") {
      EXPECT_NE(v.detail.find("==>"), std::string::npos);
    }
  }
  EXPECT_DOUBLE_EQ(r.safeLookaheadNs, 0.0);
}

TEST(Lookahead, InflatedClaimFiresSlack) {
  verify::CommPlan plan = allReducePlan();
  verify::Sharding inflated =
      verify::claimedLookaheadSharding(plan.shape, 10000.0);
  verify::LookaheadReport r = verify::analyzeLookahead(plan, inflated);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(hasCheck(r.violations, "lookahead.slack"));
  EXPECT_FALSE(hasCheck(r.violations, "lookahead.zero"));
  EXPECT_FALSE(hasCheck(r.violations, "lookahead.deadlock"));
  // An honest claim at (or below) the true bound is accepted.
  net::LatencyConfig lat;
  verify::Sharding honest = verify::claimedLookaheadSharding(
      plan.shape, std::min({lat.minLinkCrossingNs(0), lat.minLinkCrossingNs(1),
                            lat.minLinkCrossingNs(2)}));
  EXPECT_TRUE(verify::analyzeLookahead(plan, honest).ok());
}

}  // namespace
}  // namespace anton
