// The lookahead model (DESIGN.md §11): the calibrated link-crossing minimum
// and the shard-pair bounds shardLayout() builds from it. The dynamic check
// of the same bound is the sharded kernel's window barrier, and the layouts
// of every golden plan's shape are pinned in tests/sharded_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "verify/lookahead.hpp"

namespace anton {
namespace {

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
  auto pairs = verify::shardPairBounds(
      shape, verify::shardLayout(shape, verify::ShardFamily::kPerNode)
                 .shardOfNode,
      lat);
  // Adjacent nodes: exactly the one-link minimum, with counted boundary
  // links; distance-2 nodes: two crossings.
  auto adj = pairs.at({0, 1});
  EXPECT_DOUBLE_EQ(adj.linkBoundNs, lat.minLinkCrossingNs(0));
  EXPECT_GT(adj.boundaryLinks, 0);
  auto far = pairs.at({0, 2});
  EXPECT_DOUBLE_EQ(far.linkBoundNs, 2.0 * lat.minLinkCrossingNs(0));
}

}  // namespace
}  // namespace anton
