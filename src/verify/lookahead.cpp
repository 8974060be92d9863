#include "verify/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace anton::verify {
namespace {

/// Static minimum latency of a cross-node delivery: the dimension-ordered
/// route pays at least the per-dimension link-crossing minimum per hop.
double minRouteNs(int fromNode, int toNode, const util::TorusShape& shape,
                  const net::LatencyConfig& lat) {
  util::TorusCoord a = util::torusCoordOf(fromNode, shape);
  util::TorusCoord b = util::torusCoordOf(toNode, shape);
  double ns = 0.0;
  for (int dim = 0; dim < 3; ++dim)
    ns += double(util::torusHops1D(a[dim], b[dim], shape.extent(dim))) *
          lat.minLinkCrossingNs(dim);
  return ns;
}

}  // namespace

std::map<std::pair<int, int>, ShardPairStat> shardPairBounds(
    const util::TorusShape& shape, const std::vector<int>& shardOfNode,
    const net::LatencyConfig& lat) {
  const int N = shape.size();
  std::map<std::pair<int, int>, ShardPairStat> pairs;
  auto stat = [&pairs](int a, int b) -> ShardPairStat& {
    auto key = std::minmax(a, b);
    auto [it, fresh] = pairs.try_emplace({key.first, key.second});
    if (fresh) {
      it->second.a = key.first;
      it->second.b = key.second;
      it->second.linkBoundNs = std::numeric_limits<double>::infinity();
    }
    return it->second;
  };

  // Physical boundary links between adjacent nodes in different shards.
  for (int n = 0; n < N; ++n) {
    util::TorusCoord c = util::torusCoordOf(n, shape);
    for (int dim = 0; dim < 3; ++dim) {
      if (shape.extent(dim) < 2) continue;
      int m = util::torusIndex(util::torusNeighbor(c, dim, +1, shape), shape);
      int s1 = shardOfNode[std::size_t(n)], s2 = shardOfNode[std::size_t(m)];
      if (s1 == s2) continue;
      ShardPairStat& st = stat(s1, s2);
      ++st.boundaryLinks;
      st.linkBoundNs = std::min(st.linkBoundNs, lat.minLinkCrossingNs(dim));
    }
  }

  // Non-adjacent pairs still exchange messages (multi-hop deliveries): their
  // bound is the cheapest route between any node of one and any node of the
  // other — at least one boundary crossing per hop, so never below the
  // adjacent bounds, but recorded so every cross-shard message has a bound.
  for (int n = 0; n < N; ++n)
    for (int m = n + 1; m < N; ++m) {
      int s1 = shardOfNode[std::size_t(n)], s2 = shardOfNode[std::size_t(m)];
      if (s1 == s2) continue;
      ShardPairStat& st = stat(s1, s2);
      st.linkBoundNs = std::min(st.linkBoundNs, minRouteNs(n, m, shape, lat));
    }
  return pairs;
}

sim::ShardLayout shardLayout(const util::TorusShape& shape,
                             ShardFamily family,
                             const net::LatencyConfig& lat) {
  sim::ShardLayout layout;
  const bool perNode = family == ShardFamily::kPerNode;
  layout.name = perNode ? "per-node" : "slab-x";
  layout.numShards = perNode ? shape.size() : shape.nx;
  layout.shardOfNode.resize(std::size_t(shape.size()));
  for (int n = 0; n < shape.size(); ++n)
    layout.shardOfNode[std::size_t(n)] =
        perNode ? n : util::torusCoordOf(n, shape).x;
  for (const auto& [pair, stat] :
       shardPairBounds(shape, layout.shardOfNode, lat))
    layout.pairBoundPs[pair] = sim::ns(stat.linkBoundNs);
  if (layout.pairBoundPs.empty() && layout.numShards > 1)
    throw std::runtime_error("shard layout '" + layout.name +
                             "' produced no adjacent shard pairs over this "
                             "shape");
  return layout;
}

}  // namespace anton::verify
