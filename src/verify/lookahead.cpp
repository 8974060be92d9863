#include "verify/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "net/packet.hpp"
#include "verify/events.hpp"

namespace anton::verify {
namespace {

constexpr double kInfNs = std::numeric_limits<double>::infinity();

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

/// The distinct shards a node's clients map to (usually exactly one).
std::vector<int> shardsOfNode(int node, const Sharding& s) {
  std::vector<int> out;
  for (int c = 0; c < net::kClientsPerNode; ++c) {
    int sh = s.shardOf({node, c});
    if (std::find(out.begin(), out.end(), sh) == out.end()) out.push_back(sh);
  }
  return out;
}

/// The client an event slot acts on behalf of (the shard attribution).
net::ClientAddr eventClient(const CommPlan& plan, const Event& e) {
  switch (e.kind) {
    case EventKind::kWait:
      return plan.expectations[std::size_t(e.ref)].client;
    case EventKind::kFree:
      return plan.buffers[std::size_t(e.ref)].client;
    case EventKind::kSend:
      return {plan.writes[std::size_t(e.ref)].srcNode, net::kSlice0};
    case EventKind::kPhaseEntry:  // phase anchors act for the whole node
    case EventKind::kPhaseExit:
      return {e.node, net::kSlice0};
  }
  return {e.node, net::kSlice0};
}

struct ViolationCollector {
  std::vector<Violation> out;
  std::map<std::pair<std::string, std::string>, std::size_t> index;

  void add(const std::string& check, const std::string& site,
           const std::string& detail, int node) {
    auto [it, fresh] = index.try_emplace({check, site}, out.size());
    if (!fresh) {
      ++out[it->second].count;
      return;
    }
    Violation v;
    v.check = check;
    v.severity = Severity::kError;
    v.site = site;
    v.detail = detail;
    v.node = node;
    out.push_back(std::move(v));
  }
};

std::string ns1(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

Sharding perNodeSharding(const util::TorusShape& shape) {
  Sharding s;
  s.name = "per-node";
  s.numShards = shape.size();
  s.shardOf = [](net::ClientAddr a) { return a.node; };
  return s;
}

Sharding slabSharding(const util::TorusShape& shape) {
  Sharding s;
  s.name = "slab-x";
  s.numShards = shape.nx;
  s.shardOf = [shape](net::ClientAddr a) {
    return util::torusCoordOf(a.node, shape).x;
  };
  return s;
}

Sharding splitNodeSharding(const util::TorusShape& shape) {
  // Slices on even shards, HTIS + accumulation memories on odd: program
  // order inside every node crosses shards with zero latency.
  Sharding s;
  s.name = "split-node";
  s.numShards = 2 * shape.size();
  s.shardOf = [](net::ClientAddr a) {
    return 2 * a.node + (a.client >= net::kHtis ? 1 : 0);
  };
  return s;
}

Sharding claimedLookaheadSharding(const util::TorusShape& shape,
                                  double claimNs) {
  Sharding s = perNodeSharding(shape);
  s.name = "per-node-claimed-" + ns1(claimNs) + "ns";
  s.claimedLookaheadNs = claimNs;
  return s;
}

std::map<std::pair<int, int>, ShardPairStat> shardPairBounds(
    const util::TorusShape& shape, const Sharding& sharding,
    const net::LatencyConfig& lat) {
  const int N = shape.size();
  std::vector<std::vector<int>> nodeShards{std::size_t(N)};
  for (int n = 0; n < N; ++n) nodeShards[std::size_t(n)] = shardsOfNode(n, sharding);

  std::map<std::pair<int, int>, ShardPairStat> pairs;
  auto stat = [&pairs](int a, int b) -> ShardPairStat& {
    auto key = std::minmax(a, b);
    auto [it, fresh] = pairs.try_emplace({key.first, key.second});
    if (fresh) {
      it->second.a = key.first;
      it->second.b = key.second;
      it->second.linkBoundNs = kInfNs;
    }
    return it->second;
  };

  // Intra-node splits: zero-latency boundaries.
  for (int n = 0; n < N; ++n) {
    const std::vector<int>& sh = nodeShards[std::size_t(n)];
    for (std::size_t i = 0; i < sh.size(); ++i)
      for (std::size_t j = i + 1; j < sh.size(); ++j)
        stat(sh[i], sh[j]).linkBoundNs = 0.0;
  }

  // Physical boundary links between adjacent nodes in different shards.
  for (int n = 0; n < N; ++n) {
    util::TorusCoord c = util::torusCoordOf(n, shape);
    for (int dim = 0; dim < 3; ++dim) {
      if (shape.extent(dim) < 2) continue;
      util::TorusCoord nc = util::torusNeighbor(c, dim, +1, shape);
      int m = util::torusIndex(nc, shape);
      if (m == n) continue;
      for (int s1 : nodeShards[std::size_t(n)])
        for (int s2 : nodeShards[std::size_t(m)]) {
          if (s1 == s2) continue;
          ShardPairStat& st = stat(s1, s2);
          ++st.boundaryLinks;
          st.linkBoundNs = std::min(st.linkBoundNs, lat.minLinkCrossingNs(dim));
        }
    }
  }

  // Non-adjacent pairs still exchange messages (multi-hop deliveries): their
  // bound is the cheapest route between any node of one and any node of the
  // other — at least one boundary crossing per hop, so never below the
  // adjacent bounds, but recorded so every cross-shard edge has a bound.
  for (int n = 0; n < N; ++n)
    for (int m = n + 1; m < N; ++m) {
      double route = minRouteNs(n, m, shape, lat);
      for (int s1 : nodeShards[std::size_t(n)])
        for (int s2 : nodeShards[std::size_t(m)]) {
          if (s1 == s2) continue;
          ShardPairStat& st = stat(s1, s2);
          st.linkBoundNs = std::min(st.linkBoundNs, route);
        }
    }
  return pairs;
}

sim::ShardLayout shardLayout(const util::TorusShape& shape,
                             const Sharding& sharding,
                             const net::LatencyConfig& lat) {
  sim::ShardLayout layout;
  layout.name = sharding.name;
  layout.numShards = sharding.numShards;
  layout.shardOfNode.resize(std::size_t(shape.size()));
  for (int n = 0; n < shape.size(); ++n)
    layout.shardOfNode[std::size_t(n)] = sharding.shardOfNode(n);
  for (const auto& [pair, stat] : shardPairBounds(shape, sharding, lat)) {
    sim::Time bound = sim::ns(stat.linkBoundNs);
    if (bound <= 0)
      throw std::runtime_error(
          "sharding '" + sharding.name + "' refused [lookahead.zero]: shards " +
          std::to_string(pair.first) + " and " + std::to_string(pair.second) +
          " share a zero-latency boundary (a node's clients are split "
          "across them)");
    layout.pairBoundPs[pair] = bound;
  }
  if (layout.pairBoundPs.empty() && layout.numShards > 1)
    throw std::runtime_error(
        "sharding '" + sharding.name +
        "' produced no adjacent shard pairs over this shape");
  return layout;
}

LookaheadReport analyzeLookahead(const CommPlan& plan, const Sharding& sharding,
                                 const net::LatencyConfig& lat, int rounds) {
  LookaheadReport rep;
  rep.plan = plan.name;
  rep.sharding = sharding.name;
  rep.numShards = sharding.numShards;

  EventGraph graph(plan, rounds, deliveredTargets(plan));
  rep.eventsModeled = graph.numVertices();

  // Per-slot shard attribution (identical across rounds).
  std::vector<int> slotShard(std::size_t(graph.numSlots()));
  std::vector<int> slotNode(std::size_t(graph.numSlots()));
  for (int s = 0; s < graph.numSlots(); ++s) {
    const Event& e = graph.event(s);
    slotNode[std::size_t(s)] = e.node;
    slotShard[std::size_t(s)] = sharding.shardOf(eventClient(plan, e));
  }

  std::map<std::pair<int, int>, ShardPairStat> pairs =
      shardPairBounds(plan.shape, sharding, lat);
  auto boundOf = [&](int a, int b) {
    if (sharding.claimedLookaheadNs >= 0) return sharding.claimedLookaheadNs;
    auto key = std::minmax(a, b);
    auto it = pairs.find({key.first, key.second});
    return it == pairs.end() ? 0.0 : it->second.linkBoundNs;
  };

  // Walk every happens-before edge once; prove cross-shard slack.
  ViolationCollector vc;
  struct PairEdge {  // tightest edge seen per pair
    double latencyNs = kInfNs;
    int u = -1, v = -1;
    bool violates = false;
  };
  std::map<std::pair<int, int>, PairEdge> tightest;
  // Directed zero-bound shard adjacency, for the deadlock check.
  std::set<std::pair<int, int>> zeroEdges;
  std::map<int, std::set<int>> conflictAdj;

  for (int u = 0; u < graph.numVertices(); ++u) {
    int su = slotShard[std::size_t(graph.slotOf(u))];
    int nu = slotNode[std::size_t(graph.slotOf(u))];
    for (const int* pv = graph.succBegin(u); pv != graph.succEnd(u); ++pv) {
      int v = *pv;
      int sv = slotShard[std::size_t(graph.slotOf(v))];
      if (su == sv) continue;
      int nv = slotNode[std::size_t(graph.slotOf(v))];
      double latency = nu == nv ? 0.0 : minRouteNs(nu, nv, plan.shape, lat);
      double bound = boundOf(su, sv);
      ++rep.crossShardEdges;
      auto key = std::minmax(su, sv);
      auto mapKey = std::pair<int, int>{key.first, key.second};
      auto [it, fresh] = pairs.try_emplace(mapKey);
      if (fresh) {
        it->second.a = key.first;
        it->second.b = key.second;
        it->second.linkBoundNs = bound;
      }
      ++it->second.edges;
      conflictAdj[su].insert(sv);
      conflictAdj[sv].insert(su);

      bool violates = false;
      constexpr double kEps = 1e-9;
      if (latency <= kEps) {
        // The pair's bound collapses to 0 too, so this is not a slack
        // violation — it is worse: the conservative kernel can never
        // advance either shard past the other.
        violates = true;
        vc.add("lookahead.zero", sharding.name,
               "zero-latency happens-before edge crosses shards " +
                   std::to_string(su) + " -> " + std::to_string(sv) + ": " +
                   graph.describe(u) + "  ==>  " + graph.describe(v) +
                   " (the sharding splits node " + std::to_string(nu) +
                   "; pair lookahead collapses to 0 ns)",
               nu);
      } else if (latency + kEps < bound) {
        violates = true;
        vc.add("lookahead.slack", sharding.name,
               "claimed lookahead " + ns1(bound) +
                   " ns exceeds the static minimum " + ns1(latency) +
                   " ns of the edge " + graph.describe(u) + "  ==>  " +
                   graph.describe(v) +
                   " (a kernel trusting the claim must roll back)",
               nu);
      }
      // Every zero-bound directed crossing feeds the deadlock analysis,
      // violating or not (a claimed bound of 0 is "safe" per edge but can
      // still deadlock a null-message kernel in a cycle).
      if (bound <= kEps) zeroEdges.insert({su, sv});

      PairEdge& pe = tightest[mapKey];
      if (latency < pe.latencyNs) {
        pe.latencyNs = latency;
        pe.u = u;
        pe.v = v;
      }
      pe.violates = pe.violates || violates;
    }
  }

  // Deadlock: a directed cycle among shards joined by zero-lookahead
  // crossings means no shard on the cycle can ever advance its clock.
  {
    std::map<int, std::vector<int>> adj;
    for (const auto& [a, b] : zeroEdges) adj[a].push_back(b);
    std::map<int, int> color;  // 0/absent white, 1 gray, 2 black
    std::vector<int> cycle;
    std::function<bool(int)> dfs = [&](int s) {
      color[s] = 1;
      for (int t : adj[s]) {
        if (color[t] == 1) {
          cycle.push_back(t);
          cycle.push_back(s);
          return true;
        }
        if (color[t] == 0 && dfs(t)) {
          if (cycle.size() < 2 || cycle.front() != cycle.back())
            cycle.push_back(s);
          return true;
        }
      }
      color[s] = 2;
      return false;
    };
    for (const auto& [s, _] : adj)
      if (color[s] == 0 && dfs(s)) break;
    if (!cycle.empty()) {
      std::reverse(cycle.begin(), cycle.end());
      std::string shards;
      for (std::size_t i = 0; i < cycle.size(); ++i)
        shards += (i != 0 ? " -> " : "") + std::to_string(cycle[i]);
      // Name a concrete edge on the cycle so the diagnostic is actionable.
      std::string edge = "?";
      auto key = std::minmax(cycle[0], cycle[1]);
      auto it = tightest.find({key.first, key.second});
      if (it != tightest.end() && it->second.u >= 0)
        edge = graph.describe(it->second.u) + "  ==>  " +
               graph.describe(it->second.v);
      vc.add("lookahead.deadlock", sharding.name,
             "zero-lookahead shard cycle " + shards +
                 ": null messages cannot advance any clock on it; e.g. " +
                 edge,
             -1);
    }
  }

  // Assemble the report: only pairs that actually exchange edges matter for
  // the budget and the conflict graph.
  double safe = kInfNs;
  for (const auto& [key, st] : pairs) {
    if (st.edges == 0) continue;
    rep.pairs.push_back(st);
    safe = std::min(safe, sharding.claimedLookaheadNs >= 0
                              ? sharding.claimedLookaheadNs
                              : st.linkBoundNs);
  }
  rep.safeLookaheadNs = safe == kInfNs ? 0.0 : safe;
  for (const auto& [s, peers] : conflictAdj)
    rep.conflictDegree = std::max(rep.conflictDegree, int(peers.size()));
  for (const auto& [key, pe] : tightest) {
    if (pe.u < 0) continue;
    CriticalEdge ce;
    ce.from = graph.describe(pe.u);
    ce.to = graph.describe(pe.v);
    ce.fromShard = slotShard[std::size_t(graph.slotOf(pe.u))];
    ce.toShard = slotShard[std::size_t(graph.slotOf(pe.v))];
    ce.latencyNs = pe.latencyNs;
    ce.boundNs = boundOf(ce.fromShard, ce.toShard);
    ce.violates = pe.violates;
    rep.criticalEdges.push_back(std::move(ce));
  }
  // Tightest (and violating) edges first; deterministic order.
  std::stable_sort(rep.criticalEdges.begin(), rep.criticalEdges.end(),
                   [](const CriticalEdge& a, const CriticalEdge& b) {
                     if (a.violates != b.violates) return a.violates;
                     return a.latencyNs < b.latencyNs;
                   });
  rep.violations = std::move(vc.out);
  return rep;
}

}  // namespace anton::verify
