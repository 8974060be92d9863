#include "core/allreduce.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace anton::core {

using net::MulticastEntry;
using net::RingLayout;

namespace {

int maxExtent(const util::TorusShape& s) {
  return std::max({s.nx, s.ny, s.nz});
}

net::PayloadPtr packDoubles(std::span<const double> xs) {
  if (xs.empty()) return nullptr;
  return net::makePayload(xs.data(), xs.size() * sizeof(double));
}

/// The line-broadcast table row of pattern (dim, pos) at line position `k`
/// of an extent-`n` line. The broadcast reaches the positions ahead of the
/// source (+dim chain, length n/2) and behind it (-dim chain, the rest):
/// the source forks both ways without local delivery; every other position
/// delivers to slice `dim` and forwards along its chain until the chain ends.
MulticastEntry lineBroadcastEntry(int dim, int n, int pos, int k) {
  int fwd = n / 2;
  int bwd = n - 1 - fwd;
  int kf = util::wrap(k - pos, n);
  int kb = util::wrap(pos - k, n);
  MulticastEntry e;
  if (kf == 0) {
    if (fwd >= 1) e.linkMask |= std::uint8_t(1u << RingLayout::adapterIndex(dim, +1));
    if (bwd >= 1) e.linkMask |= std::uint8_t(1u << RingLayout::adapterIndex(dim, -1));
  } else if (kf <= fwd) {
    e.clientMask = std::uint8_t(1u << dim);  // slice `dim`
    if (kf < fwd) e.linkMask |= std::uint8_t(1u << RingLayout::adapterIndex(dim, +1));
  } else {  // kb <= bwd
    e.clientMask = std::uint8_t(1u << dim);
    if (kb < bwd) e.linkMask |= std::uint8_t(1u << RingLayout::adapterIndex(dim, -1));
  }
  return e;
}

}  // namespace

// --- DimOrderedAllReduce ----------------------------------------------------

DimOrderedAllReduce::DimOrderedAllReduce(net::Machine& machine,
                                         AllReduceConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      rounds_(std::size_t(machine.numNodes())),
      bySource_(std::size_t(machine.numNodes())) {
  if (cfg_.maxBytes > net::kMaxPayloadBytes)
    throw std::invalid_argument("all-reduce payload exceeds packet payload");
  installPatterns();
}

int DimOrderedAllReduce::patternId(int dim, int pos) const {
  return cfg_.patternBase + dim * maxExtent(machine_.shape()) + pos;
}

std::uint32_t DimOrderedAllReduce::slotAddr(int pos, int parity) const {
  return cfg_.memBase +
         std::uint32_t(pos * 2 + parity) * std::uint32_t(cfg_.maxBytes);
}

void DimOrderedAllReduce::installPatterns() {
  const util::TorusShape& shape = machine_.shape();
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n < 2) continue;
    for (int pos = 0; pos < n; ++pos) {
      int id = patternId(dim, pos);
      for (int nodeIdx = 0; nodeIdx < machine_.numNodes(); ++nodeIdx) {
        int k = util::torusCoordOf(nodeIdx, shape)[dim];
        machine_.setMulticastPattern(nodeIdx, id,
                                     lineBroadcastEntry(dim, n, pos, k));
      }
    }
  }
}

std::string DimOrderedAllReduce::appendPlan(verify::CommPlan& plan,
                                            const std::string& afterPhase) const {
  const util::TorusShape& shape = machine_.shape();
  static constexpr const char* kDimName[3] = {"x", "y", "z"};
  std::string prev = afterPhase;
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n < 2) continue;
    std::string phase = std::string("allreduce.") + kDimName[dim];
    plan.addPhaseEdge(prev, phase);
    prev = phase;
    for (int s = 0; s < machine_.numNodes(); ++s) {
      util::TorusCoord c = util::torusCoordOf(s, shape);
      int pos = c[dim];

      verify::PlannedWrite w;
      w.phase = phase;
      w.srcNode = s;
      w.pattern = patternId(dim, pos);
      w.counterId = cfg_.counterId;
      // run() multicasts the local partial *before* waiting on the line's
      // peers — the send depends on nothing inside this phase. That order is
      // exactly why the receive slots need parity double buffering.
      w.seq = 0;
      plan.writes.push_back(w);

      verify::CounterExpectation e;
      e.site = phase;
      e.phase = phase;
      e.client = {s, dim};
      e.counterId = cfg_.counterId;
      e.perRound = std::uint64_t(n - 1);
      e.seq = 1;  // the wait follows the send (see above)
      e.recoveryArmed = recovery_.armed();

      verify::BufferPlan b;
      b.name = phase + ".slots";
      b.client = e.client;
      b.base = slotAddr(0, 0);
      b.bytes = std::uint32_t(n) * 2u * std::uint32_t(cfg_.maxBytes);
      b.copies = 2;  // parity double buffering across reductions
      b.freePhase = phase;

      // The machine-wide pattern (dim, pos) restricted to this source's
      // line: only those table rows can be reached from `s`.
      verify::MulticastPlanEntry mp;
      mp.patternId = w.pattern;
      mp.srcNode = s;
      for (int k = 0; k < n; ++k) {
        util::TorusCoord jc = c;
        jc[dim] = k;
        int j = util::torusIndex(jc, shape);
        mp.entries[j] = lineBroadcastEntry(dim, n, pos, k);
        if (k != pos) {
          mp.declaredDests.push_back({j, dim});
          e.bySource[j] = 1;
          b.writers.push_back({j, phase});
        }
      }
      plan.expectations.push_back(std::move(e));
      plan.multicasts.push_back(std::move(mp));
      plan.buffers.push_back(std::move(b));
    }
  }
  if (cfg_.shareLocally) {
    int lastDim = shape.nz > 1 ? 2 : shape.ny > 1 ? 1 : shape.nx > 1 ? 0 : -1;
    if (lastDim >= 0) {
      std::string phase = "allreduce.share";
      plan.addPhaseEdge(prev, phase);
      prev = phase;
      for (int s = 0; s < machine_.numNodes(); ++s) {
        for (int sl = 0; sl < net::kNumSlices; ++sl) {
          if (sl == lastDim) continue;
          verify::PlannedWrite w;
          w.phase = phase;
          w.srcNode = s;
          w.dst = {s, sl};  // node-local share, no counter
          plan.writes.push_back(w);
        }
      }
    }
  }
  return prev;
}

sim::Task DimOrderedAllReduce::run(int nodeIdx, std::vector<double> in,
                                   std::vector<double>* out) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  const std::size_t words = in.size();
  if (words * sizeof(double) > cfg_.maxBytes)
    throw std::length_error("all-reduce payload exceeds configured maxBytes");

  std::vector<double> cur = std::move(in);
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n < 2) continue;
    net::ProcessingSlice& slice = machine_.slice(nodeIdx, dim);
    int pos = coord[dim];
    int parity = int(rounds_[std::size_t(nodeIdx)][std::size_t(dim)] % 2);

    net::NetworkClient::SendArgs args;
    args.multicastPattern = patternId(dim, pos);
    args.counterId = cfg_.counterId;
    args.address = slotAddr(pos, parity);
    args.payload = packDoubles(cur);
    co_await slice.send(args);

    std::uint64_t target =
        ++rounds_[std::size_t(nodeIdx)][std::size_t(dim)] * std::uint64_t(n - 1);
    std::map<int, std::uint64_t>& bySource =
        bySource_[std::size_t(nodeIdx)][std::size_t(dim)];
    if (recovery_.armed()) {
      // One broadcast replica per line peer per round, cumulative.
      const std::uint64_t r = rounds_[std::size_t(nodeIdx)][std::size_t(dim)];
      for (int k = 0; k < n; ++k) {
        if (k == pos) continue;
        util::TorusCoord jc = coord;
        jc[dim] = k;
        bySource[util::torusIndex(jc, shape)] = r;
      }
    }
    co_await awaitCounted(slice, cfg_.counterId, target, bySource, recovery_);

    // Redundant ordered sum across line positions: identical on every node.
    if (words != 0) {
      std::vector<double> acc(words, 0.0);
      for (int i = 0; i < n; ++i) {
        for (std::size_t w = 0; w < words; ++w) {
          double v = (i == pos)
                         ? cur[w]
                         : slice.read<double>(slotAddr(i, parity) +
                                              std::uint32_t(w * sizeof(double)));
          acc[w] += v;
        }
      }
      cur = std::move(acc);
    }
    co_await machine_.sim().delay(
        sim::ns(cfg_.roundOverheadNs + cfg_.perWordNs * double(words) * n));
  }

  if (cfg_.shareLocally) {
    // The last participating slice shares the global sum with its three
    // peers through local remote writes (SC10 §IV-B4).
    int lastDim = shape.nz > 1 ? 2 : shape.ny > 1 ? 1 : shape.nx > 1 ? 0 : -1;
    if (lastDim >= 0) {
      net::ProcessingSlice& owner = machine_.slice(nodeIdx, lastDim);
      for (int s = 0; s < net::kNumSlices; ++s) {
        if (s == lastDim) continue;
        net::NetworkClient::SendArgs share;
        share.dst = {nodeIdx, s};
        // Past the line-broadcast slots: 2*maxExtent slots precede it.
        share.address = slotAddr(maxExtent(machine_.shape()), 0);
        share.payload = packDoubles(cur);
        co_await owner.send(share);
      }
    }
  }

  if (out != nullptr) *out = std::move(cur);
}

// --- ButterflyAllReduce -----------------------------------------------------

ButterflyAllReduce::ButterflyAllReduce(net::Machine& machine,
                                       AllReduceConfig cfg)
    : machine_(machine),
      cfg_(cfg),
      sent_(std::size_t(machine.numNodes())),
      calls_(std::size_t(machine.numNodes())) {
  const util::TorusShape& shape = machine.shape();
  for (int dim = 0; dim < 3; ++dim) {
    int n = shape.extent(dim);
    if (n > 1 && !std::has_single_bit(unsigned(n)))
      throw std::invalid_argument("butterfly all-reduce needs power-of-two extents");
    roundsPerDim_[std::size_t(dim)] = std::bit_width(unsigned(n)) - 1;
  }
}

std::uint32_t ButterflyAllReduce::slotAddr(int dim, int round, int parity) const {
  // Up to 3 dims x log2(extent) rounds x 2 parities of maxBytes each.
  int slot = (dim * 8 + round) * 2 + parity;
  return cfg_.memBase + std::uint32_t(slot) * std::uint32_t(cfg_.maxBytes);
}

sim::Task ButterflyAllReduce::run(int nodeIdx, std::vector<double> in,
                                  std::vector<double>* out) {
  const util::TorusShape& shape = machine_.shape();
  const util::TorusCoord coord = util::torusCoordOf(nodeIdx, shape);
  const std::size_t words = in.size();
  int parity = int(calls_[std::size_t(nodeIdx)]++ % 2);

  std::vector<double> cur = std::move(in);
  for (int dim = 0; dim < 3; ++dim) {
    net::ProcessingSlice& slice = machine_.slice(nodeIdx, dim);
    int pos = coord[dim];
    for (int r = 0; r < roundsPerDim_[std::size_t(dim)]; ++r) {
      util::TorusCoord partner = coord;
      partner[dim] = pos ^ (1 << r);

      net::NetworkClient::SendArgs args;
      args.dst = {util::torusIndex(partner, shape), dim};
      args.counterId = cfg_.counterId;
      args.address = slotAddr(dim, r, parity);
      args.payload = packDoubles(cur);
      co_await slice.send(args);

      std::uint64_t target = ++sent_[std::size_t(nodeIdx)][std::size_t(dim)];
      co_await slice.waitCounter(cfg_.counterId, target);

      if (words != 0) {
        std::vector<double> theirs(words);
        for (std::size_t w = 0; w < words; ++w)
          theirs[w] = slice.read<double>(slotAddr(dim, r, parity) +
                                         std::uint32_t(w * sizeof(double)));
        // Order the operands by subcube position so every node computes
        // bit-identical sums.
        bool mineFirst = ((pos >> r) & 1) == 0;
        for (std::size_t w = 0; w < words; ++w)
          cur[w] = mineFirst ? cur[w] + theirs[w] : theirs[w] + cur[w];
      }
      co_await machine_.sim().delay(
          sim::ns(cfg_.roundOverheadNs + cfg_.perWordNs * double(words) * 2));
    }
  }
  if (out != nullptr) *out = std::move(cur);
}

}  // namespace anton::core
