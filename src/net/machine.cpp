#include "net/machine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>
#include <stdexcept>

#include "trace/activity.hpp"

namespace anton::net {

namespace {

// The six permutations of {x, y, z} used for adaptive dimension ordering.
constexpr std::array<std::array<int, 3>, 6> kDimPerms = {{
    {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};

/// Bytes of client memory a machine of `shape` maps. Rejects a degenerate
/// shape before anything is mapped.
std::size_t clientMemTotal(const util::TorusShape& shape, std::size_t perClient) {
  if (shape.nx < 1 || shape.ny < 1 || shape.nz < 1)
    throw std::invalid_argument("torus extents must be positive");
  const std::size_t clients = std::size_t(shape.size()) * kClientsPerNode;
  if (perClient != 0 && clients > std::numeric_limits<std::size_t>::max() / perClient)
    throw std::bad_alloc();
  return clients * perClient;
}

}  // namespace

ZeroPageMapping::ZeroPageMapping(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;  // mmap rejects empty mappings
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  base_ = static_cast<std::byte*>(p);
  // A transparent huge page would zero 2 MiB on every first touch, so opt
  // out even where THP defaults to "always". Advisory: a kernel without THP
  // rejects it, which changes nothing.
  ::madvise(p, bytes, MADV_NOHUGEPAGE);
}

ZeroPageMapping::~ZeroPageMapping() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

Machine::Machine(sim::Simulator& sim, util::TorusShape shape, MachineConfig cfg)
    : sim_(sim),
      shape_(shape),
      cfg_(cfg),
      clientMem_(clientMemTotal(shape, cfg.clientMemBytes)),
      nodes_(std::make_unique_for_overwrite<NodeSlot[]>(
          std::size_t(shape.size()))),
      nodeBuilt_(std::size_t(shape.size()), 0),
      faultReroute_(cfg.faultReroute) {
  links_.resize(std::size_t(shape.size()) * 6);
  saltByNode_.assign(std::size_t(shape.size()), 0);
  sim_.addShardParticipant(this);
}

Machine::~Machine() {
  sim_.removeShardParticipant(this);
  for (int i = 0; i < numNodes(); ++i)
    if (nodeBuilt_[std::size_t(i)]) nodes_[std::size_t(i)].get()->~Node();
}

Node& Machine::buildNode(int idx) {
  const std::size_t nodeMemBytes = kClientsPerNode * cfg_.clientMemBytes;
  std::span<std::byte> mem{clientMem_.data() + std::size_t(idx) * nodeMemBytes,
                           nodeMemBytes};
  Node* n = ::new (nodes_[std::size_t(idx)].bytes)
      Node(*this, idx, util::torusCoordOf(idx, shape_), mem,
           cfg_.countersPerClient);
  nodeBuilt_[std::size_t(idx)] = 1;
  ++nodesBuilt_;
  return *n;
}

void Machine::setTrace(trace::ActivityTrace* t) {
  if (!shardStats_.empty())
    throw std::logic_error(
        "Machine::setTrace: cannot swap the trace while sharded mode is on");
  trace_ = t;
  if (t == nullptr) return;
  static constexpr const char* kNames[6] = {"link.X+", "link.X-", "link.Y+",
                                            "link.Y-", "link.Z+", "link.Z-"};
  for (int a = 0; a < 6; ++a)
    traceLinkUnits_[std::size_t(a)] = t->unit(kNames[a]);
  traceKind_ = t->kind("xfer");
  traceRetxKind_ = t->kind("retx");
  traceOutageKind_ = t->kind("outage");
  traceRstallKind_ = t->kind("rstall");
  traceLinkFailKind_ = t->kind("linkfail");
  traceFaultUnit_ = t->unit("fault");
}

trace::ActivityTrace* Machine::trace() const {
  int s = sim::Simulator::currentShard();
  if (s >= 0 && !stageTraces_.empty()) return &stageTraces_[std::size_t(s)];
  return trace_;
}

void Machine::setFaultModel(FaultModel* f) {
  if (f != nullptr && !shardStats_.empty())
    throw std::logic_error(
        "Machine::setFaultModel: fault state cannot be installed under a "
        "running sharded kernel (disable sharding first)");
  fault_ = f;
}

void Machine::onShardedEnable(const sim::ShardLayout& layout) {
  if (fault_ != nullptr)
    throw std::logic_error(
        "Machine: refusing sharded mode with a fault model installed — "
        "fault bookkeeping (shared stall windows, sticky link marks, drop "
        "replay) is not shard-safe");
  if (int(layout.shardOfNode.size()) < numNodes())
    throw std::invalid_argument(
        "Machine: sharding '" + layout.name + "' maps " +
        std::to_string(layout.shardOfNode.size()) + " nodes but the machine has " +
        std::to_string(numNodes()));
  // Build every node now, on the enabling thread: node() constructs on
  // first touch, which must never race between shard workers.
  for (int i = 0; i < numNodes(); ++i) node(i);
  shardStats_.assign(std::size_t(layout.numShards), MachineStats{});
  stageTraces_.clear();
  if (trace_ != nullptr) {
    stageTraces_.resize(std::size_t(layout.numShards));
    for (trace::ActivityTrace& stage : stageTraces_)
      stage.stageFrom(*trace_, [this] { return sim_.currentExecKey(); });
  }
}

void Machine::onShardedBarrier(
    const std::function<std::uint64_t(std::uint64_t)>& canon) {
  // Batched-drain reservations parked on link queues may carry provisional
  // seqs from the window that just closed; exchange them for their canonical
  // values so a later window's re-arm replays the serial (time, seq) slot.
  for (Link& l : links_) {
    for (Arrival& a : l.pending.items())
      if (a.seq & sim::Simulator::kProvBit) a.seq = canon(a.seq);
  }

  // Every MachineStats field is an additive tally, so a fieldwise fold of
  // the per-shard stages reproduces the serial aggregate exactly.
  for (MachineStats& s : shardStats_) {
    stats_.packetsInjected += s.packetsInjected;
    stats_.packetsDelivered += s.packetsDelivered;
    stats_.linkTraversals += s.linkTraversals;
    stats_.wireBytes += s.wireBytes;
    stats_.multicastForks += s.multicastForks;
    stats_.crcRetransmits += s.crcRetransmits;
    stats_.linkFailures += s.linkFailures;
    stats_.outageStalls += s.outageStalls;
    stats_.routerStalls += s.routerStalls;
    stats_.faultReroutes += s.faultReroutes;
    stats_.retransmitDelay += s.retransmitDelay;
    stats_.stallDelay += s.stallDelay;
    s = MachineStats{};
  }

  if (trace_ != nullptr && !stageTraces_.empty()) {
    // Gather this window's staged intervals, canonicalize their emission
    // keys, and append them to the main trace in (time, seq, record index)
    // order — the exact order a serial run would have recorded them
    // (serial execution visits events in (t, seq) order, and the record
    // index preserves call order within one event). Names translate by
    // string: a stage may have registered units the main trace has not seen.
    struct Staged {
      sim::Time t;
      std::uint64_t seq;
      std::uint32_t idx;
      const trace::ActivityTrace* stage;
      trace::ActivityTrace::Interval iv;
    };
    std::vector<Staged> merged;
    for (trace::ActivityTrace& stage : stageTraces_) {
      const auto& ivs = stage.intervals();
      const auto& keys = stage.keys();
      for (std::size_t i = 0; i < ivs.size(); ++i) {
        std::uint64_t seq = keys[i].second;
        if (seq & sim::Simulator::kProvBit) seq = canon(seq);
        merged.push_back({keys[i].first, seq, std::uint32_t(i), &stage, ivs[i]});
      }
    }
    std::sort(merged.begin(), merged.end(), [](const Staged& a, const Staged& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.idx < b.idx;
    });
    for (const Staged& s : merged) {
      trace_->record(
          trace_->unit(s.stage->unitNames()[std::size_t(s.iv.unit)]),
          trace_->kind(s.stage->kindNames()[std::size_t(s.iv.kind)]),
          s.iv.start, s.iv.end);
    }
    for (trace::ActivityTrace& stage : stageTraces_) stage.clear();
  }
}

void Machine::onShardedDisable() {
  shardStats_.clear();
  stageTraces_.clear();
}

int Machine::hops(int fromNode, int toNode) const {
  return util::torusHops(util::torusCoordOf(fromNode, shape_),
                         util::torusCoordOf(toNode, shape_), shape_);
}

std::array<int, 3> Machine::dimOrder(const Packet& p) const {
  if (p.inOrder || !cfg_.adaptiveRouting) return kDimPerms[0];
  return kDimPerms[p.routeSalt % kDimPerms.size()];
}

void Machine::inject(const PacketPtr& p) {
  if (p->payloadBytes() > kMaxPayloadBytes)
    throw std::length_error("packet payload exceeds 256 bytes");
  if (p->multicastPattern != kNoMulticast &&
      (p->multicastPattern < 0 || p->multicastPattern >= kMulticastPatterns))
    throw std::out_of_range("bad multicast pattern id");
  p->injectedAt = sim_.now();
  p->routeSalt = saltByNode_[std::size_t(p->src.node)]++;
  // Replays hand back the same Packet object (e.g. a registry-held pointer
  // re-injected directly): clear the tail lag the first transit left behind,
  // or a 0-hop replay would charge a wire serialization it never pays.
  p->tailLag = 0;
  ++st().packetsInjected;

  Node& src = node(p->src.node);
  const LatencyConfig& lat = cfg_.latency;
  sim::Time t0 = sim_.now() + lat.assembly();
  sim::Time start = src.reserveRing(t0, p->wireBytes());
  int entryRouter = lat.ring.clientRouter[std::size_t(p->src.client)];
  routeFrom(p, p->src.node, entryRouter, /*viaDim=*/-1, /*viaSign=*/0, start);
}

void Machine::routeFrom(const PacketPtr& p, int nodeIdx, int entryRouter,
                        int viaDim, int viaSign, sim::Time t) {
  if (fault_ != nullptr) {
    // Stalled on-chip router: everything entering this node's ring waits.
    sim::Time free = fault_->routerStallUntil(nodeIdx, t);
    if (free > t) {
      ++st().routerStalls;
      st().stallDelay += free - t;
      if (trace::ActivityTrace* tr = trace())
        tr->record(traceFaultUnit_, traceRstallKind_, t, free);
      t = free;
    }
  }

  if (p->multicastPattern != kNoMulticast) {
    const MulticastEntry& e = node(nodeIdx).multicast(p->multicastPattern);
    if (e.empty())
      throw std::logic_error("multicast packet hit an empty pattern entry");
    int branches = 0;
    for (int c = 0; c < kClientsPerNode; ++c) {
      if (e.clientMask & (1u << c)) {
        deliverLocal(p, nodeIdx, entryRouter, c, t);
        ++branches;
      }
    }
    for (int a = 0; a < 6; ++a) {
      if (e.linkMask & (1u << a)) {
        int dim = a / 2;
        int sign = (a % 2 == 0) ? +1 : -1;
        forwardOnLink(p, nodeIdx, entryRouter, viaDim == dim && viaSign == sign
                                                   ? viaDim
                                                   : -1,
                      dim, sign, t);
        ++branches;
      }
    }
    if (branches > 1) st().multicastForks += std::uint64_t(branches - 1);
    return;
  }

  // Unicast: dimension-ordered shortest-path routing. In degraded mode the
  // first dimension whose outgoing link is healthy wins; if every remaining
  // dimension's link is down the packet takes the preferred one and stalls
  // at its adapter until the outage window closes. Recovery replays
  // (degradedRoute) additionally avoid links that already dropped a packet
  // at cap exhaustion (sticky failed marks) — re-entering the link that ate
  // the original copy would likely lose the replay too.
  util::TorusCoord here = util::torusCoordOf(nodeIdx, shape_);
  util::TorusCoord dest = util::torusCoordOf(p->dst.node, shape_);
  int prefDim = -1, prefSign = 0;
  int useDim = -1, useSign = 0;
  for (int dim : dimOrder(*p)) {
    int delta = util::signedTorusDelta(here[dim], dest[dim], shape_.extent(dim));
    if (delta == 0) continue;
    int sign = delta > 0 ? +1 : -1;
    if (prefDim < 0) {
      prefDim = dim;
      prefSign = sign;
    }
    if ((faultReroute_ || p->degradedRoute) && fault_ != nullptr &&
        fault_->linkDown(nodeIdx, dim, sign, t))
      continue;
    if (p->degradedRoute && linkMarkedFailed(nodeIdx, dim, sign)) continue;
    useDim = dim;
    useSign = sign;
    break;
  }
  if (prefDim < 0) {
    deliverLocal(p, nodeIdx, entryRouter, p->dst.client, t);
    return;
  }
  if (useDim < 0) {
    useDim = prefDim;
    useSign = prefSign;
  }
  if (useDim != prefDim || useSign != prefSign) ++st().faultReroutes;
  forwardOnLink(p, nodeIdx, entryRouter,
                (viaDim == useDim && viaSign == useSign) ? viaDim : -1, useDim,
                useSign, t);
}

void Machine::forwardOnLink(const PacketPtr& p, int nodeIdx, int entryRouter,
                            int straightViaDim, int dim, int sign, sim::Time t) {
  const LatencyConfig& lat = cfg_.latency;
  int adapterRouter =
      lat.ring.adapterRouter[std::size_t(RingLayout::adapterIndex(dim, sign))];

  // On-chip path to the exit adapter: through-traffic continuing in the same
  // dimension uses the calibrated transit cost; everything else crosses the
  // ring from its current position.
  sim::Time pathCost = straightViaDim == dim
                           ? lat.transit(dim)
                           : lat.ringPath(entryRouter, adapterRouter);
  sim::Time atAdapter = t + pathCost + lat.adapter();

  Link& l = link(nodeIdx, dim, sign);
  sim::Time depart = std::max(atAdapter, l.busyUntil);
  sim::Time ser = lat.linkSerialization(p->wireBytes());
  const int adapterIdx = RingLayout::adapterIndex(dim, sign);
  bool linkFailed = false;
  if (fault_ != nullptr) {
    LinkFaultOutcome out =
        fault_->onLinkTraversal(nodeIdx, dim, sign, p->wireBytes(), depart);
    if (out.stall > 0) {
      // Outage: the adapter holds the packet until the link comes back.
      ++st().outageStalls;
      st().stallDelay += out.stall;
      if (trace::ActivityTrace* tr = trace())
        tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
                   traceOutageKind_, depart, depart + out.stall);
      depart += out.stall;
    }
    if (out.retransmits > 0) {
      // Link-level retransmission: each CRC-detected corrupt copy occupies
      // the link for its serialization plus the calibrated replay turnaround.
      sim::Time penalty =
          sim::Time(out.retransmits) * (ser + lat.retransmitPenalty());
      st().crcRetransmits += std::uint64_t(out.retransmits);
      st().retransmitDelay += penalty;
      if (trace::ActivityTrace* tr = trace())
        tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
                   traceRetxKind_, depart, depart + penalty);
      depart += penalty;
    }
    linkFailed = out.linkFailed;
  }
  l.busyUntil = depart + ser;
  ++l.traversals;
  ++st().linkTraversals;
  st().wireBytes += p->wireBytes();
  if (trace::ActivityTrace* tr = trace()) {
    tr->record(traceLinkUnits_[std::size_t(adapterIdx)],
               linkFailed ? traceLinkFailKind_ : traceKind_, depart,
               depart + std::max<sim::Time>(ser, 1));
  }

  if (linkFailed) {
    // The link layer exhausted its retransmit budget: the final copy also
    // arrived corrupt, so the hardware drops this replica. The wire time was
    // spent (busy window, traversal, byte accounting above) but nothing is
    // scheduled beyond the link — loss is now a software-visible condition.
    // The link keeps a sticky failed mark so recovery replays route around it.
    ++st().linkFailures;
    l.markedFailed = true;
    if (dropHandler_) {
      util::TorusCoord nc =
          torusNeighbor(util::torusCoordOf(nodeIdx, shape_), dim, sign, shape_);
      dropHandler_(p, downstreamReceivers(p, util::torusIndex(nc, shape_)));
    }
    return;
  }

  // Wormhole switching: the head proceeds after the wire delay; the tail
  // lags by the payload serialization of the slowest (inter-node) link,
  // charged once.
  if (p->tailLag == 0 && p->wireBytes() > kHeaderBytes)
    p->tailLag = lat.linkSerialization(p->wireBytes() - kHeaderBytes);

  sim::Time headArrive = depart + lat.wire(dim);
  util::TorusCoord next =
      torusNeighbor(util::torusCoordOf(nodeIdx, shape_), dim, sign, shape_);
  int nextIdx = util::torusIndex(next, shape_);
  // Arriving via the opposite adapter of the same dimension.
  int entryAdapterRouter =
      lat.ring.adapterRouter[std::size_t(RingLayout::adapterIndex(dim, -sign))];
  sim::Time atRing = headArrive + lat.adapter();
  // Every intra-shard arrival parks on this link's pending queue, drained
  // by at most one kernel event per link however many packets are in
  // flight on it. A drain event executes on the far node's shard but
  // mutates THIS link's queue, so an arrival crossing a shard boundary takes
  // a per-arrival event instead. Both consume their sequence number at this
  // exact point, so any per-link mix of the two yields the same (time, seq)
  // event schedule — the sharded-vs-serial bit-identity tests pin it.
  const sim::ShardLayout* lay = sim_.shardLayout();
  const bool cross =
      lay != nullptr && lay->shardOf(nodeIdx) != lay->shardOf(nextIdx);
  if (!cross) {
    // Reserve the arrival's sequence number now and park it.
    l.pending.push({p, atRing, sim_.reserveSeq()});
    if (!l.drainScheduled)
      scheduleDrain(std::size_t(nodeIdx) * 6 + std::size_t(adapterIdx));
  } else {
    // Cross-shard handoff carries a clone: the mutable header bookkeeping
    // (tailLag was fixed above, before any fork) is settled by now, but
    // isolating each shard's copy keeps the two sides free of even benign
    // shared-field access. The payload buffer is refcount-shared, exactly
    // like a hardware multicast replica, so contents — and therefore every
    // delivery — are identical to handing over the original pointer.
    PacketPtr q = allocatePacket();
    *q = *p;
    sim::ScopedEventNode affinity(nextIdx);
    sim_.at(atRing, [this, q, nextIdx, entryAdapterRouter, dim, sign, atRing] {
      routeFrom(q, nextIdx, entryAdapterRouter, dim, sign, atRing);
    });
  }
}

void Machine::scheduleDrain(std::size_t li) {
  Link& l = links_[li];
  const Arrival& head = l.pending.front();
  l.drainScheduled = true;
  sim_.atReserved(head.atRing, head.seq, [this, li] { drainLink(li); });
}

void Machine::drainLink(std::size_t li) {
  Link& l = links_[li];
  const int nodeIdx = int(li / 6);
  const int a = int(li % 6);
  const int dim = a / 2;
  const int sign = (a % 2 == 0) ? +1 : -1;
  const LatencyConfig& lat = cfg_.latency;
  const int entryAdapterRouter =
      lat.ring.adapterRouter[std::size_t(RingLayout::adapterIndex(dim, -sign))];
  util::TorusCoord nc =
      torusNeighbor(util::torusCoordOf(nodeIdx, shape_), dim, sign, shape_);
  const int nextIdx = util::torusIndex(nc, shape_);

  // Route exactly the head arrival, then re-arm for the next one at its own
  // reserved (time, seq) slot. Per-link head-arrival times are strictly
  // monotonic (busyUntil advances by at least one serialization per
  // traversal), so there is never a second same-time arrival to fold in —
  // and unrelated events interleave between two arrivals exactly as they
  // would between one-event-per-traversal arrivals.
  // drainScheduled stays true across routeFrom so a multicast loop that
  // lands back on this link cannot double-schedule; the tail re-arm below
  // picks any such appendee up.
  Arrival head = l.pending.pop();
  routeFrom(head.p, nextIdx, entryAdapterRouter, dim, sign, head.atRing);

  if (l.pending.empty()) {
    l.drainScheduled = false;
  } else {
    scheduleDrain(li);
  }
}

std::vector<ClientAddr> Machine::downstreamReceivers(const PacketPtr& p,
                                                     int nodeIdx) {
  if (p->multicastPattern == kNoMulticast) return {p->dst};
  // Walk the static fan-out tree exactly as routeFrom would have: clientMask
  // bits are deliveries at this node, linkMask bits continue the walk. The
  // visited guard makes a (malformed) cyclic pattern terminate.
  std::vector<ClientAddr> out;
  std::vector<char> visited(std::size_t(shape_.size()), 0);
  std::vector<int> stack{nodeIdx};
  while (!stack.empty()) {
    int idx = stack.back();
    stack.pop_back();
    if (visited[std::size_t(idx)]) continue;
    visited[std::size_t(idx)] = 1;
    const MulticastEntry& e = node(idx).multicast(p->multicastPattern);
    for (int c = 0; c < kClientsPerNode; ++c)
      if (e.clientMask & (1u << c)) out.push_back({idx, c});
    for (int a = 0; a < 6; ++a) {
      if (e.linkMask & (1u << a)) {
        int dim = a / 2;
        int sign = (a % 2 == 0) ? +1 : -1;
        util::TorusCoord nc =
            torusNeighbor(util::torusCoordOf(idx, shape_), dim, sign, shape_);
        stack.push_back(util::torusIndex(nc, shape_));
      }
    }
  }
  return out;
}

void Machine::deliverLocal(const PacketPtr& p, int nodeIdx, int entryRouter,
                           int clientId, sim::Time t) {
  const LatencyConfig& lat = cfg_.latency;
  int clientRouter = lat.ring.clientRouter[std::size_t(clientId)];
  sim::Time tPath = t + lat.ringPath(entryRouter, clientRouter);
  sim::Time start = node(nodeIdx).reserveRing(tPath, p->wireBytes());
  sim::Time commit = start + p->tailLag;
  // Same-node schedule point: route the commit to this node's own shard.
  sim::ScopedEventNode affinity(nodeIdx);
  sim_.at(commit, [this, p, nodeIdx, clientId] {
    node(nodeIdx).client(clientId).deliver(p);
    ++st().packetsDelivered;
  });
}

}  // namespace anton::net
