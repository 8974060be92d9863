// The Anton machine model: a 3D torus of nodes with dimension-ordered
// shortest-path routing, lossless links with per-direction bandwidth
// occupancy (wormhole switching), hardware multicast, and counted-write
// delivery semantics. Latencies follow the calibrated LatencyConfig; see
// DESIGN.md §4 for the calibration against SC10 Figs. 5/6.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fault_hooks.hpp"
#include "net/latency.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/head_queue.hpp"
#include "util/torus_coord.hpp"

#include "trace/activity.hpp"

namespace anton::net {

/// Structural configuration of a machine instance.
struct MachineConfig {
  LatencyConfig latency;
  /// Local memory bound per client: address space reserved in the machine's
  /// zero-page mapping, committed page by page as the simulation writes it.
  std::size_t clientMemBytes = 256 << 10;
  /// Sync-counter bound per client: ids at or past it are rejected; the bank
  /// materializes only the counters a run touches.
  int countersPerClient = 256;
  bool adaptiveRouting = true;  ///< permute dimension order for packets
                                ///< without the in-order flag
  bool faultReroute = false;  ///< degraded mode: route around links that the
                              ///< installed fault model reports as down, via
                              ///< a non-preferred dimension order
};

/// One anonymous private mapping (POSIX mmap) that backs every client's local
/// memory. The kernel zero-fills a page on its first write, so a machine pays
/// only for the pages its traffic touches; untouched pages cost nothing to
/// map or unmap. Throws std::bad_alloc when the mapping fails.
class ZeroPageMapping {
 public:
  explicit ZeroPageMapping(std::size_t bytes);
  ~ZeroPageMapping();
  ZeroPageMapping(const ZeroPageMapping&) = delete;
  ZeroPageMapping& operator=(const ZeroPageMapping&) = delete;

  std::byte* data() const { return base_; }

 private:
  std::byte* base_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Aggregate traffic statistics. The reliability counters stay exactly zero
/// on a fault-free run (including under an installed zero-fault plan).
struct MachineStats {
  std::uint64_t packetsInjected = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t linkTraversals = 0;
  std::uint64_t wireBytes = 0;       ///< bytes crossing inter-node links
  std::uint64_t multicastForks = 0;  ///< replicas created by multicast fan-out
  std::uint64_t crcRetransmits = 0;  ///< corrupt link transmissions replayed
  std::uint64_t linkFailures = 0;    ///< traversals that exhausted the
                                     ///< retransmit cap; the packet replica
                                     ///< was dropped (erased) on that link
  std::uint64_t outageStalls = 0;    ///< traversals held by a link outage
  std::uint64_t routerStalls = 0;    ///< node visits delayed by a stalled ring
  std::uint64_t faultReroutes = 0;   ///< packets sent via a non-preferred dim
  sim::Time retransmitDelay = 0;     ///< latency inflation from CRC replays
  sim::Time stallDelay = 0;          ///< total outage + router-stall wait
  friend bool operator==(const MachineStats&, const MachineStats&) = default;
};

/// The machine participates in the sharded kernel's window protocol: per
/// shard it stages statistics, trace intervals and batched-drain sequence
/// reservations, and folds them into the canonical (serial-identical) state
/// at every window barrier.
class Machine : public sim::ShardParticipant {
 public:
  Machine(sim::Simulator& sim, util::TorusShape shape, MachineConfig cfg = {});
  ~Machine() override;

  sim::Simulator& sim() { return sim_; }
  const util::TorusShape& shape() const { return shape_; }
  const LatencyConfig& latency() const { return cfg_.latency; }
  const MachineConfig& config() const { return cfg_; }
  int numNodes() const { return shape_.size(); }

  /// Node `idx`, constructed in its slot on the first call (a node the
  /// traffic never touches is never built); std::out_of_range for an index
  /// outside [0, numNodes()). Sharded mode builds every node before any
  /// worker runs (onShardedEnable), so no shard thread ever constructs one.
  Node& node(int idx) {
    if (idx < 0 || idx >= numNodes())
      throw std::out_of_range("Machine::node: bad node index");
    return nodeBuilt_[std::size_t(idx)] ? *nodes_[std::size_t(idx)].get()
                                        : buildNode(idx);
  }
  /// Nodes constructed so far (observability for first-touch tests).
  int nodesBuilt() const { return nodesBuilt_; }
  Node& node(const util::TorusCoord& c) { return node(util::torusIndex(c, shape_)); }
  NetworkClient& client(ClientAddr a) { return node(a.node).client(a.client); }
  ProcessingSlice& slice(int nodeIdx, int s) { return node(nodeIdx).slice(s); }
  Htis& htis(int nodeIdx) { return node(nodeIdx).htis(); }
  AccumulationMemory& accum(int nodeIdx, int which) {
    return node(nodeIdx).accum(which);
  }

  /// Install a multicast fan-out entry at one node.
  void setMulticastPattern(int nodeIdx, int pattern, MulticastEntry e) {
    node(nodeIdx).setMulticast(pattern, e);
  }

  /// Inject a packet from p->src at the current simulated time. The pipeline
  /// (assembly, on-chip ring, adapters, links) is scheduled as events; the
  /// payload commits and the destination counter bumps at delivery time.
  void inject(const PacketPtr& p);

  const MachineStats& stats() const { return stats_; }
  void resetStats() { stats_ = {}; }

  /// Traversal count of the outgoing link of `nodeIdx` in (dim, sign).
  std::uint64_t linkTraversals(int nodeIdx, int dim, int sign) const {
    return links_[std::size_t(nodeIdx) * 6 +
                  std::size_t(RingLayout::adapterIndex(dim, sign))]
        .traversals;
  }

  /// Shortest-path hop count between two nodes (all dimensions).
  int hops(int fromNode, int toNode) const;

  /// Attach an activity trace: every link traversal records its busy window
  /// on a per-direction "link.X+/X-/.../Z-" unit (aggregated machine-wide,
  /// like the columns of SC10 Fig. 13). Pass nullptr to detach. Must not be
  /// called while sharded mode is enabled (per-shard stages are derived from
  /// the attached trace at enable time).
  void setTrace(trace::ActivityTrace* t);
  /// The trace recording sink for the calling context: inside a shard window
  /// this is the shard's staging trace (merged into the attached trace at
  /// the window barrier), otherwise the attached trace itself. Record
  /// through the returned pointer at the call site; do not cache it across
  /// events.
  trace::ActivityTrace* trace() const;

  /// Install a fault model (e.g. fault::FaultPlan), consulted on every link
  /// traversal, dimension choice, and node-ring entry. Pass nullptr to
  /// detach. A model that reports no faults leaves all timing bit-identical
  /// to the fault-free machine. Refused while sharded (the machine declines
  /// onShardedEnable with a fault model installed, and fault state cannot be
  /// installed under a running sharded kernel either).
  void setFaultModel(FaultModel* f);
  FaultModel* faultModel() const { return fault_; }

  // --- sim::ShardParticipant -----------------------------------------------
  void onShardedEnable(const sim::ShardLayout& layout) override;
  void onShardedBarrier(
      const std::function<std::uint64_t(std::uint64_t)>& canon) override;
  void onShardedDisable() override;

  /// Toggle degraded-mode routing at runtime (initially
  /// MachineConfig::faultReroute). Only affects packets routed afterwards.
  void setFaultReroute(bool on) { faultReroute_ = on; }
  bool faultReroute() const { return faultReroute_; }

  /// Whether the outgoing link of `nodeIdx` in (dim, sign) has dropped a
  /// packet at retransmit-cap exhaustion. The mark is sticky: recovery
  /// replays (Packet::degradedRoute) route around marked links instead of
  /// re-entering the one that ate the original copy. Stays all-false on a
  /// fault-free run.
  bool linkMarkedFailed(int nodeIdx, int dim, int sign) const {
    return links_[std::size_t(nodeIdx) * 6 +
                  std::size_t(RingLayout::adapterIndex(dim, sign))]
        .markedFailed;
  }

  /// Clear every sticky failed-link mark (e.g. after a repaired outage).
  void clearFailedLinkMarks() {
    for (Link& l : links_) l.markedFailed = false;
  }

  /// Observer of link-failed packet drops: called once per dropped replica
  /// with the packet and the set of destination clients the replica would
  /// still have reached (for multicast, the subtree beyond the failed link).
  /// The software recovery layer (core::DropRegistry) uses this as its
  /// replay buffer feed. Pass nullptr to detach.
  using DropHandler =
      std::function<void(const PacketPtr&, const std::vector<ClientAddr>&)>;
  void setDropHandler(DropHandler h) { dropHandler_ = std::move(h); }

  /// Destination clients a packet entering `nodeIdx` would reach (multicast:
  /// the pattern subtree rooted there; unicast: its single destination).
  std::vector<ClientAddr> downstreamReceivers(const PacketPtr& p, int nodeIdx);

 private:
  friend class NetworkClient;

  /// One packet parked on a link, waiting for its head to reach the far
  /// ring. `seq` was reserved at forwarding time, so the drain runs each
  /// arrival in the (time, seq) slot of its forwarding point.
  struct Arrival {
    PacketPtr p;
    sim::Time atRing;
    std::uint64_t seq;
  };

  struct Link {
    sim::Time busyUntil = 0;
    std::uint64_t traversals = 0;
    // Batched drain state: arrivals are appended in (monotonic) time order
    // and consumed front-to-back; at most one drain event is in the kernel
    // per link, however many packets are in flight on it.
    util::HeadQueue<Arrival> pending;
    bool drainScheduled = false;
    /// Sticky failed mark, set when a traversal exhausts the retransmit cap
    /// and drops its packet.
    bool markedFailed = false;
  };
  Link& link(int nodeIdx, int dim, int sign) {
    return links_[std::size_t(nodeIdx) * 6 +
                  std::size_t(RingLayout::adapterIndex(dim, sign))];
  }

  /// Construct node `idx` in its slot (the cold half of node()).
  Node& buildNode(int idx);

  /// Schedule (or re-arm) the single drain event of link `li` for the
  /// front of its pending queue.
  void scheduleDrain(std::size_t li);
  /// Route every pending arrival of link `li` whose time is now; re-arm
  /// for the next one.
  void drainLink(std::size_t li);

  /// Route a packet onward from a node. `entryRouter` is where the packet
  /// sits on the on-chip ring; `viaDim/viaSign` describe the link it arrived
  /// on (-1 for freshly injected packets).
  void routeFrom(const PacketPtr& p, int nodeIdx, int entryRouter, int viaDim,
                 int viaSign, sim::Time t);

  /// Send a packet out of nodeIdx on (dim, sign). `entryRouter` is its ring
  /// position; `straightThrough` selects the calibrated transit cost instead
  /// of the generic ring path.
  void forwardOnLink(const PacketPtr& p, int nodeIdx, int entryRouter,
                     int viaDim, int dim, int sign, sim::Time t);

  /// Commit delivery to a local client after the final on-chip segment.
  void deliverLocal(const PacketPtr& p, int nodeIdx, int entryRouter,
                    int clientId, sim::Time t);

  /// Dimension traversal order for this packet (identity when in-order or
  /// adaptive routing is disabled; a salt-derived permutation otherwise).
  std::array<int, 3> dimOrder(const Packet& p) const;

  /// Statistics sink for the calling context: the shard's staging counters
  /// inside a window, the canonical aggregate otherwise.
  MachineStats& st() {
    int s = sim::Simulator::currentShard();
    if (s >= 0 && !shardStats_.empty()) return shardStats_[std::size_t(s)];
    return stats_;
  }

  sim::Simulator& sim_;
  util::TorusShape shape_;
  MachineConfig cfg_;
  /// Uninitialized storage for one Node, constructed in place on first touch.
  struct NodeSlot {
    alignas(Node) std::byte bytes[sizeof(Node)];
    Node* get() { return std::launder(reinterpret_cast<Node*>(bytes)); }
  };

  /// Backs every client's memory; ~Machine destroys the nodes before it.
  ZeroPageMapping clientMem_;
  /// One slot per node, allocated uninitialized: a slot's pages are written
  /// only when its node is built, and ~Machine destroys only built nodes.
  std::unique_ptr<NodeSlot[]> nodes_;
  std::vector<char> nodeBuilt_;  ///< per-node "slot holds a live Node"
  int nodesBuilt_ = 0;
  std::vector<Link> links_;
  MachineStats stats_;
  /// Per-source-node route-salt counters. Injections from one source node
  /// always execute on that node's shard, so a per-node counter is both
  /// race-free under the sharded kernel and independent of the global
  /// injection interleaving (a process-wide counter would make the salt —
  /// and adaptive dimension orders — depend on event execution order).
  std::vector<std::uint64_t> saltByNode_;
  trace::ActivityTrace* trace_ = nullptr;
  std::array<int, 6> traceLinkUnits_{};
  int traceKind_ = 0;
  int traceRetxKind_ = 0;
  int traceOutageKind_ = 0;
  int traceRstallKind_ = 0;
  int traceLinkFailKind_ = 0;
  int traceFaultUnit_ = 0;
  FaultModel* fault_ = nullptr;
  bool faultReroute_ = false;
  DropHandler dropHandler_;

  // --- sharded staging (empty in serial mode) ---
  /// Per-shard staged statistics, folded into stats_ at every barrier.
  std::vector<MachineStats> shardStats_;
  /// Per-shard staged traces (only when a trace is attached), merged into
  /// trace_ in canonical (time, seq) order at every barrier. Mutable: the
  /// const trace() accessor hands out the calling shard's stage.
  mutable std::vector<trace::ActivityTrace> stageTraces_;
};

}  // namespace anton::net
