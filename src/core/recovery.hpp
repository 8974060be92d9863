// End-to-end erasure recovery for counted remote writes.
//
// Link-level CRC retransmission repairs bit errors, but a traversal that
// exhausts the retransmit cap *drops* its packet replica — an erasure the
// lossless-network software model would otherwise wait on forever. This
// layer closes the loop in software, the way the machine's firmware would:
//
//   - DropRegistry: a sender-side replay buffer fed by the machine's drop
//     observer. Every dropped replica is recorded per denied receiver (for
//     multicast, only the subtree beyond the failed link is denied — the
//     receivers before it got their copy and must not be re-bumped).
//   - awaitCounted: the counted wait. Armed, each attempt races the counter
//     against a deadline; a timeout diagnoses which declared sources are
//     still short (WatchdogReport), replays exactly the lost payloads from
//     the registry (degraded-routed, so replays avoid the link that ate the
//     original), and hard-fails with that report (RecoveryFailure) when the
//     bounded resend budget is exhausted.
//
// Disarmed (no registry), the wait is a plain counter poll with
// bit-identical timing — the zero-fault path is untouched.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/packet.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace anton::net {
class Machine;
}

namespace anton::core {

/// Per-wait recovery policy.
struct RecoveryConfig {
  sim::Time timeout = 0;          ///< per-attempt deadline
  int maxResends = 4;             ///< replay rounds before hard failure
  sim::Time resendBackoff = 0;    ///< extra deadline added per retry round
  bool rerouteOnTimeout = false;  ///< flip degraded routing on first timeout
};

/// Aggregate recovery activity (all exactly zero on a fault-free run).
struct RecoveryStats {
  std::uint64_t timeouts = 0;      ///< deadlines that fired
  std::uint64_t resends = 0;       ///< packets replayed from the registry
  std::uint64_t hardFailures = 0;  ///< waits that exhausted their budget
  /// Timed-out rounds forgiven because the counter advanced during the
  /// round (an upstream cascade is still draining toward us).
  std::uint64_t progressRounds = 0;
  void accumulate(const RecoveryStats& o) {
    timeouts += o.timeouts;
    resends += o.resends;
    hardFailures += o.hardFailures;
    progressRounds += o.progressRounds;
  }
};

/// Diagnosis of a timed-out counted wait: the per-source shortfall, plus
/// the waiting client and counter so recovery can locate the lost replicas.
struct WatchdogReport {
  bool timedOut = false;
  std::uint64_t expected = 0;  ///< the counter threshold waited for
  std::uint64_t arrived = 0;   ///< counter value when the race settled
  sim::Time resolvedAt = 0;    ///< simulated time of resolution
  net::ClientAddr dst;         ///< the waiting client
  int counterId = net::kNoCounter;

  /// One source that delivered fewer counted packets than declared.
  struct MissingSource {
    int node = 0;
    std::uint64_t expected = 0;
    std::uint64_t arrived = 0;
  };
  std::vector<MissingSource> missing;

  /// Human-readable one-line summary ("... TIMED OUT ...; missing: node 2
  /// (0/2)").
  std::string describe() const;
};

/// Sender-side replay buffer: installs itself as the machine's drop
/// observer and records every dropped replica per denied receiver, keyed by
/// (counter, source node, receiver) for the timeout diagnosis to consume.
class DropRegistry {
 public:
  explicit DropRegistry(net::Machine& machine);
  ~DropRegistry();
  DropRegistry(const DropRegistry&) = delete;
  DropRegistry& operator=(const DropRegistry&) = delete;

  /// Dropped replicas observed since construction (never forgotten, even by
  /// prune/take — the tally is the bench's drop count).
  std::uint64_t dropsObserved() const { return drops_; }

  /// Recorded (packet, denied receiver) pairs not yet replayed.
  std::size_t pending() const { return entries_.size(); }

  /// Consume every pending replica that `srcNode` lost toward `dst` on
  /// `counterId`. Returns the packets (payloads intact) for replay; taken
  /// entries are removed so a second diagnosis cannot double-replay.
  std::vector<net::PacketPtr> take(int counterId, int srcNode,
                                   net::ClientAddr dst);

  /// Discard pending entries recorded before `before` (stale drops whose
  /// wait already hard-failed). The observed-drop tally is untouched.
  void prune(sim::Time before);

 private:
  struct Entry {
    net::PacketPtr packet;
    net::ClientAddr denied;
    sim::Time droppedAt;
  };
  net::Machine& machine_;
  std::vector<Entry> entries_;
  std::uint64_t drops_ = 0;
};

/// Thrown (out of Simulator::run) when an armed wait exhausts its resend
/// budget; carries the final timeout diagnosis.
class RecoveryFailure : public std::runtime_error {
 public:
  explicit RecoveryFailure(WatchdogReport r)
      : std::runtime_error("erasure recovery exhausted its resend budget: " +
                           r.describe()),
        report(std::move(r)) {}
  WatchdogReport report;
};

/// One shared arming handle for a subsystem's counted waits: a registry to
/// replay from, the retry policy, and an optional stats sink aggregated
/// across every wait. Default-constructed hooks are disarmed.
struct RecoveryHooks {
  DropRegistry* registry = nullptr;
  RecoveryConfig config;
  RecoveryStats* stats = nullptr;
  bool armed() const { return registry != nullptr; }
};

/// THE counted wait: await counters[counterId] >= target on `client`.
///
/// Disarmed `hooks`: a plain waitCounter, schedule-identical to
/// recovery-free code. Armed: each attempt parks one counter waiter, then
/// one cancellable deadline of timeout + spent * resendBackoff; whichever
/// fires first retracts the other. When the counter wins, that is all.
/// When the deadline wins, the wait flips degraded routing (if
/// rerouteOnTimeout), diagnoses every source declared in `bySource`
/// (cumulative per-source packet expectations) and replays the registry's
/// drops toward this client. A round during which the counter advanced AND
/// nothing was replayed is progress-bound (an upstream cascade still
/// draining) and is forgiven; after maxResends charged rounds the wait
/// throws RecoveryFailure. Counts go to `hooks.stats` when set. The timeout
/// must be at least the client's poll latency, or a met counter could never
/// beat its deadline (std::invalid_argument otherwise).
///
/// `bySource` and `hooks` are taken by reference and must outlive the
/// co_await.
sim::Task awaitCounted(net::NetworkClient& client, int counterId,
                       std::uint64_t target,
                       const std::map<int, std::uint64_t>& bySource,
                       const RecoveryHooks& hooks);

}  // namespace anton::core
