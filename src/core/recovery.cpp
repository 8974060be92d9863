#include "core/recovery.hpp"

#include <coroutine>
#include <sstream>

#include "net/machine.hpp"
#include "sim/simulator.hpp"

namespace anton::core {

std::string WatchdogReport::describe() const {
  std::ostringstream os;
  os << "counted write on node " << dst.node << "/client " << dst.client
     << " counter " << counterId << (timedOut ? " TIMED OUT" : " resolved")
     << " at " << sim::toNs(resolvedAt) << " ns: " << arrived << "/"
     << expected << " arrived";
  if (!missing.empty()) {
    os << "; missing:";
    for (const MissingSource& m : missing)
      os << " node " << m.node << " (" << m.arrived << "/" << m.expected
         << ")";
  }
  return os.str();
}

// --- DropRegistry -----------------------------------------------------------

DropRegistry::DropRegistry(net::Machine& machine) : machine_(machine) {
  machine_.setDropHandler([this](const net::PacketPtr& p,
                                 const std::vector<net::ClientAddr>& denied) {
    ++drops_;
    for (const net::ClientAddr& d : denied)
      entries_.push_back({p, d, machine_.sim().now()});
  });
}

DropRegistry::~DropRegistry() { machine_.setDropHandler(nullptr); }

std::vector<net::PacketPtr> DropRegistry::take(int counterId, int srcNode,
                                               net::ClientAddr dst) {
  std::vector<net::PacketPtr> out;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->packet->counterId == counterId &&
        it->packet->src.node == srcNode && it->denied == dst) {
      out.push_back(it->packet);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void DropRegistry::prune(sim::Time before) {
  std::erase_if(entries_,
                [before](const Entry& e) { return e.droppedAt < before; });
}

// --- the counted wait -------------------------------------------------------

namespace {

/// Replay every registered drop named missing by `report`: each lost
/// replica is re-posted by its original sender as a degraded-routed unicast
/// to exactly the denied receiver (re-multicasting would re-bump receivers
/// that already got their copy). Returns the number of packets replayed —
/// zero when the shortfall is not in the registry (e.g. the upstream sender
/// is itself still recovering).
std::size_t resendFromRegistry(net::Machine& machine, DropRegistry& registry,
                               const WatchdogReport& report) {
  std::size_t resent = 0;
  for (const WatchdogReport::MissingSource& m : report.missing) {
    for (const net::PacketPtr& p :
         registry.take(report.counterId, m.node, report.dst)) {
      // Clone on replay: post() builds a fresh Packet sharing only the
      // payload slot. Re-injecting the registry-held object would mutate
      // bookkeeping (injectedAt, routeSalt, tailLag) on a Packet whose
      // other multicast replicas may still be in flight — and would replay
      // a multicast header as a multicast, re-fanning the whole tree.
      net::NetworkClient::SendArgs args;
      args.type = p->type;
      args.dst = report.dst;  // unicast replay, even for a multicast drop
      args.counterId = p->counterId;
      args.address = p->address;
      args.inOrder = p->inOrder;
      args.degradedRoute = true;  // avoid the link that ate the original
      args.payload = p->payload;
      machine.client(p->src).post(args);
      ++resent;
    }
  }
  return resent;
}

/// The timeout diagnosis: the counter's value now and every declared
/// source that delivered fewer packets than it owes.
WatchdogReport diagnose(net::NetworkClient& client, int counterId,
                        std::uint64_t target,
                        const std::map<int, std::uint64_t>& bySource) {
  WatchdogReport r;
  r.timedOut = true;
  r.expected = target;
  r.arrived = client.counterValue(counterId);
  r.resolvedAt = client.machine().sim().now();
  r.dst = client.addr();
  r.counterId = counterId;
  for (const auto& [node, want] : bySource) {
    const std::uint64_t got = client.arrivedFrom(counterId, node);
    if (got < want) r.missing.push_back({node, want, got});
  }
  return r;
}

/// The race of one armed wait, living in its coroutine frame: each attempt
/// parks a counter waiter and then a cancellable deadline, both capturing
/// only `this`. The first to fire retracts the other and resumes the wait.
/// A counter wake that was already scheduled when its deadline fired
/// cannot be retracted; it is counted stale and ignored when it runs. It
/// always runs before any later attempt's wake (same poll latency, earlier
/// sequence number), and before the wait ends as long as every deadline
/// is at least one poll latency long.
struct CounterRace {
  net::NetworkClient& client;
  int counterId;
  std::uint64_t target;
  std::coroutine_handle<> waiter{};
  sim::Simulator::EventHandle deadline{};
  std::uint64_t token = 0;
  int staleWakes = 0;
  bool timedOut = false;

  /// Awaitable attempt: resumes with true when the deadline won.
  struct Attempt {
    CounterRace& race;
    sim::Time timeout;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { race.arm(h, timeout); }
    bool await_resume() const noexcept { return race.timedOut; }
  };
  Attempt attempt(sim::Time timeout) { return {*this, timeout}; }

  void arm(std::coroutine_handle<> h, sim::Time timeout) {
    waiter = h;
    timedOut = false;
    token = client.onCounter(counterId, target, [this] { counterMet(); });
    deadline = client.machine().sim().afterCancellable(
        timeout, [this] { deadlineFired(); });
  }
  void counterMet() {
    if (staleWakes > 0) {
      --staleWakes;
      return;
    }
    sim::Simulator::cancel(deadline);
    waiter.resume();
  }
  void deadlineFired() {
    // Counters never reset: an unmet waiter left parked would pin this
    // frame for the life of the client.
    if (!client.cancelCounterWaiter(counterId, token)) ++staleWakes;
    timedOut = true;
    waiter.resume();
  }
};

}  // namespace

sim::Task awaitCounted(net::NetworkClient& client, int counterId,
                       std::uint64_t target,
                       const std::map<int, std::uint64_t>& bySource,
                       const RecoveryHooks& hooks) {
  if (!hooks.armed()) {
    co_await client.waitCounter(counterId, target);
    co_return;
  }
  const RecoveryConfig& cfg = hooks.config;
  if (cfg.timeout < client.pollLatency())
    throw std::invalid_argument(
        "awaitCounted: the recovery timeout is shorter than one counter poll");
  RecoveryStats ignored;
  RecoveryStats& stats = hooks.stats != nullptr ? *hooks.stats : ignored;
  CounterRace race{client, counterId, target};
  std::uint64_t lastSeen = client.counterValue(counterId);
  for (int spent = 0;;) {
    // A spent round waits timeout + spent*backoff: the wait stays armed
    // continuously (no blind window between rounds) and cascaded
    // recoveries — a waiter whose upstream sender is itself recovering —
    // get linearly more patience instead of burning the budget at a fixed
    // cadence.
    if (!co_await race.attempt(cfg.timeout +
                               sim::Time(spent) * cfg.resendBackoff))
      co_return;
    // The timeout is evidence of a dead link: later traffic routes around
    // links the fault model reports as down.
    if (cfg.rerouteOnTimeout) client.machine().setFaultReroute(true);
    WatchdogReport r = diagnose(client, counterId, target, bySource);
    ++stats.timeouts;
    const bool progressed = r.arrived > lastSeen;
    lastSeen = r.arrived;
    if (!progressed && spent >= cfg.maxResends) {
      ++stats.hardFailures;
      throw RecoveryFailure(std::move(r));
    }
    const std::size_t replayed =
        resendFromRegistry(client.machine(), *hooks.registry, r);
    stats.resends += replayed;
    if (progressed && replayed == 0) {
      // The counter advanced during the round and the registry owed us
      // nothing: the shortfall is progress-bound, not loss-bound —
      // typically an upstream sender mid-recovery still draining toward
      // us. Re-arm without charging the resend budget; a trickling
      // cascade must not be escalated into a hard failure while it is
      // visibly making progress. (A round that actually replayed packets
      // is charged even when it also progressed: real loss was found.)
      ++stats.progressRounds;
      continue;
    }
    ++spent;
  }
}

}  // namespace anton::core
