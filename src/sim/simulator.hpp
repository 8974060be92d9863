// Discrete-event simulation kernel: serial by default, conservative-PDES
// sharded on demand.
//
// Serial mode: a single min-heap of (time, sequence, callback) events;
// sequence numbers make same-time ordering FIFO and the whole simulation
// deterministic. Coroutine tasks (sim::Task) are spawned as detached roots
// and driven by events that resume their handles.
//
// The hot path is allocation-free in steady state: heap entries are 24
// trivially-copyable bytes (callbacks park in a recycled slot arena as
// inline-capture sim::EventFn), cancellable-event flags come from a slab
// pool, and every backing vector keeps its capacity across reset(). Callers
// that batch same-source events (net::Machine's link drains) reserve
// sequence numbers up front via reserveSeq()/atReserved() so batching
// cannot perturb the (time, seq) schedule.
//
// Sharded mode (enableSharded, DESIGN.md §13): the event set is partitioned
// by machine node into per-shard event queues that execute in lockstep
// synchronization windows. Each window runs every shard up to
// globalMin + lookahead (the layout's minimum shard-pair bound: one link
// crossing on the torus) with no null messages; cross-shard
// messages travel through per-shard outboxes and are delivered at the
// window barrier, where each is checked against its shard pair's channel
// lookahead bound. Events scheduled inside a window carry provisional
// sequence numbers; the barrier replays the window's execution order to
// assign the exact sequence numbers the serial kernel would have issued, so
// a sharded run's schedule — and therefore its results, traces and
// scheduleDigest() — is bit-identical to the serial one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/shard_layout.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/slab_pool.hpp"

namespace anton::sim {

/// Slab pool behind cancellable-event flags (one recycled slot per
/// EventHandle control block + flag).
inline util::SlabPool& eventHandlePool() {
  if (util::SlabPool* o = util::poolOverrides().eventHandle) return *o;
  thread_local util::SlabPool pool("event-handle");
  return pool;
}

namespace detail {
/// Shard index of the window the current thread is executing, -1 outside
/// any shard window (the host context).
inline int& tlsShard() {
  thread_local int shard = -1;
  return shard;
}
/// Machine-node affinity hint for events scheduled in the current scope
/// (-1 = inherit the executing shard / host).
inline std::int32_t& scheduleNodeTls() {
  thread_local std::int32_t node = -1;
  return node;
}
}  // namespace detail

/// RAII: events scheduled in this scope belong to machine node `node` — the
/// sharded kernel routes them to that node's shard (a no-op when serial).
/// net::Machine wraps it around its cross-node schedule points.
class ScopedEventNode {
 public:
  explicit ScopedEventNode(std::int32_t node)
      : saved_(detail::scheduleNodeTls()) {
    detail::scheduleNodeTls() = node;
  }
  ~ScopedEventNode() { detail::scheduleNodeTls() = saved_; }
  ScopedEventNode(const ScopedEventNode&) = delete;
  ScopedEventNode& operator=(const ScopedEventNode&) = delete;

 private:
  std::int32_t saved_;
};

/// Hook interface for components that stage per-shard state during sharded
/// windows (net::Machine stages stats, traces and reserved-seq bookkeeping).
/// Register via Simulator::addShardParticipant.
class ShardParticipant {
 public:
  virtual ~ShardParticipant() = default;
  /// Sharded mode is being enabled. Throw to refuse (e.g. state that cannot
  /// be safely sharded, like a mutable fault model); enableSharded() rolls
  /// back and rethrows.
  virtual void onShardedEnable(const ShardLayout& layout) = 0;
  /// Window barrier (main thread, workers quiescent). `canon` maps a
  /// provisional sequence number to its canonical (serial) value; canonical
  /// inputs pass through unchanged. Remap any stored seqs and merge staged
  /// per-shard state here.
  virtual void onShardedBarrier(
      const std::function<std::uint64_t(std::uint64_t)>& canon) = 0;
  /// Sharded mode was disabled (also called by reset()).
  virtual void onShardedDisable() = 0;
};

class Simulator {
 public:
  using Callback = EventFn;

  /// Handle of a cancellable event: call cancel() (or set *handle = true) to
  /// retract it. A cancelled event is discarded without executing and —
  /// crucially — without advancing simulated time, so retracting a pending
  /// deadline leaves the timeline bit-identical to never scheduling it.
  /// Sharded runs may only cancel from the shard that scheduled the event
  /// (or from the host between windows).
  using EventHandle = std::shared_ptr<bool>;
  static void cancel(const EventHandle& h) {
    if (h) *h = true;
  }

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time: the executing shard's clock inside a shard
  /// window, the host clock otherwise.
  Time now() const {
    int s = detail::tlsShard();
    return (s >= 0 && sharded_) ? shards_[std::size_t(s)].clock : now_;
  }
  std::uint64_t eventsProcessed() const { return processed_; }
  /// Digest of the executed schedule: every event's (time, seq), folded in
  /// serial execution order (FNV-1a, one 64-bit word per step). A sharded
  /// run folds the same sequence — host events as the host drains them,
  /// window events in the barrier's replay order — so equal digests mean
  /// the same events ran at the same times in the same order. reset()
  /// restarts it.
  std::uint64_t scheduleDigest() const { return scheduleDigest_; }
  bool empty() const;
  /// Root tasks not yet reaped (live coroutine frames held by the kernel).
  std::size_t liveRoots() const { return roots_.size(); }

  /// Schedule `fn` at absolute simulated time `t` (must be >= now).
  void at(Time t, Callback fn);

  /// Schedule `fn` after a relative delay (>= 0).
  void after(Time delay, Callback fn) { at(now() + delay, std::move(fn)); }

  /// Reserve the next event sequence number without scheduling anything.
  /// Paired with atReserved(), this lets a caller that coalesces several
  /// logical events into one scheduled drain keep the exact (time, seq)
  /// order the uncoalesced schedule would have had. Inside a shard window
  /// the reservation is provisional (top bit set) and is exchanged for the
  /// serial-identical canonical value at the window barrier.
  std::uint64_t reserveSeq();

  /// The next unissued canonical sequence number (observability: atReserved()
  /// rejects canonical seqs at or beyond this).
  std::uint64_t nextSeq() const { return nextSeq_; }

  /// Schedule `fn` at (t, seq) where `seq` came from reserveSeq(). The
  /// reservation point — not this call — fixes the event's FIFO rank among
  /// same-time events.
  void atReserved(Time t, std::uint64_t seq, Callback fn);

  /// Cancellable forms of at()/after() (deadline timers that may be
  /// retracted by whichever signal wins a race).
  EventHandle atCancellable(Time t, Callback fn);
  EventHandle afterCancellable(Time delay, Callback fn) {
    return atCancellable(now() + delay, std::move(fn));
  }

  /// Resume a suspended coroutine after `delay`.
  void resumeAfter(Time delay, std::coroutine_handle<> h) {
    after(delay, [h] { h.resume(); });
  }

  /// Start a detached root task. The task frame is kept alive by the
  /// simulator and reaped (with exception propagation) during run().
  void spawn(Task task);

  /// Run until the event queue drains. Throws any exception raised by a
  /// root task. Returns the number of events processed by this call.
  std::uint64_t run();

  /// Run until the queue drains or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` are executed.
  std::uint64_t runUntil(Time deadline);

  /// Execute a single event if one is pending; returns false when idle.
  /// Serial mode only — a sharded kernel has no single "next event" until
  /// the window barrier resolves provisional order.
  bool step();

  /// Return the kernel to its just-constructed state: pending events are
  /// discarded unexecuted, live root-task frames are destroyed (their
  /// destructors run; no callbacks fire), and the clock, sequence counter,
  /// processed tally and schedule digest restart. Sharded mode, if enabled, is
  /// torn down (workers joined, participants notified) — sharding is a
  /// per-job opt-in, never ambient state a later job could inherit. The
  /// explicit arena-reuse audit point for workers that run many jobs on one
  /// Simulator (src/serve): a reset kernel is indistinguishable from a
  /// fresh one, so job results cannot depend on what ran before. Returns
  /// the number of pending *live* events plus live roots that were
  /// discarded (0 = the arena was already clean). Cancelled events anywhere
  /// in the queue — even buried under live ones, where purging cannot reach
  /// them — are retracted timers, not leaked work, and never count as dirty.
  std::size_t reset();

  // --- sharded (conservative-PDES) mode ------------------------------------

  /// Enter sharded mode. `layout` normally comes from verify::shardLayout(),
  /// whose shard families keep every node whole, so every pair bound is at
  /// least one link crossing; enableSharded() refuses any layout whose
  /// lookahead budget is not positive.
  /// `workers` (>= 1; capped at the shard count) worker threads execute
  /// shard windows. Throws if sharded mode is already on or if any
  /// registered participant refuses.
  void enableSharded(ShardLayout layout, int workers);

  /// Leave sharded mode: joins workers and notifies participants. All shard
  /// queues must be empty (run to completion first); throws otherwise.
  void disableSharded();

  bool shardedEnabled() const { return sharded_; }
  const ShardLayout* shardLayout() const {
    return sharded_ ? &layout_ : nullptr;
  }

  /// Shard that owns machine node `node` (-1 when serial).
  int shardOfNode(int node) const {
    return sharded_ ? layout_.shardOf(node) : -1;
  }

  /// Shard index of the window the calling thread is executing, -1 outside
  /// any window (host context).
  static int currentShard() { return detail::tlsShard(); }

  /// (time, raw seq) of the event the calling shard is executing — the
  /// emission key per-shard trace stages order their records by after the
  /// barrier canonicalizes the seq. Host context: (now, next canonical seq).
  std::pair<Time, std::uint64_t> currentExecKey() const {
    int s = detail::tlsShard();
    if (s >= 0 && sharded_) {
      const Shard& sh = shards_[std::size_t(s)];
      return {sh.clock, sh.execSeq};
    }
    return {now_, nextSeq_};
  }

  void addShardParticipant(ShardParticipant* p);
  void removeShardParticipant(ShardParticipant* p);

  /// Counters of the sharded run loop (windows executed, cross-shard mail
  /// delivered at barriers, events executed inside shard windows).
  struct ShardedStats {
    std::uint64_t windows = 0;
    std::uint64_t mailsDelivered = 0;
    std::uint64_t shardEvents = 0;
    std::uint64_t maxWindowEvents = 0;  ///< busiest single window
  };
  const ShardedStats& shardedStats() const { return shardedStats_; }

  /// Provisional-seq marker: sequence numbers issued inside a shard window
  /// carry this bit (and the issuing shard in bits [40, 63)). Raw uint64
  /// comparison keeps them ordered after every canonical seq, matching the
  /// serial order in which the barrier will canonicalize them.
  static constexpr std::uint64_t kProvBit = std::uint64_t(1) << 63;
  static constexpr int kProvShardShift = 40;

  /// Awaitable for `co_await simctx.delay(...)`-style use; see delay().
  struct DelayAwaiter {
    Simulator& sim;
    Time duration;
    bool await_ready() const noexcept { return duration <= 0; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.resumeAfter(duration, h);
    }
    void await_resume() const noexcept {}
  };

  /// `co_await sim.delay(ns(36))` suspends the current task for the given
  /// simulated duration.
  DelayAwaiter delay(Time duration) { return DelayAwaiter{*this, duration}; }

 private:
  /// Heap entries are deliberately trivial: the callback (and cancel flag)
  /// live in a slot arena off to the side, so every sift during push/pop
  /// moves 24 plain bytes instead of a type-erased capture. The heap order
  /// is exactly (t, seq) — the slot index is payload, never a key — so the
  /// indirection cannot perturb the schedule.
  struct Event {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  /// priority_queue with access to the backing vector: reset() sweeps the
  /// whole container (clearing keeps capacity for arena reuse), which a
  /// plain priority_queue cannot do; the sharded barrier remaps provisional
  /// seqs in place (an order-isomorphic rewrite, so the heap stays valid).
  struct EventQueue : std::priority_queue<Event, std::vector<Event>, Later> {
    std::vector<Event>& container() { return c; }
    const std::vector<Event>& container() const { return c; }
  };

  /// One parked callback; recycled through freeSlots (LIFO), so the slot
  /// arena stops growing once it covers the peak in-flight event count.
  struct Slot {
    Callback fn;
    EventHandle cancelled;  ///< null for ordinary (non-cancellable) events
  };

  /// One event queue plus its callback arena — the host has one, every
  /// shard has its own (touched only by the shard's window or by the main
  /// thread between windows).
  struct EventArena {
    EventQueue queue;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    /// Pending events that carry a cancel flag. Zero on the common path, so
    /// purging can skip the per-event slot lookup entirely.
    std::size_t liveCancellable = 0;

    std::uint32_t park(Callback fn, EventHandle cancelled);
    void release(std::uint32_t idx);
    bool slotCancelled(std::uint32_t idx) const {
      const EventHandle& c = slots[idx].cancelled;
      return c != nullptr && *c;
    }
  };

  /// A cross-shard message: scheduled on `srcShard` during a window,
  /// delivered into `destShard`'s queue at the barrier after its latency is
  /// checked against the pair's channel lookahead bound.
  struct Mail {
    Time t;
    std::uint64_t seq;  ///< provisional; canonicalized at delivery
    Time sentAt;        ///< source shard clock at the schedule point
    int srcShard;
    int destShard;
    Callback fn;
    EventHandle cancelled;
  };

  /// One executed event of a window: enough to replay the window's global
  /// execution order at the barrier. `reqBegin`/`reqCount` index the shard's
  /// reqSeqs — the provisional seqs this event's execution reserved, in
  /// reservation order (= the order the serial kernel would have issued
  /// canonical values).
  struct ExecRecord {
    std::uint64_t seqAtExec;
    Time t;
    std::uint32_t reqBegin;
    std::uint32_t reqCount;
  };

  struct Shard {
    EventArena arena;
    Time clock = 0;              ///< time of the last event this shard ran
    std::uint64_t execSeq = 0;   ///< raw seq of the executing event
    std::uint64_t provCounter = 0;  ///< per-window provisional issue count
    std::uint64_t windowProcessed = 0;
    std::vector<ExecRecord> execs;        ///< this window's executions
    std::vector<std::uint64_t> reqSeqs;   ///< this window's reservations
    std::vector<Mail> outbox;             ///< cross-shard sends this window
    std::vector<Task> stagedRoots;        ///< spawns from this shard's events
    std::exception_ptr error;             ///< rethrown at the barrier
  };

  /// Per-worker slab pools, owned by the Simulator so pooled objects
  /// outlive the worker threads that allocated them (thread_local pools die
  /// at thread exit while cross-shard packets still hold their slots).
  struct WorkerPoolSet {
    util::SlabPool packet{"packet.worker"};
    util::SlabPool payload{"payload.worker"};
    util::SlabPool taskFrame{"task-frame.worker"};
    util::SlabPool eventHandle{"event-handle.worker"};
  };

  static bool lexBefore(const Event& a, const Event& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  void foldSchedule(Time t, std::uint64_t seq) {
    scheduleDigest_ = (scheduleDigest_ ^ std::uint64_t(t)) * util::kFnvPrime;
    scheduleDigest_ = (scheduleDigest_ ^ seq) * util::kFnvPrime;
  }

  void purgeArena(EventArena& a);
  void reapRoots();
  bool stepHost();

  std::uint64_t provSeq(int shard);
  void shardedSchedule(Time t, std::uint64_t seq, bool haveSeq, Callback fn,
                       EventHandle cancelled);
  std::uint64_t hostDrain(Time deadline);
  void runShardWindow(std::size_t i);
  void runWindow();
  std::uint64_t shardedBarrier();
  std::uint64_t runSharded(Time deadline, bool hasDeadline);
  void crewMain(int worker);
  void stopCrew();
  void teardownSharded();

  Time now_ = 0;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t scheduleDigest_ = util::kFnvOffsetBasis;
  EventArena host_;
  std::vector<Task> roots_;

  // --- sharded state (empty/idle in serial mode) ---
  bool sharded_ = false;
  ShardLayout layout_;
  Time lookaheadPs_ = 0;  ///< global run-ahead budget (layout_.lookaheadPs())
  std::vector<Shard> shards_;
  std::vector<ShardParticipant*> participants_;
  ShardedStats shardedStats_;

  // Window publication (written by main between windows, read by workers).
  Time windowEnd_ = 0;
  Event hostCap_{};
  bool hostCapValid_ = false;

  // Worker crew: persistent threads handed one generation per window.
  std::vector<std::thread> crew_;
  std::vector<std::unique_ptr<WorkerPoolSet>> crewPools_;
  std::mutex crewMu_;
  std::condition_variable crewWork_;
  std::condition_variable crewDone_;
  std::uint64_t crewGeneration_ = 0;
  int crewRemaining_ = 0;
  bool crewStop_ = false;
  std::atomic<int> crewCursor_{0};
};

}  // namespace anton::sim
