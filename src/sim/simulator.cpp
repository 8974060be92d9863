#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace anton::sim {

namespace {
/// Completed root-task frames are reaped every this many events, so
/// long-running simulations (millions of MD-step events) don't accumulate
/// every finished coroutine frame until the queue drains.
constexpr std::uint64_t kReapInterval = 1024;

constexpr Time kNoDeadline = std::numeric_limits<Time>::max();
}  // namespace

// --- slot arena -------------------------------------------------------------

std::uint32_t Simulator::EventArena::park(Callback fn, EventHandle cancelled) {
  if (!freeSlots.empty()) {
    std::uint32_t idx = freeSlots.back();
    freeSlots.pop_back();
    slots[idx].fn = std::move(fn);
    slots[idx].cancelled = std::move(cancelled);
    return idx;
  }
  slots.push_back(Slot{std::move(fn), std::move(cancelled)});
  return std::uint32_t(slots.size() - 1);
}

void Simulator::EventArena::release(std::uint32_t idx) {
  slots[idx].fn = Callback{};
  if (slots[idx].cancelled) {
    slots[idx].cancelled.reset();
    --liveCancellable;
  }
  freeSlots.push_back(idx);
}

void Simulator::purgeArena(EventArena& a) {
  // Cancelled events are discarded unexecuted and leave the clock untouched:
  // a retracted deadline must not stretch the simulated timeline. With no
  // cancellable events pending there is nothing to purge — and no reason to
  // touch the slot arena per step.
  if (a.liveCancellable == 0) return;
  while (!a.queue.empty() && a.slotCancelled(a.queue.top().slot)) {
    a.release(a.queue.top().slot);
    a.queue.pop();
  }
}

// --- scheduling -------------------------------------------------------------

std::uint64_t Simulator::reserveSeq() {
  if (sharded_) {
    int s = detail::tlsShard();
    if (s >= 0) return provSeq(s);
  }
  return nextSeq_++;
}

std::uint64_t Simulator::provSeq(int shard) {
  Shard& sh = shards_[std::size_t(shard)];
  std::uint64_t seq = kProvBit |
                      (std::uint64_t(shard) << kProvShardShift) |
                      sh.provCounter++;
  // Every provisional seq is recorded against the event that reserved it;
  // the barrier replays execution order and hands these out canonical values
  // in exactly this order (the serial kernel's issue order).
  sh.reqSeqs.push_back(seq);
  return seq;
}

void Simulator::at(Time t, Callback fn) {
  if (sharded_) {
    shardedSchedule(t, 0, /*haveSeq=*/false, std::move(fn), nullptr);
    return;
  }
  if (t < now_) throw std::logic_error("Simulator::at: event scheduled in the past");
  std::uint32_t slot = host_.park(std::move(fn), nullptr);
  host_.queue.push(Event{t, nextSeq_++, slot});
}

void Simulator::atReserved(Time t, std::uint64_t seq, Callback fn) {
  if (sharded_) {
    shardedSchedule(t, seq, /*haveSeq=*/true, std::move(fn), nullptr);
    return;
  }
  if (t < now_)
    throw std::logic_error("Simulator::atReserved: event scheduled in the past");
  if (seq >= nextSeq_)
    throw std::logic_error("Simulator::atReserved: seq was not reserved");
  std::uint32_t slot = host_.park(std::move(fn), nullptr);
  host_.queue.push(Event{t, seq, slot});
}

Simulator::EventHandle Simulator::atCancellable(Time t, Callback fn) {
  EventHandle h = std::allocate_shared<bool>(
      util::PoolAllocator<bool>(eventHandlePool()), false);
  if (sharded_) {
    shardedSchedule(t, 0, /*haveSeq=*/false, std::move(fn), h);
    return h;
  }
  if (t < now_)
    throw std::logic_error("Simulator::atCancellable: event scheduled in the past");
  std::uint32_t slot = host_.park(std::move(fn), h);
  ++host_.liveCancellable;
  host_.queue.push(Event{t, nextSeq_++, slot});
  return h;
}

void Simulator::shardedSchedule(Time t, std::uint64_t seq, bool haveSeq,
                                Callback fn, EventHandle cancelled) {
  int self = detail::tlsShard();
  int node = detail::scheduleNodeTls();
  int dest = node >= 0 ? layout_.shardOf(node) : self;
  Time here = self >= 0 ? shards_[std::size_t(self)].clock : now_;
  if (t < here)
    throw std::logic_error("Simulator: event scheduled in the past");
  if (!haveSeq) {
    seq = self >= 0 ? provSeq(self) : nextSeq_++;
  } else if (seq & kProvBit) {
    int owner = int((seq & ~kProvBit) >> kProvShardShift);
    std::uint64_t counter = seq & ((std::uint64_t(1) << kProvShardShift) - 1);
    if (owner < 0 || owner >= int(shards_.size()) ||
        counter >= shards_[std::size_t(owner)].provCounter)
      throw std::logic_error("Simulator::atReserved: seq was not reserved");
  } else if (seq >= nextSeq_) {
    throw std::logic_error("Simulator::atReserved: seq was not reserved");
  }

  if (dest == self || self < 0) {
    // Same-shard (or host-context) schedule: push directly. The host owns
    // every queue between windows, so a host-side event with a node hint
    // lands straight in the owning shard's queue with a canonical seq.
    EventArena& a = dest < 0 ? host_ : shards_[std::size_t(dest)].arena;
    bool cancellable = cancelled != nullptr;
    std::uint32_t slot = a.park(std::move(fn), std::move(cancelled));
    if (cancellable) ++a.liveCancellable;
    a.queue.push(Event{t, seq, slot});
    return;
  }
  // Worker-context cross-shard send: stage in the outbox; the barrier
  // checks the channel-lookahead bound and delivers with the canonical seq.
  shards_[std::size_t(self)].outbox.push_back(
      Mail{t, seq, here, self, dest, std::move(fn), std::move(cancelled)});
}

void Simulator::spawn(Task task) {
  int s = detail::tlsShard();
  if (sharded_ && s >= 0) {
    // Spawn from inside a shard window: the task starts now (serial spawn
    // semantics), but its frame is staged per shard and adopted by the main
    // root list at the barrier — reaping is a host-only affair.
    Shard& sh = shards_[std::size_t(s)];
    sh.stagedRoots.push_back(std::move(task));
    sh.stagedRoots.back().startDetached();
    return;
  }
  roots_.push_back(std::move(task));
  roots_.back().startDetached();
  reapRoots();
}

void Simulator::reapRoots() {
  for (auto it = roots_.begin(); it != roots_.end();) {
    if (it->done()) {
      it->rethrowIfFailed();
      it = roots_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- serial execution -------------------------------------------------------

bool Simulator::stepHost() {
  purgeArena(host_);
  if (host_.queue.empty()) return false;
  Event ev = host_.queue.top();
  host_.queue.pop();
  // Move the callback out before running it: the callback may itself
  // schedule events, reusing (or growing) the slot arena.
  Callback fn = std::move(host_.slots[ev.slot].fn);
  host_.release(ev.slot);
  now_ = ev.t;
  ++processed_;
  foldSchedule(ev.t, ev.seq);
  fn();
  return true;
}

bool Simulator::step() {
  if (sharded_)
    throw std::logic_error(
        "Simulator::step: no single next event under the sharded kernel "
        "(provisional order resolves at the window barrier); use run()");
  return stepHost();
}

std::uint64_t Simulator::run() {
  if (sharded_) return runSharded(0, /*hasDeadline=*/false);
  std::uint64_t n = 0;
  while (stepHost()) {
    if (++n % kReapInterval == 0) reapRoots();
  }
  reapRoots();
  return n;
}

std::uint64_t Simulator::runUntil(Time deadline) {
  if (sharded_) return runSharded(deadline, /*hasDeadline=*/true);
  std::uint64_t n = 0;
  while (true) {
    purgeArena(host_);
    if (host_.queue.empty() || host_.queue.top().t > deadline) break;
    stepHost();
    if (++n % kReapInterval == 0) reapRoots();
  }
  if (now_ < deadline) now_ = deadline;
  reapRoots();
  return n;
}

bool Simulator::empty() const {
  if (!host_.queue.empty()) return false;
  for (const Shard& sh : shards_)
    if (!sh.arena.queue.empty() || !sh.outbox.empty()) return false;
  return true;
}

std::size_t Simulator::reset() {
  // Sweep the WHOLE queue, not just the purgeable top: a retracted deadline
  // buried under a live event is discarded-but-clean, and counting it would
  // trip the serve layer's arenaDirtyResets == 0 audit with a false leak.
  std::size_t discarded = roots_.size();
  auto sweep = [&](EventArena& a) {
    for (const Event& ev : a.queue.container()) {
      if (!a.slotCancelled(ev.slot)) ++discarded;
      a.release(ev.slot);
    }
    a.queue.container().clear();  // capacity is retained for arena reuse
  };
  sweep(host_);
  if (sharded_) {
    for (Shard& sh : shards_) {
      sweep(sh.arena);
      for (const Mail& m : sh.outbox)
        if (!m.cancelled || !*m.cancelled) ++discarded;
      sh.outbox.clear();
      discarded += sh.stagedRoots.size();
      sh.stagedRoots.clear();
    }
    teardownSharded();
  }
  // Destroying a suspended root unwinds its frame without resuming it; any
  // events it scheduled are already gone with the queue.
  roots_.clear();
  now_ = 0;
  nextSeq_ = 0;
  processed_ = 0;
  scheduleDigest_ = util::kFnvOffsetBasis;
  return discarded;
}

// --- sharded mode -----------------------------------------------------------

Simulator::~Simulator() {
  // Join workers before members are torn down. Participants are NOT
  // notified: a component outliving its Simulator is already dangling.
  stopCrew();
}

void Simulator::addShardParticipant(ShardParticipant* p) {
  participants_.push_back(p);
}

void Simulator::removeShardParticipant(ShardParticipant* p) {
  participants_.erase(
      std::remove(participants_.begin(), participants_.end(), p),
      participants_.end());
}

void Simulator::enableSharded(ShardLayout layout, int workers) {
  if (sharded_)
    throw std::logic_error("Simulator::enableSharded: sharded mode already on");
  if (workers < 1)
    throw std::invalid_argument(
        "Simulator::enableSharded: workers must be >= 1");
  if (layout.numShards < 1)
    throw std::invalid_argument("Simulator::enableSharded: numShards must be >= 1");
  if (layout.shardOfNode.empty())
    throw std::invalid_argument(
        "Simulator::enableSharded: layout maps no nodes to shards");
  for (int s : layout.shardOfNode)
    if (s < 0 || s >= layout.numShards)
      throw std::invalid_argument(
          "Simulator::enableSharded: node mapped outside [0, numShards)");
  Time cap = layout.lookaheadPs();
  if (cap <= 0)
    throw std::invalid_argument(
        "Simulator::enableSharded: sharding '" + layout.name +
        "' has a non-positive lookahead budget; a conservative kernel "
        "cannot run ahead at all");

  layout_ = std::move(layout);
  lookaheadPs_ = cap;
  shards_.clear();
  shards_.resize(std::size_t(layout_.numShards));
  shardedStats_ = {};
  hostCapValid_ = false;
  sharded_ = true;

  std::size_t enabled = 0;
  try {
    for (; enabled < participants_.size(); ++enabled)
      participants_[enabled]->onShardedEnable(layout_);
  } catch (...) {
    for (std::size_t i = 0; i < enabled; ++i)
      participants_[i]->onShardedDisable();
    sharded_ = false;
    shards_.clear();
    layout_ = {};
    lookaheadPs_ = 0;
    throw;
  }

  int w = std::min(workers, layout_.numShards);
  while (crewPools_.size() < std::size_t(w))
    crewPools_.push_back(std::make_unique<WorkerPoolSet>());
  {
    std::lock_guard<std::mutex> lk(crewMu_);
    crewStop_ = false;
    crewGeneration_ = 0;
    crewRemaining_ = 0;
  }
  for (int i = 0; i < w; ++i) crew_.emplace_back([this, i] { crewMain(i); });
}

void Simulator::disableSharded() {
  if (!sharded_)
    throw std::logic_error("Simulator::disableSharded: sharded mode is off");
  for (const Shard& sh : shards_)
    if (!sh.arena.queue.empty() || !sh.outbox.empty())
      throw std::logic_error(
          "Simulator::disableSharded: shard events still pending (run to "
          "completion, or reset(), first)");
  teardownSharded();
}

void Simulator::teardownSharded() {
  stopCrew();
  // Hand the per-worker pools back to the main thread and fold in any
  // remotely-freed slots: the worker threads are gone, so nobody else will
  // drain them. The pool sets themselves stay alive for the Simulator's
  // lifetime — pooled objects (packets parked in machine state, coroutine
  // frames) may outlive the sharded episode that allocated them.
  for (auto& ps : crewPools_) {
    for (util::SlabPool* p : {&ps->packet, &ps->payload, &ps->taskFrame,
                              &ps->eventHandle}) {
      p->setOwner(std::this_thread::get_id());
      p->drainRemote();
    }
  }
  for (ShardParticipant* p : participants_) p->onShardedDisable();
  shards_.clear();
  layout_ = {};
  lookaheadPs_ = 0;
  sharded_ = false;
  hostCapValid_ = false;
}

void Simulator::stopCrew() {
  if (crew_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(crewMu_);
    crewStop_ = true;
  }
  crewWork_.notify_all();
  for (std::thread& t : crew_) t.join();
  crew_.clear();
}

void Simulator::crewMain(int worker) {
  // Adopt this worker's Simulator-owned pools: pooled objects allocated
  // here can outlive the thread, and cross-shard frees route back through
  // the header's origin pointer onto the pool's remote stack.
  WorkerPoolSet& ps = *crewPools_[std::size_t(worker)];
  util::PoolOverrides& o = util::poolOverrides();
  o.packet = &ps.packet;
  o.payload = &ps.payload;
  o.taskFrame = &ps.taskFrame;
  o.eventHandle = &ps.eventHandle;
  for (util::SlabPool* p :
       {&ps.packet, &ps.payload, &ps.taskFrame, &ps.eventHandle})
    p->setOwner(std::this_thread::get_id());

  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(crewMu_);
      crewWork_.wait(lk, [&] { return crewStop_ || crewGeneration_ != seen; });
      if (crewStop_) return;
      seen = crewGeneration_;
    }
    int i;
    while ((i = crewCursor_.fetch_add(1, std::memory_order_relaxed)) <
           int(shards_.size())) {
      try {
        runShardWindow(std::size_t(i));
      } catch (...) {
        shards_[std::size_t(i)].error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lk(crewMu_);
      if (--crewRemaining_ == 0) crewDone_.notify_one();
    }
  }
}

void Simulator::runWindow() {
  {
    std::lock_guard<std::mutex> lk(crewMu_);
    crewCursor_.store(0, std::memory_order_relaxed);
    crewRemaining_ = int(crew_.size());
    ++crewGeneration_;
  }
  crewWork_.notify_all();
  {
    std::unique_lock<std::mutex> lk(crewMu_);
    crewDone_.wait(lk, [&] { return crewRemaining_ == 0; });
  }
}

void Simulator::runShardWindow(std::size_t i) {
  Shard& sh = shards_[i];
  detail::tlsShard() = int(i);
  struct Restore {
    ~Restore() { detail::tlsShard() = -1; }
  } restore;

  while (true) {
    purgeArena(sh.arena);
    EventQueue& q = sh.arena.queue;
    if (q.empty()) break;
    Event ev = q.top();
    // The committed run-ahead budget: nothing at or beyond the window edge
    // executes until the barrier has delivered this window's mail. A shard
    // that exhausts its window BLOCKS here — it never races ahead.
    if (ev.t >= windowEnd_) break;
    // Host fence: the host queue is serviced between windows, so no shard
    // may overtake the host's next event in (t, seq) order. Raw uint64
    // comparison is correct for provisional seqs: they order after every
    // canonical seq, exactly where their canonical values will land.
    if (hostCapValid_ && !lexBefore(ev, hostCap_)) break;
    q.pop();
    Callback fn = std::move(sh.arena.slots[ev.slot].fn);
    sh.arena.release(ev.slot);
    sh.clock = ev.t;
    sh.execSeq = ev.seq;
    std::uint32_t idx = std::uint32_t(sh.execs.size());
    sh.execs.push_back(
        {ev.seq, ev.t, std::uint32_t(sh.reqSeqs.size()), 0});
    ++sh.windowProcessed;
    fn();
    sh.execs[idx].reqCount =
        std::uint32_t(sh.reqSeqs.size()) - sh.execs[idx].reqBegin;
  }
}

std::uint64_t Simulator::hostDrain(Time deadline) {
  std::uint64_t n = 0;
  while (true) {
    purgeArena(host_);
    if (host_.queue.empty()) break;
    Event ev = host_.queue.top();
    if (ev.t > deadline) break;
    // The host may execute only while it holds the global (t, seq) minimum;
    // otherwise the next window must run the leading shard first.
    bool shardLeads = false;
    for (Shard& sh : shards_) {
      purgeArena(sh.arena);
      if (!sh.arena.queue.empty() && lexBefore(sh.arena.queue.top(), ev)) {
        shardLeads = true;
        break;
      }
    }
    if (shardLeads) break;
    host_.queue.pop();
    Callback fn = std::move(host_.slots[ev.slot].fn);
    host_.release(ev.slot);
    now_ = ev.t;
    ++processed_;
    ++n;
    foldSchedule(ev.t, ev.seq);
    fn();
  }
  return n;
}

std::uint64_t Simulator::runSharded(Time deadline, bool hasDeadline) {
  std::uint64_t n = 0;
  const Time dl = hasDeadline ? deadline : kNoDeadline;
  while (true) {
    std::uint64_t hostRan = hostDrain(dl);
    n += hostRan;

    bool any = false;
    Time m = 0;
    if (!host_.queue.empty()) {
      m = host_.queue.top().t;
      any = true;
    }
    for (Shard& sh : shards_) {
      purgeArena(sh.arena);
      if (!sh.arena.queue.empty()) {
        Time t = sh.arena.queue.top().t;
        if (!any || t < m) {
          m = t;
          any = true;
        }
      }
    }
    if (!any) break;
    if (hasDeadline && m > deadline) break;

    windowEnd_ = m > kNoDeadline - lookaheadPs_ ? kNoDeadline
                                                : m + lookaheadPs_;
    // Events at exactly the deadline still execute (strict < windowEnd_).
    if (hasDeadline && windowEnd_ > deadline) windowEnd_ = deadline + 1;
    hostCapValid_ = !host_.queue.empty();
    if (hostCapValid_) hostCap_ = host_.queue.top();

    runWindow();
    std::uint64_t windowRan = shardedBarrier();
    n += windowRan;
    ++shardedStats_.windows;
    if (hostRan == 0 && windowRan == 0)
      throw std::logic_error(
          "Simulator: sharded window made no progress (lookahead budget "
          "cannot advance any shard clock)");
  }
  if (hasDeadline) {
    if (now_ < deadline) now_ = deadline;
  } else {
    for (const Shard& sh : shards_) now_ = std::max(now_, sh.clock);
  }
  reapRoots();
  return n;
}

std::uint64_t Simulator::shardedBarrier() {
  // An exception that escaped a shard window poisons the run: rethrow the
  // first (by shard index) and leave the kernel for reset(), exactly like a
  // serial run that threw mid-queue.
  for (Shard& sh : shards_) {
    if (sh.error) {
      std::exception_ptr e = sh.error;
      sh.error = nullptr;
      std::rethrow_exception(e);
    }
  }

  // 1) Replay canonicalization. Seed a min-heap with every executed event
  // that already had a canonical seq; popping (t, seq) minima visits the
  // window's executions in exactly the serial kernel's order, so assigning
  // nextSeq_ to their recorded reservations in pop order reproduces the
  // serial issue order bit for bit — and folding each popped (t, seq) into
  // the schedule digest matches what the serial kernel folds. Provisional
  // executions enter the heap the moment their own seq is canonicalized
  // (their scheduler always pops first — it executed earlier in serial
  // order).
  struct PQE {
    Time t;
    std::uint64_t seq;
    int shard;
    std::uint32_t idx;
  };
  struct PQLater {
    bool operator()(const PQE& a, const PQE& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  std::priority_queue<PQE, std::vector<PQE>, PQLater> pq;
  std::unordered_map<std::uint64_t, std::pair<int, std::uint32_t>> provExec;
  std::size_t totalExec = 0;
  for (int s = 0; s < int(shards_.size()); ++s) {
    Shard& sh = shards_[std::size_t(s)];
    totalExec += sh.execs.size();
    for (std::uint32_t i = 0; i < std::uint32_t(sh.execs.size()); ++i) {
      const ExecRecord& r = sh.execs[i];
      if (r.seqAtExec & kProvBit)
        provExec.emplace(r.seqAtExec, std::make_pair(s, i));
      else
        pq.push({r.t, r.seqAtExec, s, i});
    }
  }
  std::unordered_map<std::uint64_t, std::uint64_t> canon;
  std::size_t popped = 0;
  while (!pq.empty()) {
    PQE e = pq.top();
    pq.pop();
    ++popped;
    foldSchedule(e.t, e.seq);
    const ExecRecord& r = shards_[std::size_t(e.shard)].execs[e.idx];
    for (std::uint32_t k = 0; k < r.reqCount; ++k) {
      std::uint64_t prov =
          shards_[std::size_t(e.shard)].reqSeqs[r.reqBegin + k];
      std::uint64_t c = nextSeq_++;
      canon.emplace(prov, c);
      if (auto it = provExec.find(prov); it != provExec.end()) {
        const ExecRecord& pr =
            shards_[std::size_t(it->second.first)].execs[it->second.second];
        pq.push({pr.t, c, it->second.first, it->second.second});
      }
    }
  }
  if (popped != totalExec)
    throw std::logic_error(
        "Simulator: window replay failed to order every executed event "
        "(an executed provisional seq was never canonicalized)");

  auto canonOf = [&canon](std::uint64_t s) -> std::uint64_t {
    if (!(s & kProvBit)) return s;
    auto it = canon.find(s);
    if (it == canon.end())
      throw std::logic_error("Simulator: unresolved provisional seq");
    return it->second;
  };

  // 2) Remap unexecuted events still parked in shard queues. Per shard,
  // provisional issue order equals canonical relative order, and every
  // canonical value exceeds every pre-window seq — the in-place rewrite is
  // order-isomorphic and the heap invariant survives untouched.
  for (Shard& sh : shards_) {
    for (Event& ev : sh.arena.queue.container())
      if (ev.seq & kProvBit) ev.seq = canonOf(ev.seq);
  }

  // 3) Deliver cross-shard mail, enforcing the committed channel-lookahead
  // contract per shard pair. These throws are the "refuse loudly" edge: a
  // message faster than its pair's bound (or between shards the layout
  // never proved adjacent) means the sharding's safety proof did not cover
  // this schedule.
  for (Shard& src : shards_) {
    for (Mail& m : src.outbox) {
      std::uint64_t c = canonOf(m.seq);
      Time bound = layout_.pairBound(m.srcShard, m.destShard);
      if (bound < 0)
        throw std::runtime_error(
            "sharded.lookahead: message between shards " +
            std::to_string(m.srcShard) + " and " + std::to_string(m.destShard) +
            " of sharding '" + layout_.name +
            "', which the layout holds no channel bound for");
      if (m.t - m.sentAt < bound)
        throw std::runtime_error(
            "sharded.lookahead: cross-shard message " +
            std::to_string(m.srcShard) + "->" + std::to_string(m.destShard) +
            " arrived after " + std::to_string(toNs(m.t - m.sentAt)) +
            " ns, below the pair's channel bound of " +
            std::to_string(toNs(bound)) + " ns");
      if (m.t < windowEnd_)
        throw std::logic_error(
            "sharded.lookahead: cross-shard message lands inside the window "
            "that sent it");
      Shard& dst = shards_[std::size_t(m.destShard)];
      bool cancellable = m.cancelled != nullptr;
      std::uint32_t slot = dst.arena.park(std::move(m.fn), std::move(m.cancelled));
      if (cancellable) ++dst.arena.liveCancellable;
      dst.arena.queue.push(Event{m.t, c, slot});
      ++shardedStats_.mailsDelivered;
    }
    src.outbox.clear();
  }

  // 4) Participants remap their stored seqs (net::Machine's reserved link
  // arrivals) and fold staged per-shard state (stats, traces).
  std::function<std::uint64_t(std::uint64_t)> canonFn = canonOf;
  for (ShardParticipant* p : participants_) p->onShardedBarrier(canonFn);

  // 5) Adopt staged spawns, fold counters, reset per-window staging.
  std::uint64_t windowEvents = 0;
  for (Shard& sh : shards_) {
    for (Task& t : sh.stagedRoots) roots_.push_back(std::move(t));
    sh.stagedRoots.clear();
    windowEvents += sh.windowProcessed;
    processed_ += sh.windowProcessed;
    sh.windowProcessed = 0;
    sh.execs.clear();
    sh.reqSeqs.clear();
    sh.provCounter = 0;
  }
  shardedStats_.shardEvents += windowEvents;
  shardedStats_.maxWindowEvents =
      std::max(shardedStats_.maxWindowEvents, windowEvents);
  reapRoots();
  return windowEvents;
}

}  // namespace anton::sim
