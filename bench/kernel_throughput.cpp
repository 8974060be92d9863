// Event-kernel throughput and invariants of the zero-allocation hot path.
//
// Two workload shapes from the paper's experiments drive the kernel:
//
//   ping       Fig. 5-style counted remote writes across 1-4 x-hops on an
//              8x8x8 torus, 256 B payloads — the latency path.
//   allreduce  the 8x8x8 (512-node) dimension-ordered all-reduce of
//              Table 2 — the throughput path (thousands of in-flight
//              packets, deep event queue).
//
// The kernel runs them on slab pools, 64 B inline event captures and
// batched per-link drains. Each run's schedule digest (final clock, event
// count, traffic counters, and for the all-reduce the reduced values) must
// equal a committed constant, so any change to the simulated schedule is
// caught.
//
// A global operator new/delete override counts every heap allocation; the
// measured windows run after a warmup so pools and vector capacities are
// hot. Self-checks (exit 1): both schedule digests must equal their pins,
// and the ping steady state must make ZERO allocations.
//
// A second axis measures the sharded parallel kernel: the Fig. 5 ping,
// quickstart-MD and Table-3 MD (8x8x8, 23,558 atoms, 4 workers) shapes run
// serial-vs-sharded (slab-x layout from the torus, worker threads on) and
// the sharded schedule digest must equal the serial one — same
// bit-identity contract determinism_test gates, priced here in wall-clock.
//
// Gated metrics (tools/check_perf_trajectory.py):
//   ping_zero_alloc_steady     1.0 = no allocation in the measured window
//   schedule_match             1.0 = ping and all-reduce digests equal
//                              their committed constants
//   sharded_schedule_match     1.0 = sharded == serial schedule digests
//                              (ping, quickstart-MD and Table-3 MD)
//   machine_build_alloc_bounded
//                              1.0 = Machine build+free allocations are
//                              node-count independent and bounded
// A third axis prices erasure recovery on the happy path: the quickstart-MD
// step runs with recovery armed at the serve defaults and no faults, and
// its heap allocations per step must stay within 1.1x of the disarmed
// step's (exit 1 otherwise). An armed wait the counter beats should cost a
// parked deadline, not a diagnosis. The ratio is recorded informationally
// (md_armed_alloc_ratio); the allocation counts are deterministic.
// A fourth axis bounds Machine construction: building and freeing a 4x4x4
// and an 8x8x8 Machine must make the same number of heap allocations, at
// most kMachineBuildAllocBound (exit 1 otherwise), because nodes and their
// clients live in flat storage built on first touch
// (machine_build_alloc_bounded).
// Raw events/sec, packets/sec, allocs/event and the sharded speedups are
// host-dependent and recorded informationally (measured against
// themselves).
#include "bench_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "core/allreduce.hpp"
#include "md/anton_app.hpp"
#include "md/system.hpp"
#include "serve/job_spec.hpp"
#include "util/json.hpp"
#include "util/torus_coord.hpp"
#include "verify/lookahead.hpp"

namespace {
// Every operator new since process start. Atomic: the sharded kernel's
// worker threads allocate too, and a torn counter would corrupt the
// windowed deltas (and race under TSan).
std::atomic<std::uint64_t> g_allocs{0};
}

// --- counting allocator hook ------------------------------------------------
// Replacing the global allocation functions makes every heap allocation in
// the process observable; the bench reads windowed deltas of g_allocs.

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::size_t(a), n != 0 ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace anton;

namespace {

struct RunStats {
  double wallSec = 0.0;
  std::uint64_t events = 0;   ///< kernel events in the measured window
  std::uint64_t packets = 0;  ///< packets injected in the measured window
  std::uint64_t allocs = 0;   ///< operator new calls in the measured window
  std::uint64_t digest = 0;   ///< schedule digest

  double eventsPerSec() const { return double(events) / wallSec; }
  double packetsPerSec() const { return double(packets) / wallSec; }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t scheduleDigest(sim::Simulator& sim, net::Machine& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, std::uint64_t(sim.now()));
  h = mix(h, sim.eventsProcessed());
  const net::MachineStats& s = m.stats();
  h = mix(h, s.packetsInjected);
  h = mix(h, s.packetsDelivered);
  h = mix(h, s.linkTraversals);
  h = mix(h, s.wireBytes);
  h = mix(h, s.multicastForks);
  return h;
}

/// Pinned schedule digests of runPing(kPingWarmup, kPingIters) and
/// runAllReduce(kArWarmup, kArRounds) (constants in main()). They move only
/// when the simulated schedule moves; refresh them only in a change that
/// means to move it, and say so.
constexpr std::uint64_t kPingScheduleDigest = 0xcaa404cf86fe898cULL;
constexpr std::uint64_t kAllReduceScheduleDigest = 0xc001edce764d6e63ULL;

/// Worker-thread count for the sharded runs (matches the serve runner).
constexpr int kShardWorkers = 3;
/// Worker-thread count for the Table-3 MD run: the shape the sharded kernel
/// was kept for, measured with 4 workers.
constexpr int kTable3Workers = 4;

/// slab-x layout over `shape` from the torus — the same construction the
/// serve runner and the sharded determinism tests use.
sim::ShardLayout slabLayout(util::TorusShape shape) {
  return anton::verify::shardLayout(shape, anton::verify::ShardFamily::kSlabX);
}

/// Fig. 5-shaped ping: counted 256 B remote writes to x-neighbors 1-4 hops
/// out. One probe per iteration; `warmup` iterations heat pools and vector
/// capacities before the `iters` measured ones. With a layout the probes
/// run on the sharded kernel (slab-x, worker threads on).
RunStats runPing(int warmup, int iters,
                 const sim::ShardLayout* layout = nullptr) {
  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  if (layout != nullptr) sim.enableSharded(*layout, kShardWorkers);
  auto probe = [&](int i) {
    int hops = 1 + (i % 4);
    net::ClientAddr dst{util::torusIndex({hops, 0, 0}, m.shape()),
                        net::kSlice0};
    (void)net::oneWayLatencyNs(m, {0, net::kSlice0}, dst,
                               /*payloadBytes=*/256);
  };
  for (int i = 0; i < warmup; ++i) probe(i);

  RunStats out;
  std::uint64_t ev0 = sim.eventsProcessed();
  std::uint64_t pk0 = m.stats().packetsInjected;
  std::uint64_t al0 = g_allocs.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) probe(i);
  out.wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (layout != nullptr) sim.disableSharded();
  out.events = sim.eventsProcessed() - ev0;
  out.packets = m.stats().packetsInjected - pk0;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - al0;
  out.digest = scheduleDigest(sim, m);
  return out;
}

/// An MD shape for the sharded axis. Recovery stays disarmed (the
/// AntonMdConfig default) in both modes so serial and sharded run the
/// identical configuration (the drop registry is the one cross-shard
/// mutable fault object the sharded kernel refuses).
struct MdWorkload {
  util::TorusShape shape;
  int atoms = 0;
  anton::md::AntonMdConfig cfg;
};

/// The quickstart-MD shape: 4x4x4 torus, 1536 synthetic atoms.
MdWorkload quickstartMd() {
  MdWorkload w{{4, 4, 4}, 1536, {}};
  w.cfg.force.cutoff = 2.2;
  w.cfg.ewald.grid = 16;
  w.cfg.homeBoxMarginFrac = 0.10;
  return w;
}

/// quickstartMd() with erasure recovery armed at the serve defaults and no
/// fault model: every counted wait parks a deadline the counter beats.
MdWorkload quickstartMdArmed() {
  MdWorkload w = quickstartMd();
  const serve::JobSpec defaults;
  w.cfg.recoveryTimeoutUs = defaults.recoveryTimeoutUs;
  w.cfg.recoveryMaxResends = defaults.recoveryMaxResends;
  w.cfg.recoveryBackoffUs = defaults.recoveryBackoffUs;
  return w;
}

/// The Table-3 MD step: 8x8x8 torus, 23,558 atoms, table3_comm_time's
/// full-size configuration.
MdWorkload table3Md() {
  MdWorkload w{{8, 8, 8}, 23558, {}};
  w.cfg.force.cutoff = 2.6;
  w.cfg.ewald.grid = 32;
  w.cfg.thermostatTau = 0.05;
  w.cfg.thermostatInterval = 2;
  w.cfg.longRangeInterval = 2;
  w.cfg.migrationInterval = 100;
  w.cfg.homeBoxMarginFrac = 0.08;
  return w;
}

/// `warmup` supersteps to heat pools, then `steps` measured ones; sharded
/// runs use the slab-x layout with `workers` threads.
RunStats runMd(const MdWorkload& w, bool sharded, int workers, int warmup,
               int steps) {
  sim::Simulator sim;
  net::Machine m(sim, w.shape);
  anton::md::SyntheticSystemParams sp;
  sp.targetAtoms = w.atoms;
  sp.seed = 2010;
  anton::md::AntonMdApp app(m, anton::md::buildSyntheticSystem(sp), w.cfg);
  if (sharded) sim.enableSharded(slabLayout(m.shape()), workers);
  app.runSteps(warmup);

  RunStats out;
  std::uint64_t ev0 = sim.eventsProcessed();
  std::uint64_t pk0 = m.stats().packetsInjected;
  std::uint64_t al0 = g_allocs.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  app.runSteps(steps);
  out.wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (sharded) sim.disableSharded();
  out.events = sim.eventsProcessed() - ev0;
  out.packets = m.stats().packetsInjected - pk0;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - al0;
  out.digest = scheduleDigest(sim, m);
  return out;
}

/// Table 2's largest common shape: 512-node dimension-ordered all-reduce,
/// 4 doubles per node. Each round spawns one task per node and drains.
RunStats runAllReduce(int warmupRounds, int rounds) {
  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  core::DimOrderedAllReduce red(m);
  std::vector<double> sum;
  auto round = [&] {
    for (int n = 0; n < m.numNodes(); ++n) {
      std::vector<double> in{double(n), 1.0, 2.0, 3.0};
      sim.spawn(red.run(n, std::move(in), n == 0 ? &sum : nullptr));
    }
    sim.run();
  };
  for (int r = 0; r < warmupRounds; ++r) round();

  RunStats out;
  std::uint64_t ev0 = sim.eventsProcessed();
  std::uint64_t pk0 = m.stats().packetsInjected;
  std::uint64_t al0 = g_allocs.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) round();
  out.wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.events = sim.eventsProcessed() - ev0;
  out.packets = m.stats().packetsInjected - pk0;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - al0;
  out.digest = scheduleDigest(sim, m);
  for (double v : sum) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    out.digest = mix(out.digest, bits);
  }
  return out;
}

/// Most heap allocations building and freeing one Machine may make, whatever
/// its node count: a handful of flat per-machine arrays.
constexpr std::uint64_t kMachineBuildAllocBound = 8;

/// Heap allocations across building and freeing one Machine of `shape` on a
/// fresh simulator, with no traffic (so no node is ever touched).
std::uint64_t machineBuildAllocs(util::TorusShape shape) {
  sim::Simulator sim;
  std::uint64_t al0 = g_allocs.load(std::memory_order_relaxed);
  { net::Machine m(sim, shape); }
  return g_allocs.load(std::memory_order_relaxed) - al0;
}

/// Best-of-N wall clock for two modes, interleaved: each repetition runs
/// mode false then mode true back to back. The simulated work is
/// deterministic, so the minimum is the repeat least disturbed by host
/// noise, and a load spike must hit the SAME mode in every repetition to
/// bias the ratio between them.
template <typename F>
std::pair<RunStats, RunStats> bestOfPaired(int reps, F&& runMode) {
  std::pair<RunStats, RunStats> best{runMode(false), runMode(true)};
  for (int r = 1; r < reps; ++r) {
    RunStats off = runMode(false);
    RunStats on = runMode(true);
    if (off.wallSec < best.first.wallSec) best.first = off;
    if (on.wallSec < best.second.wallSec) best.second = on;
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("Event-kernel throughput and hot-path invariants");

  constexpr int kPingWarmup = 500, kPingIters = 12000;
  constexpr int kArWarmup = 1, kArRounds = 2;
  constexpr int kShardReps = 3;
  constexpr int kShardPingWarmup = 100, kShardPingIters = 2000;
  constexpr int kMdWarmup = 1, kMdSteps = 2;
  constexpr int kTable3Warmup = 1, kTable3Steps = 1;
  // The allocation comparison warms up over one full long-range and
  // thermostat cycle (both every other step), so first-use growth of
  // per-wait bookkeeping stays out of the measured steps.
  constexpr int kAllocWarmup = 2, kAllocSteps = 2;
  constexpr double kArmedAllocSlack = 1.1;

  RunStats ping = runPing(kPingWarmup, kPingIters);
  RunStats ar = runAllReduce(kArWarmup, kArRounds);

  // Serial-vs-sharded walls: Fig. 5 ping and quickstart-MD.
  sim::ShardLayout pingLayout = slabLayout({8, 8, 8});
  auto [pingSerial, pingSharded] =
      bestOfPaired(kShardReps, [&](bool sharded) {
        return runPing(kShardPingWarmup, kShardPingIters,
                       sharded ? &pingLayout : nullptr);
      });
  auto [mdSerial, mdSharded] = bestOfPaired(kShardReps, [&](bool sharded) {
    return runMd(quickstartMd(), sharded, kShardWorkers, kMdWarmup, kMdSteps);
  });
  // One pair only: a Table-3 step is seconds of host time per side.
  auto [t3Serial, t3Sharded] = bestOfPaired(1, [&](bool sharded) {
    return runMd(table3Md(), sharded, kTable3Workers, kTable3Warmup,
                 kTable3Steps);
  });

  // Armed vs disarmed quickstart-MD heap allocations, serial, one run each.
  RunStats mdDisarmed =
      runMd(quickstartMd(), false, kShardWorkers, kAllocWarmup, kAllocSteps);
  RunStats mdArmed = runMd(quickstartMdArmed(), false, kShardWorkers,
                           kAllocWarmup, kAllocSteps);
  double disarmedAllocsPerStep = double(mdDisarmed.allocs) / kAllocSteps;
  double armedAllocsPerStep = double(mdArmed.allocs) / kAllocSteps;
  double armedAllocRatio = armedAllocsPerStep / disarmedAllocsPerStep;
  bool armedAllocsBounded =
      armedAllocsPerStep <= kArmedAllocSlack * disarmedAllocsPerStep;

  // Machine build+free allocations must not depend on the node count.
  std::uint64_t buildAllocsSmall = machineBuildAllocs({4, 4, 4});
  std::uint64_t buildAllocsLarge = machineBuildAllocs({8, 8, 8});
  bool buildAllocsBounded = buildAllocsSmall == buildAllocsLarge &&
                            buildAllocsLarge <= kMachineBuildAllocBound;

  double pingShardedSpeedup =
      pingSharded.eventsPerSec() / pingSerial.eventsPerSec();
  double mdShardedSpeedup = mdSharded.eventsPerSec() / mdSerial.eventsPerSec();
  double t3ShardedSpeedup = t3Sharded.eventsPerSec() / t3Serial.eventsPerSec();
  bool schedulesMatch = ping.digest == kPingScheduleDigest &&
                        ar.digest == kAllReduceScheduleDigest;
  bool shardedMatch = pingSerial.digest == pingSharded.digest &&
                      mdSerial.digest == mdSharded.digest &&
                      t3Serial.digest == t3Sharded.digest;
  bool pingZeroAlloc = ping.allocs == 0;
  double arAllocsPerEvent = double(ar.allocs) / double(ar.events);

  util::TablePrinter table(
      {"shape", "mode", "events/s", "packets/s", "allocs/event"});
  auto row = [&](const char* shape, const char* mode, const RunStats& r) {
    table.addRow({shape, mode, util::TablePrinter::num(r.eventsPerSec(), 0),
                  util::TablePrinter::num(r.packetsPerSec(), 0),
                  util::TablePrinter::num(double(r.allocs) / double(r.events),
                                          4)});
  };
  row("ping 8x8x8", "serial", ping);
  row("allreduce 8x8x8", "serial", ar);
  row("ping 8x8x8 (short)", "serial", pingSerial);
  row("ping 8x8x8 (short)", "sharded", pingSharded);
  row("quickstart-md 4x4x4", "serial", mdSerial);
  row("quickstart-md 4x4x4", "sharded", mdSharded);
  row("table3-md 8x8x8", "serial", t3Serial);
  row("table3-md 8x8x8", "sharded", t3Sharded);
  table.print(std::cout);
  std::cout << "sharded (slab-x, " << kShardWorkers
            << " workers) vs serial: ping "
            << util::TablePrinter::num(pingShardedSpeedup, 2) << "x   md "
            << util::TablePrinter::num(mdShardedSpeedup, 2) << "x\n"
            << "sharded (slab-x, " << kTable3Workers
            << " workers) vs serial: table3-md "
            << util::TablePrinter::num(t3ShardedSpeedup, 2) << "x\n"
            << "quickstart-md heap allocations per step: disarmed "
            << util::TablePrinter::num(disarmedAllocsPerStep, 0) << ", armed "
            << util::TablePrinter::num(armedAllocsPerStep, 0) << " ("
            << util::TablePrinter::num(armedAllocRatio, 3) << "x)\n"
            << "heap allocations per Machine build+free: 4x4x4 "
            << buildAllocsSmall << ", 8x8x8 " << buildAllocsLarge
            << " (bound " << kMachineBuildAllocBound << ")\n";

  bench::JsonReporter json("kernel");
  // Gates: the boolean invariants gate on exact 1.0.
  json.record("ping_zero_alloc_steady", 1.0, pingZeroAlloc ? 1.0 : 0.0,
              "bool");
  json.record("schedule_match", 1.0, schedulesMatch ? 1.0 : 0.0, "bool");
  json.record("sharded_schedule_match", 1.0, shardedMatch ? 1.0 : 0.0,
              "bool");
  json.record("machine_build_alloc_bounded", 1.0,
              buildAllocsBounded ? 1.0 : 0.0, "bool");
  // Host-dependent raw numbers: informational (deviation pinned 0).
  json.record("ping_events_per_sec", ping.eventsPerSec(),
              ping.eventsPerSec(), "events/s");
  json.record("ping_packets_per_sec", ping.packetsPerSec(),
              ping.packetsPerSec(), "packets/s");
  json.record("allreduce_events_per_sec", ar.eventsPerSec(),
              ar.eventsPerSec(), "events/s");
  json.record("allreduce_allocs_per_event", arAllocsPerEvent,
              arAllocsPerEvent, "allocs/event");
  // Sharded wall-clock ratios are host- and core-count-dependent:
  // informational, like the raw events/sec records. The bit-identity of
  // the sharded schedule is the hard gate above.
  json.record("ping_sharded_speedup", pingShardedSpeedup, pingShardedSpeedup,
              "x");
  json.record("md_sharded_speedup", mdShardedSpeedup, mdShardedSpeedup, "x");
  json.record("md_table3_sharded_speedup", t3ShardedSpeedup, t3ShardedSpeedup,
              "x");
  // Deterministic, but gated by the exit code below rather than by the
  // trajectory: informational like the host-dependent records.
  json.record("md_armed_alloc_ratio", armedAllocRatio, armedAllocRatio, "x");

  bool ok = schedulesMatch && pingZeroAlloc && shardedMatch &&
            armedAllocsBounded && buildAllocsBounded;
  if (!schedulesMatch)
    std::cout << "\nSCHEDULE MISMATCH: ping digest " << util::hex64(ping.digest)
              << " (pinned " << util::hex64(kPingScheduleDigest)
              << "), all-reduce digest " << util::hex64(ar.digest)
              << " (pinned " << util::hex64(kAllReduceScheduleDigest) << ")\n";
  if (!shardedMatch)
    std::cout << "\nSCHEDULE MISMATCH: sharded kernel diverged from serial\n";
  if (!pingZeroAlloc)
    std::cout << "\nALLOCATION ON THE HOT PATH: " << ping.allocs
              << " heap allocations in the ping window\n";
  if (!armedAllocsBounded)
    std::cout << "\nARMED RECOVERY ALLOCATES: " << armedAllocsPerStep
              << " heap allocations per armed quickstart-md step, over "
              << kArmedAllocSlack << "x the disarmed " << disarmedAllocsPerStep
              << "\n";
  if (!buildAllocsBounded)
    std::cout << "\nMACHINE BUILD ALLOCATES PER NODE: " << buildAllocsSmall
              << " heap allocations for a 4x4x4 Machine, " << buildAllocsLarge
              << " for an 8x8x8 (bound " << kMachineBuildAllocBound << ")\n";
  if (ok) std::cout << "\nkernel invariants hold\n";
  return ok ? 0 : 1;
}
