// Determinism regression: the same seeded workload must produce bit-identical
// MachineStats, memories, counters, and MD positions across runs — with no
// fault plan, with a zero-fault plan (which must also match the no-plan
// run exactly), and with a nonzero bit-error plan re-run under the same
// seed. This protects the seedable-RNG contract the fault scheduler relies
// on: all fault randomness lives in the plan's own RNG, drawn in the
// deterministic traversal order of the event kernel.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "fault/plan.hpp"
#include "machine_digest.hpp"
#include "md/anton_app.hpp"
#include "net/machine.hpp"
#include "plan_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"
#include "util/json.hpp"
#include "verify/lookahead.hpp"

namespace anton {
namespace {

using test::fnvMix;
using test::machineDigest;

// FNV-1a over every MachineStats field, in declaration order.
std::uint64_t statsDigest(const net::MachineStats& s) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (std::uint64_t v :
       {s.packetsInjected, s.packetsDelivered, s.linkTraversals, s.wireBytes,
        s.multicastForks, s.crcRetransmits, s.linkFailures, s.outageStalls,
        s.routerStalls, s.faultReroutes, std::uint64_t(s.retransmitDelay),
        std::uint64_t(s.stallDelay)})
    h = fnvMix(h, v);
  return h;
}

struct RunResult {
  net::MachineStats stats;
  std::uint64_t digest = 0;
  sim::Time finalTime = 0;
  std::uint64_t scheduleDigest = 0;
};

// A seeded random traffic storm: writes and accumulations of varying sizes
// between random clients, then drain. `tr`, when given, records every link
// busy window.
RunResult trafficStorm(std::uint64_t seed, fault::FaultPlan* plan,
                       trace::ActivityTrace* tr = nullptr) {
  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  if (plan != nullptr) m.setFaultModel(plan);
  if (tr != nullptr) m.setTrace(tr);
  sim::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    int srcNode = int(rng.below(std::uint64_t(m.numNodes())));
    int srcClient = int(rng.below(4));  // slices can always send
    net::NetworkClient::SendArgs args;
    args.dst = {int(rng.below(std::uint64_t(m.numNodes()))),
                int(rng.below(4))};
    args.counterId = int(rng.below(4));
    args.address = std::uint32_t(rng.below(1024)) * 16;
    std::size_t bytes = std::size_t(rng.below(32)) * 8;
    if (bytes != 0) args.payload = net::makeZeroPayload(bytes);
    m.client({srcNode, srcClient}).post(args);
  }
  sim.run();
  return {m.stats(), machineDigest(m), sim.now(), sim.scheduleDigest()};
}

TEST(Determinism, SeededTrafficIsBitIdenticalAcrossRuns) {
  RunResult a = trafficStorm(7, nullptr);
  RunResult b = trafficStorm(7, nullptr);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.finalTime, b.finalTime);
}

TEST(Determinism, ZeroFaultPlanMatchesNoPlanExactly) {
  RunResult bare = trafficStorm(7, nullptr);
  fault::FaultPlan idle;  // no BER, no windows
  RunResult planned = trafficStorm(7, &idle);
  EXPECT_EQ(bare.stats, planned.stats);
  EXPECT_EQ(bare.digest, planned.digest);
  EXPECT_EQ(bare.finalTime, planned.finalTime);
  EXPECT_EQ(planned.stats.crcRetransmits, 0u);
  EXPECT_GT(idle.stats().traversalsSeen, 0u);
}

TEST(Determinism, FaultyRunsReproduceUnderTheSameSeed) {
  fault::FaultConfig fc;
  fc.seed = 123;
  fc.bitErrorRate = 5e-4;
  fault::FaultPlan p1(fc), p2(fc);
  RunResult a = trafficStorm(7, &p1);
  RunResult b = trafficStorm(7, &p2);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.finalTime, b.finalTime);
  EXPECT_GT(a.stats.crcRetransmits, 0u);
  // Faults must have perturbed timing relative to the clean run.
  RunResult clean = trafficStorm(7, nullptr);
  EXPECT_NE(a.finalTime, clean.finalTime);
}

// The pinned schedule of trafficStorm(7, nullptr). The values are absolute:
// they move only when the simulated schedule itself moves (a latency model,
// routing or kernel-ordering change), never with host-side allocation or
// event-storage strategy. Refresh them only in a change that means to move
// the schedule, and say so.
constexpr std::uint64_t kStormStatsDigest = 0xeef4ba7df73a48e0ULL;
constexpr std::uint64_t kStormMachineDigest = 0x12da295eea0a9145ULL;
constexpr sim::Time kStormFinalTime = 630999;
constexpr std::uint64_t kStormTraceCsvDigest = 0x0d0ace3db7bbb973ULL;
// Simulator::scheduleDigest() of the storm: every executed event's
// (time, seq) in execution order.
constexpr std::uint64_t kStormScheduleDigest = 0xea749fb885d9f65dULL;

TEST(Determinism, TrafficStormMatchesThePinnedSchedule) {
  // Stats, memories, counters, the final clock, the executed (time, seq)
  // schedule AND the full activity trace (every link busy window, in
  // emission order) against absolute pins.
  trace::ActivityTrace tr;
  RunResult r = trafficStorm(7, nullptr, &tr);
  EXPECT_EQ(statsDigest(r.stats), kStormStatsDigest);
  EXPECT_EQ(r.digest, kStormMachineDigest);
  EXPECT_EQ(r.finalTime, kStormFinalTime);
  EXPECT_EQ(r.scheduleDigest, kStormScheduleDigest);
  EXPECT_EQ(util::fnv1a64(tr.csv()), kStormTraceCsvDigest);
}

// The quickstart-shaped MD input of the tests below: 1536 atoms at seed 11,
// with long-range and migration every second step.
md::SyntheticSystemParams seed11System() {
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.temperature = 0.8;
  sp.seed = 11;
  return sp;
}

md::AntonMdConfig seed11Config() {
  md::AntonMdConfig cfg;
  cfg.force.cutoff = 2.2;
  cfg.ewald.grid = 16;
  cfg.homeBoxMarginFrac = 0.10;
  cfg.migrationInterval = 2;
  cfg.longRangeInterval = 2;
  return cfg;
}

// The pinned end state of three quickstart-shaped MD supersteps (seed 11):
// every position and velocity bit, and the final simulated clock.
constexpr std::uint64_t kMdStateDigest = 0x59327ea8c2be33a4ULL;
constexpr sim::Time kMdFinalTime = 40262387;

TEST(Determinism, MdTrajectoryMatchesThePinnedDigest) {
  // End-to-end: three MD supersteps (forces, FFT, migration, all-reduce)
  // reproduce the pinned trajectory exactly.
  md::MDSystem sys = md::buildSyntheticSystem(seed11System());
  md::AntonMdConfig cfg = seed11Config();

  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  md::AntonMdApp app(m, sys, cfg);
  app.runSteps(3);
  md::MDSystem out = app.gatherSystem();

  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::vector<util::Vec3>* vs : {&out.positions, &out.velocities})
    for (const util::Vec3& v : *vs)
      for (double c : {v.x, v.y, v.z})
        h = fnvMix(h, std::bit_cast<std::uint64_t>(c));
  EXPECT_EQ(out.numAtoms(), sys.numAtoms());
  EXPECT_EQ(h, kMdStateDigest);
  EXPECT_EQ(sim.now(), kMdFinalTime);
}

TEST(Determinism, MdPositionsBitIdenticalWithZeroFaultPlan) {
  // The full Anton-mapped MD pipeline: a zero-fault plan must leave the
  // trajectory bit-identical to running without one.
  md::MDSystem sys = md::buildSyntheticSystem(seed11System());
  md::AntonMdConfig cfg = seed11Config();

  auto run = [&](fault::FaultPlan* plan) {
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    if (plan != nullptr) m.setFaultModel(plan);
    md::AntonMdApp app(m, sys, cfg);
    app.runSteps(3);
    return app.gatherSystem();
  };
  md::MDSystem bare = run(nullptr);
  fault::FaultPlan idle;
  md::MDSystem planned = run(&idle);

  ASSERT_EQ(bare.numAtoms(), planned.numAtoms());
  for (int i = 0; i < bare.numAtoms(); ++i) {
    EXPECT_EQ(bare.positions[std::size_t(i)], planned.positions[std::size_t(i)]);
    EXPECT_EQ(bare.velocities[std::size_t(i)],
              planned.velocities[std::size_t(i)]);
  }
}

// The armed-but-idle run's executed schedule. Its deadlines are cancelled
// events that still take sequence numbers, so it differs from the
// recovery-free digest; the pin fixes the armed wait's event order.
constexpr std::uint64_t kArmedMdScheduleDigest = 0x029d3bf02cc0bc0dULL;

TEST(Determinism, MdRecoveryArmedButIdleIsTimingInvisible) {
  // Erasure recovery armed (watchdogs on every counted wait, drop registry
  // installed) under a zero-fault plan: no drop ever occurs, so the
  // trajectory AND the per-step timings must be bit-identical to the
  // recovery-free, plan-free run. This pins the watchdog wake path to the
  // plain waitCounter schedule and the cancelled deadline events to zero
  // timeline cost.
  md::MDSystem sys = md::buildSyntheticSystem(seed11System());
  md::AntonMdConfig cfg = seed11Config();

  struct Out {
    md::MDSystem sys;
    std::vector<double> stepUs;
    sim::Time finalTime = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t scheduleDigest = 0;
  };
  auto run = [&](bool recovery, fault::FaultPlan* plan) {
    md::AntonMdConfig c = cfg;
    // Generous deadline: it must exceed every natural wait in the step, or
    // a spurious timeout would fire (and perturb timing) with no drop.
    if (recovery) c.recoveryTimeoutUs = 10000.0;
    sim::Simulator sim;
    net::Machine m(sim, {4, 4, 4});
    if (plan != nullptr) m.setFaultModel(plan);
    md::AntonMdApp app(m, sys, c);
    app.runSteps(3);
    Out out{app.gatherSystem(), {}, sim.now(), app.recoveryStats().timeouts,
            sim.scheduleDigest()};
    for (const md::StepTiming& t : app.stepTimings())
      out.stepUs.push_back(t.totalUs);
    return out;
  };
  Out bare = run(false, nullptr);
  fault::FaultPlan idle;
  Out armed = run(true, &idle);

  EXPECT_EQ(armed.timeouts, 0u);
  EXPECT_EQ(armed.scheduleDigest, kArmedMdScheduleDigest);
  EXPECT_EQ(bare.finalTime, armed.finalTime);
  ASSERT_EQ(bare.stepUs.size(), armed.stepUs.size());
  for (std::size_t i = 0; i < bare.stepUs.size(); ++i)
    EXPECT_EQ(bare.stepUs[i], armed.stepUs[i]) << "step " << i;
  ASSERT_EQ(bare.sys.numAtoms(), armed.sys.numAtoms());
  for (int i = 0; i < bare.sys.numAtoms(); ++i) {
    EXPECT_EQ(bare.sys.positions[std::size_t(i)],
              armed.sys.positions[std::size_t(i)]);
    EXPECT_EQ(bare.sys.velocities[std::size_t(i)],
              armed.sys.velocities[std::size_t(i)]);
  }
}

// Three quickstart-shaped MD supersteps on a lossy machine (retransmit cap
// of one, so traversals drop packet replicas) with the fault sweep's MD
// recovery budget armed: waits time out, replay from the drop registry and
// forgive progress rounds. The pins fix the whole armed-wait schedule under
// loss: executed events, final clock and recovery tally; the trajectory is
// the fault-free one.
constexpr std::uint64_t kLossyMdScheduleDigest = 0x1b6ececa90364324ULL;
constexpr sim::Time kLossyMdFinalTime = 30046344907;
constexpr std::uint64_t kLossyMdTimeouts = 1746;
constexpr std::uint64_t kLossyMdResends = 4677;
constexpr std::uint64_t kLossyMdProgressRounds = 403;
constexpr std::uint64_t kLossyMdDrops = 3428;

TEST(Determinism, LossyArmedMdMatchesThePinnedSchedule) {
  md::AntonMdConfig cfg = seed11Config();
  cfg.recoveryTimeoutUs = 1000.0;
  cfg.recoveryMaxResends = 40;
  cfg.recoveryBackoffUs = 0.5;

  const double ber = 2e-4;
  fault::FaultPlan plan({.seed = 0x3d5eed + std::uint64_t(ber * 1e9),
                         .bitErrorRate = ber,
                         .maxRetransmits = 1});
  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  m.setFaultModel(&plan);
  md::AntonMdApp app(m, md::buildSyntheticSystem(seed11System()), cfg);
  app.runSteps(3);
  md::MDSystem out = app.gatherSystem();

  std::uint64_t h = util::kFnvOffsetBasis;
  for (const std::vector<util::Vec3>* vs : {&out.positions, &out.velocities})
    for (const util::Vec3& v : *vs)
      for (double c : {v.x, v.y, v.z})
        h = fnvMix(h, std::bit_cast<std::uint64_t>(c));
  const core::RecoveryStats& rs = app.recoveryStats();
  EXPECT_EQ(app.stepsDone(), 3);
  EXPECT_EQ(sim.scheduleDigest(), kLossyMdScheduleDigest);
  EXPECT_EQ(sim.now(), kLossyMdFinalTime);
  // Replays carry the original payloads: the fault-free trajectory pin.
  EXPECT_EQ(h, kMdStateDigest);
  EXPECT_EQ(app.dropsObserved(), kLossyMdDrops);
  EXPECT_EQ(rs.timeouts, kLossyMdTimeouts);
  EXPECT_EQ(rs.resends, kLossyMdResends);
  EXPECT_EQ(rs.progressRounds, kLossyMdProgressRounds);
  EXPECT_EQ(rs.hardFailures, 0u);
}

// --- sharded kernel: the full MD pipeline, serial vs parallel ---------------

struct MdShardedResult {
  md::MDSystem sys;
  net::MachineStats stats;
  std::uint64_t digest = 0;
  sim::Time finalTime = 0;
  std::uint64_t scheduleDigest = 0;
  std::uint64_t migrated = 0;
  std::vector<md::StepTiming> timings;
  std::uint64_t windows = 0;  ///< sharded windows (0 when serial)
};

// One sharded-MD input: the system, its configuration and the step count.
struct MdInput {
  md::SyntheticSystemParams system;
  md::AntonMdConfig cfg;
  int steps = 0;
};

// Three seed-11 supersteps (forces, FFT convolution, thermostat, migration).
MdInput seed11Input() { return {seed11System(), seed11Config(), 3}; }

// The quickstart MD run of the "quickstart-md" golden plan: two supersteps
// of tools::quickstartMdConfig() on 1536 atoms at seed 2010.
MdInput quickstartInput() {
  md::SyntheticSystemParams sp;
  sp.targetAtoms = 1536;
  sp.seed = 2010;
  return {sp, tools::quickstartMdConfig(), 2};
}

// `in` on a 4x4x4 machine, optionally under the sharded kernel. Recovery is
// disarmed: the drop registry is the one cross-node mutable object the step
// tasks share, so sharded MD runs are only defined without it.
MdShardedResult mdRun(const MdInput& in, const std::string& shardingName,
                      int workers) {
  md::AntonMdConfig cfg = in.cfg;
  cfg.recoveryTimeoutUs = 0;
  sim::Simulator sim;
  net::Machine m(sim, {4, 4, 4});
  md::AntonMdApp app(m, md::buildSyntheticSystem(in.system), cfg);
  if (!shardingName.empty()) {
    sim.enableSharded(verify::shardLayout({4, 4, 4},
                                          shardingName == "per-node"
                                              ? verify::ShardFamily::kPerNode
                                              : verify::ShardFamily::kSlabX),
                      workers);
  }
  app.runSteps(in.steps);
  MdShardedResult r;
  r.windows = sim.shardedStats().windows;
  if (!shardingName.empty()) sim.disableSharded();
  r.stats = m.stats();
  r.sys = app.gatherSystem();
  r.digest = machineDigest(m);
  r.finalTime = sim.now();
  r.scheduleDigest = sim.scheduleDigest();
  r.migrated = app.totalMigrated();
  r.timings = app.stepTimings();
  return r;
}

void expectMdIdentical(const MdShardedResult& a, const MdShardedResult& b) {
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.finalTime, b.finalTime);
  EXPECT_EQ(a.scheduleDigest, b.scheduleDigest);
  EXPECT_EQ(a.migrated, b.migrated);
  ASSERT_EQ(a.sys.numAtoms(), b.sys.numAtoms());
  for (int i = 0; i < a.sys.numAtoms(); ++i) {
    EXPECT_EQ(a.sys.positions[std::size_t(i)], b.sys.positions[std::size_t(i)]);
    EXPECT_EQ(a.sys.velocities[std::size_t(i)],
              b.sys.velocities[std::size_t(i)]);
  }
  ASSERT_EQ(a.timings.size(), b.timings.size());
  for (std::size_t i = 0; i < a.timings.size(); ++i) {
    EXPECT_EQ(a.timings[i].totalUs, b.timings[i].totalUs) << "step " << i;
    EXPECT_EQ(a.timings[i].fftUs, b.timings[i].fftUs) << "step " << i;
    EXPECT_EQ(a.timings[i].htisUs, b.timings[i].htisUs) << "step " << i;
    EXPECT_EQ(a.timings[i].bondedUs, b.timings[i].bondedUs) << "step " << i;
    EXPECT_EQ(a.timings[i].migrationUs, b.timings[i].migrationUs)
        << "step " << i;
    EXPECT_EQ(a.timings[i].forceWaitUs, b.timings[i].forceWaitUs)
        << "step " << i;
  }
}

TEST(Determinism, MdShardedPerNodeMatchesSerialBitIdentically) {
  MdShardedResult serial = mdRun(seed11Input(), "", 0);
  MdShardedResult sharded = mdRun(seed11Input(), "per-node", 1);
  expectMdIdentical(serial, sharded);
}

TEST(Determinism, MdShardedSlabWithWorkersMatchesSerial) {
  MdShardedResult serial = mdRun(seed11Input(), "", 0);
  MdShardedResult slab = mdRun(seed11Input(), "slab-x", 2);
  expectMdIdentical(serial, slab);
  MdShardedResult perNode = mdRun(seed11Input(), "per-node", 4);
  expectMdIdentical(serial, perNode);
}

TEST(Determinism, MdShardedQuickstartMatchesSerial) {
  MdShardedResult serial = mdRun(quickstartInput(), "", 0);
  for (const char* sharding : {"per-node", "slab-x"}) {
    SCOPED_TRACE(sharding);
    MdShardedResult sharded = mdRun(quickstartInput(), sharding, 2);
    expectMdIdentical(serial, sharded);
    EXPECT_GT(sharded.windows, 0u);
  }
}

}  // namespace
}  // namespace anton
