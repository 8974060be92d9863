// Sharded (conservative-PDES) kernel: bit-identity against the serial
// kernel, the layout's refusal edges, the window protocol's failure modes,
// the barrier's lookahead guard, and the topology budget held against the
// static lookahead proof.
//
// The headline claim (DESIGN.md §13): a sharded run is bit-identical to a
// serial one — same MachineStats, same client memories and counters, same
// final clock, same activity-trace CSV, same schedule digest — because
// the window barrier replays each window's execution order and hands out
// exactly the sequence numbers the serial kernel would have issued.
// Everything here pins that equivalence, plus the "refuse loudly" edges:
// node-splitting shardings, non-positive budgets, and messages faster than
// their pair's channel bound (or between shards with no bound at all).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/machine.hpp"
#include "plan_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"
#include "verify/lookahead.hpp"

namespace anton {
namespace {

// FNV-1a over every client memory and counter bank of the machine.
std::uint64_t machineDigest(net::Machine& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (int n = 0; n < m.numNodes(); ++n) {
    for (int c = 0; c < net::kClientsPerNode; ++c) {
      net::NetworkClient& cl = m.client({n, c});
      for (std::byte b : cl.memory()) {
        h ^= std::uint64_t(b);
        h *= 0x100000001b3ULL;
      }
      for (int k = 0; k < cl.numCounters(); ++k) mix(cl.counterValue(k));
    }
  }
  return h;
}

struct StormResult {
  net::MachineStats stats;
  std::uint64_t digest = 0;
  sim::Time finalTime = 0;
  std::uint64_t events = 0;
  std::string traceCsv;
  std::uint64_t scheduleDigest = 0;
  sim::Simulator::ShardedStats sharded;
};

// Posts the determinism_test seeded storm: 400 writes and accumulations of
// varying sizes between random clients.
void postStorm(net::Machine& m, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    int srcNode = int(rng.below(std::uint64_t(m.numNodes())));
    int srcClient = int(rng.below(4));
    net::NetworkClient::SendArgs args;
    args.dst = {int(rng.below(std::uint64_t(m.numNodes()))),
                int(rng.below(4))};
    args.counterId = int(rng.below(4));
    args.address = std::uint32_t(rng.below(1024)) * 16;
    std::size_t bytes = std::size_t(rng.below(32)) * 8;
    if (bytes != 0) args.payload = net::makeZeroPayload(bytes);
    m.client({srcNode, srcClient}).post(args);
  }
}

// The storm, optionally run under a sharding. `shardingName` empty =
// serial; otherwise "per-node" or "slab-x".
StormResult trafficStorm(std::uint64_t seed, const std::string& shardingName,
                         int workers) {
  util::TorusShape shape{4, 4, 4};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  trace::ActivityTrace trace;
  m.setTrace(&trace);
  if (!shardingName.empty()) {
    verify::Sharding sh = shardingName == "per-node"
                              ? verify::perNodeSharding(shape)
                              : verify::slabSharding(shape);
    sim.enableSharded(verify::shardLayout(shape, sh), workers);
  }
  postStorm(m, seed);
  StormResult r;
  r.events = sim.run();
  r.sharded = sim.shardedStats();
  if (!shardingName.empty()) sim.disableSharded();
  r.stats = m.stats();
  r.digest = machineDigest(m);
  r.finalTime = sim.now();
  r.traceCsv = trace.csv();
  r.scheduleDigest = sim.scheduleDigest();
  return r;
}

void expectIdentical(const StormResult& serial, const StormResult& sharded) {
  EXPECT_EQ(serial.stats, sharded.stats);
  EXPECT_EQ(serial.digest, sharded.digest);
  EXPECT_EQ(serial.finalTime, sharded.finalTime);
  EXPECT_EQ(serial.events, sharded.events);
  EXPECT_EQ(serial.traceCsv, sharded.traceCsv);
  EXPECT_EQ(serial.scheduleDigest, sharded.scheduleDigest);
}

TEST(ShardedKernel, PerNodeStormIsBitIdenticalToSerial) {
  StormResult serial = trafficStorm(7, "", 0);
  StormResult sharded = trafficStorm(7, "per-node", 1);
  expectIdentical(serial, sharded);
  EXPECT_GT(sharded.sharded.windows, 0u);
  EXPECT_GT(sharded.sharded.shardEvents, 0u);
  EXPECT_GT(sharded.sharded.mailsDelivered, 0u);
}

TEST(ShardedKernel, SlabStormIsBitIdenticalToSerial) {
  StormResult serial = trafficStorm(11, "", 0);
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    expectIdentical(serial, trafficStorm(11, "slab-x", workers));
  }
}

TEST(ShardedKernel, WorkerThreadsMatchTheSingleThreadedWindows) {
  StormResult one = trafficStorm(7, "per-node", 1);
  StormResult two = trafficStorm(7, "per-node", 2);
  StormResult four = trafficStorm(7, "per-node", 4);
  expectIdentical(one, two);
  expectIdentical(one, four);
  EXPECT_EQ(one.sharded.windows, four.sharded.windows);
  EXPECT_EQ(one.sharded.mailsDelivered, four.sharded.mailsDelivered);
}

TEST(ShardedKernel, SplitNodeShardingIsRefusedNamingTheViolation) {
  util::TorusShape shape{2, 2, 2};
  verify::Sharding split = verify::splitNodeSharding(shape);
  try {
    verify::shardLayout(shape, split);
    FAIL() << "split-node sharding must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead.zero"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedKernel, KernelRefusesNonPositiveLookaheadBudget) {
  sim::Simulator sim;
  sim::ShardLayout layout;
  layout.name = "hand-rolled";
  layout.numShards = 2;
  layout.shardOfNode = {0, 1};
  layout.pairBoundPs[{0, 1}] = 0;  // a zero channel bound poisons the budget
  EXPECT_THROW(sim.enableSharded(layout, 1), std::invalid_argument);
  EXPECT_FALSE(sim.shardedEnabled());
}

TEST(ShardedKernel, KernelRefusesFewerThanOneWorker) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  EXPECT_THROW(sim.enableSharded(verify::shardLayout(
                                     shape, verify::perNodeSharding(shape)),
                                 0),
               std::invalid_argument);
  EXPECT_FALSE(sim.shardedEnabled());
}

// --- the barrier's lookahead guard ------------------------------------------

// Runs the seed-7 storm under a hand-edited per-node 4x4x4 layout and
// returns the std::runtime_error the window barrier threw ("" if none).
// reset() then discards the poisoned run, as a serve worker would.
std::string stormRejection(const sim::ShardLayout& layout) {
  util::TorusShape shape{4, 4, 4};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  sim.enableSharded(layout, 2);
  postStorm(m, 7);
  std::string what;
  try {
    sim.run();
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  sim.reset();
  EXPECT_FALSE(sim.shardedEnabled());
  return what;
}

TEST(ShardedKernel, BarrierRejectsMessagesFasterThanThePairBound) {
  // A 1 ms bound on every pair: no torus crossing is that slow, so the
  // first cross-shard message must be refused at the barrier.
  util::TorusShape shape{4, 4, 4};
  sim::ShardLayout layout =
      verify::shardLayout(shape, verify::perNodeSharding(shape));
  for (auto& [pair, bound] : layout.pairBoundPs) bound = sim::us(1000.0);
  std::string what = stormRejection(layout);
  EXPECT_NE(what.find("sharded.lookahead"), std::string::npos) << what;
  EXPECT_NE(what.find("below the pair's channel bound"), std::string::npos)
      << what;
}

TEST(ShardedKernel, BarrierRejectsMessagesBetweenShardsWithNoBound) {
  // Nodes 0 and 1 are x-neighbours, and the storm crosses their link; with
  // that pair's bound erased the layout no longer covers the message.
  util::TorusShape shape{4, 4, 4};
  sim::ShardLayout layout =
      verify::shardLayout(shape, verify::perNodeSharding(shape));
  ASSERT_EQ(layout.pairBoundPs.erase({0, 1}), 1u);
  std::string what = stormRejection(layout);
  EXPECT_NE(what.find("sharded.lookahead"), std::string::npos) << what;
  EXPECT_NE(what.find("holds no channel bound"), std::string::npos) << what;
}

TEST(ShardedKernel, StepIsRefusedUnderShardedMode) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  sim.enableSharded(
      verify::shardLayout(shape, verify::perNodeSharding(shape)), 1);
  EXPECT_THROW(sim.step(), std::logic_error);
  sim.disableSharded();
  EXPECT_FALSE(sim.step());  // serial again, idle
}

TEST(ShardedKernel, DisableWithPendingShardEventsThrows) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  sim.enableSharded(
      verify::shardLayout(shape, verify::perNodeSharding(shape)), 1);
  net::NetworkClient::SendArgs args;
  args.dst = {5, 0};
  args.counterId = 0;
  m.client({0, 0}).post(args);
  EXPECT_THROW(sim.disableSharded(), std::logic_error);
  sim.run();
  sim.disableSharded();  // drained: now fine
  EXPECT_FALSE(sim.shardedEnabled());
}

TEST(ShardedKernel, ResetTearsShardedModeDown) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  sim.enableSharded(
      verify::shardLayout(shape, verify::perNodeSharding(shape)),
      2);
  net::NetworkClient::SendArgs args;
  args.dst = {5, 0};
  args.counterId = 0;
  m.client({0, 0}).post(args);
  EXPECT_GT(sim.reset(), 0u);  // pending events discarded...
  EXPECT_FALSE(sim.shardedEnabled());  // ...and sharding did not survive
  EXPECT_EQ(sim.now(), 0);
  // The kernel is serially usable again.
  bool ran = false;
  sim.at(sim::ns(1), [&ran] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(ShardedKernel, MachineRefusesShardingWithAFaultModelInstalled) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  struct NullFaults : net::FaultModel {
    net::LinkFaultOutcome onLinkTraversal(int, int, int, std::size_t,
                                          sim::Time) override {
      return {};
    }
    bool linkDown(int, int, int, sim::Time) const override { return false; }
    sim::Time routerStallUntil(int, sim::Time t) const override { return t; }
  } faults;
  m.setFaultModel(&faults);
  EXPECT_THROW(
      sim.enableSharded(verify::shardLayout(
                            shape, verify::perNodeSharding(shape)),
                        1),
      std::logic_error);
  // The refusal rolled sharded mode back entirely.
  EXPECT_FALSE(sim.shardedEnabled());
  m.setFaultModel(nullptr);
  sim.enableSharded(
      verify::shardLayout(shape, verify::perNodeSharding(shape)), 1);
  EXPECT_THROW(m.setFaultModel(&faults), std::logic_error);
  sim.disableSharded();
}

// --- the topology budget against the static proof ---------------------------

TEST(ShardLayout, TopologyBudgetNeverExceedsTheAnalyzerProof) {
  // The kernel runs every layout at its topology budget without consulting
  // a plan; that is only sound if, for every shipped plan, the analyzer
  // accepts the sharding and proves at least that much lookahead.
  for (const std::string& name : tools::goldenPlanNames()) {
    verify::CommPlan plan = tools::buildNamedPlan(name);
    for (const verify::Sharding& sh : {verify::perNodeSharding(plan.shape),
                                       verify::slabSharding(plan.shape)}) {
      SCOPED_TRACE(name + " / " + sh.name);
      verify::LookaheadReport proof = verify::analyzeLookahead(plan, sh);
      EXPECT_TRUE(proof.ok());
      sim::Time budget = verify::shardLayout(plan.shape, sh).lookaheadPs();
      EXPECT_GT(budget, 0);
      EXPECT_LE(budget, sim::ns(proof.safeLookaheadNs));
    }
  }
}

}  // namespace
}  // namespace anton
