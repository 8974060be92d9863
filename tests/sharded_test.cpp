// Sharded (conservative-PDES) kernel: bit-identity against the serial
// kernel, the kernel's refusal edges, the window protocol's failure modes,
// the barrier's lookahead guard, and the pinned layouts of every golden
// plan's shape.
//
// The headline claim (DESIGN.md §13): a sharded run is bit-identical to a
// serial one — same MachineStats, same client memories and counters, same
// final clock, same activity-trace CSV, same schedule digest — because
// the window barrier replays each window's execution order and hands out
// exactly the sequence numbers the serial kernel would have issued.
// Everything here pins that equivalence, plus the "refuse loudly" edges:
// non-positive budgets, and messages faster than their pair's channel
// bound (or between shards with no bound at all).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine_digest.hpp"
#include "net/machine.hpp"
#include "net/probe.hpp"
#include "plan_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "trace/activity.hpp"
#include "verify/lookahead.hpp"

namespace anton {
namespace {

using test::fnvMix;
using test::machineDigest;

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

// One run of `drive` on a fresh `shape` machine, optionally under a
// sharding. `shardingName` empty = serial; otherwise "per-node" or
// "slab-x". `drive` posts the traffic and runs the simulator to completion;
// `withMemory` folds every client memory into the machine digest.
StormResult shardedRun(util::TorusShape shape,
                       const std::function<void(net::Machine&)>& drive,
                       const std::string& shardingName, int workers,
                       bool withMemory) {
  sim::Simulator sim;
  net::Machine m(sim, shape);
  trace::ActivityTrace trace;
  m.setTrace(&trace);
  if (!shardingName.empty()) {
    sim.enableSharded(verify::shardLayout(shape,
                                          shardingName == "per-node"
                                              ? verify::ShardFamily::kPerNode
                                              : verify::ShardFamily::kSlabX),
                      workers);
  }
  drive(m);
  StormResult r;
  r.events = sim.eventsProcessed();
  r.sharded = sim.shardedStats();
  if (!shardingName.empty()) sim.disableSharded();
  r.stats = m.stats();
  r.digest = machineDigest(m, withMemory);
  r.finalTime = sim.now();
  r.traceCsv = trace.csv();
  r.scheduleDigest = sim.scheduleDigest();
  return r;
}

// The storm on the 4x4x4 torus.
StormResult trafficStorm(std::uint64_t seed, const std::string& shardingName,
                         int workers) {
  return shardedRun(
      {4, 4, 4},
      [seed](net::Machine& m) {
        postStorm(m, seed);
        m.sim().run();
      },
      shardingName, workers, /*withMemory=*/true);
}

// The Fig. 5 pings: three 64 B one-way counted writes on the paper's 8x8x8
// torus, from node 0 to corners 1, 4 and 12 hops away.
void driveFig5Pings(net::Machine& m) {
  for (util::TorusCoord dst :
       {util::TorusCoord{1, 0, 0}, util::TorusCoord{2, 2, 0},
        util::TorusCoord{4, 4, 4}})
    net::oneWayLatencyNs(m, {0, net::kSlice0},
                         {util::torusIndex(dst, m.shape()), net::kSlice0}, 64);
}

// The pings on a fresh machine. The digest skips client memories: scanning
// 512 nodes' worth (917 MiB) costs about a quarter second a run, and the
// counters it keeps already record every delivery.
StormResult fig5Pings(const std::string& shardingName, int workers) {
  return shardedRun({8, 8, 8}, driveFig5Pings, shardingName, workers,
                    /*withMemory=*/false);
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

TEST(ShardedKernel, Fig5PingsAreBitIdenticalToSerial) {
  StormResult serial = fig5Pings("", 0);
  for (const char* sharding : {"per-node", "slab-x"}) {
    SCOPED_TRACE(sharding);
    StormResult sharded = fig5Pings(sharding, 2);
    expectIdentical(serial, sharded);
    EXPECT_GT(sharded.sharded.windows, 0u);
  }
}

// Nodes are built on first touch, but never by a shard worker: enabling
// sharded mode builds every node of a Machine nothing has touched yet, and
// the run that follows matches the serial one.
TEST(ShardedKernel, EnableOnAnUntouchedMachineBuildsEveryNode) {
  StormResult serial = fig5Pings("", 0);
  sim::Simulator sim;
  net::Machine m(sim, {8, 8, 8});
  ASSERT_EQ(m.nodesBuilt(), 0);
  sim.enableSharded(
      verify::shardLayout(m.shape(), verify::ShardFamily::kSlabX), 2);
  EXPECT_EQ(m.nodesBuilt(), m.numNodes());
  driveFig5Pings(m);
  EXPECT_GT(sim.shardedStats().windows, 0u);
  sim.disableSharded();
  EXPECT_EQ(m.stats(), serial.stats);
  EXPECT_EQ(machineDigest(m, /*withMemory=*/false), serial.digest);
  EXPECT_EQ(sim.now(), serial.finalTime);
  EXPECT_EQ(sim.scheduleDigest(), serial.scheduleDigest);
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
                                     shape, verify::ShardFamily::kPerNode),
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
      verify::shardLayout(shape, verify::ShardFamily::kPerNode);
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
      verify::shardLayout(shape, verify::ShardFamily::kPerNode);
  ASSERT_EQ(layout.pairBoundPs.erase({0, 1}), 1u);
  std::string what = stormRejection(layout);
  EXPECT_NE(what.find("sharded.lookahead"), std::string::npos) << what;
  EXPECT_NE(what.find("holds no channel bound"), std::string::npos) << what;
}

TEST(ShardedKernel, StepIsRefusedUnderShardedMode) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  sim.enableSharded(
      verify::shardLayout(shape, verify::ShardFamily::kPerNode), 1);
  EXPECT_THROW(sim.step(), std::logic_error);
  sim.disableSharded();
  EXPECT_FALSE(sim.step());  // serial again, idle
}

TEST(ShardedKernel, DisableWithPendingShardEventsThrows) {
  util::TorusShape shape{2, 2, 2};
  sim::Simulator sim;
  net::Machine m(sim, shape);
  sim.enableSharded(
      verify::shardLayout(shape, verify::ShardFamily::kPerNode), 1);
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
      verify::shardLayout(shape, verify::ShardFamily::kPerNode),
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
                            shape, verify::ShardFamily::kPerNode),
                        1),
      std::logic_error);
  // The refusal rolled sharded mode back entirely.
  EXPECT_FALSE(sim.shardedEnabled());
  m.setFaultModel(nullptr);
  sim.enableSharded(
      verify::shardLayout(shape, verify::ShardFamily::kPerNode), 1);
  EXPECT_THROW(m.setFaultModel(&faults), std::logic_error);
  sim.disableSharded();
}

// --- the layouts, pinned ------------------------------------------------------

// FNV-1a over a layout's node->shard map and every (a, b, bound) of its
// pair bounds, in map order.
std::uint64_t layoutDigest(const sim::ShardLayout& layout) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int shard : layout.shardOfNode) h = fnvMix(h, std::uint64_t(shard));
  for (const auto& [pair, bound] : layout.pairBoundPs) {
    h = fnvMix(h, std::uint64_t(pair.first));
    h = fnvMix(h, std::uint64_t(pair.second));
    h = fnvMix(h, std::uint64_t(bound));
  }
  return h;
}

TEST(ShardLayout, LayoutsMatchThePinnedTopologyBounds) {
  // The kernel runs every layout at its topology budget without consulting
  // a plan, so the layouts themselves are the contract: one link crossing
  // (53 ns at the calibrated latencies) on every golden plan's shape, and
  // the node->shard map and pair bounds byte-stable.
  struct Pin {
    std::string plan, family;
    int numShards;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins{
      {"fig5-ping", "per-node", 512, 0x4a4115c5aa307195ULL},
      {"fig5-ping", "slab-x", 8, 0x1fb321a3d1b566adULL},
      {"table2-allreduce-2x2x2", "per-node", 8, 0x0cfca7ab1aa37c69ULL},
      {"table2-allreduce-2x2x2", "slab-x", 2, 0x3730aa8c0d2b9d89ULL},
      {"cluster-allreduce-16", "per-node", 16, 0xada55c7715e41209ULL},
      {"cluster-allreduce-16", "slab-x", 16, 0xada55c7715e41209ULL},
      {"fft-pair-2x2x2", "per-node", 8, 0x0cfca7ab1aa37c69ULL},
      {"fft-pair-2x2x2", "slab-x", 2, 0x3730aa8c0d2b9d89ULL},
      {"quickstart-md", "per-node", 64, 0xf14a0b168b31ab85ULL},
      {"quickstart-md", "slab-x", 4, 0x99a9a6241f96fdadULL},
      {"md-4x4x1", "per-node", 16, 0xb21c3e76a74c792dULL},
      {"md-4x4x1", "slab-x", 4, 0x3d02759fee6f4fadULL},
  };
  ASSERT_EQ(pins.size(), 2 * tools::goldenPlanNames().size());
  std::size_t i = 0;
  for (const std::string& name : tools::goldenPlanNames()) {
    util::TorusShape shape = tools::buildNamedPlan(name).shape;
    for (verify::ShardFamily family :
         {verify::ShardFamily::kPerNode, verify::ShardFamily::kSlabX}) {
      const Pin& pin = pins[i++];
      sim::ShardLayout layout = verify::shardLayout(shape, family);
      SCOPED_TRACE(name + " / " + layout.name);
      EXPECT_EQ(pin.plan, name);
      EXPECT_EQ(pin.family, layout.name);
      EXPECT_EQ(layout.numShards, pin.numShards);
      EXPECT_EQ(layout.lookaheadPs(), sim::ns(53.0));
      EXPECT_EQ(layoutDigest(layout), pin.digest)
          << "0x" << std::hex << layoutDigest(layout);
    }
  }
}

}  // namespace
}  // namespace anton
