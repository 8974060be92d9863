// SC10 Figure 5: one-way counted-remote-write latency vs. torus hops on a
// 512-node (8x8x8) machine, for 0 B and 256 B payloads, unidirectional and
// bidirectional. Hops 1-4 run along X; hops 5-12 add Y then Z hops.
// Paper anchors: 162 ns at 1 hop, 76 ns/hop in X, 54 ns/hop in Y/Z, and a
// 12-hop latency roughly 5x the 1-hop latency.
//
// The measurement itself lives in the service runner (src/serve): this
// driver builds the canonical Fig. 5 job spec, runs it on a local arena,
// and formats the returned metrics — the same code path a fig5-ping job
// takes through simd_server.
#include "bench_common.hpp"

#include "plan_registry.hpp"
#include "serve/job_spec.hpp"
#include "serve/runner.hpp"
#include "verify/timing.hpp"

using namespace anton;

namespace {

/// Static critical-path lower bound of a single one-corner ping (the same
/// plan timing_test prices against the live machine), in ns. Recorded as the
/// "paper" reference of the *_static_bound metrics: deviation is then the
/// measured/bound slack minus one, which must stay non-negative (soundness)
/// and within the committed baseline's trajectory (tightness).
double staticPingBoundNs(util::TorusCoord corner) {
  verify::TimingOptions opts;
  opts.rounds = 1;
  return verify::analyzeTiming(tools::buildPingPlan(corner), opts)
      .criticalPathNs;
}

}  // namespace

int main() {
  bench::banner("Figure 5: one-way latency vs. network hops (8x8x8 torus)");

  serve::JobSpec spec = serve::fig5PingSpec(/*maxHops=*/12,
                                            /*payloadBytes=*/256);
  sim::Simulator arena;
  serve::RunOutcome out = serve::runJob(spec, arena);
  auto at = [&](const std::string& key) { return out.metrics.at(key); };
  auto hopKey = [](const char* prefix, int payload, int hops) {
    return std::string(prefix) + std::to_string(payload) + "_h" +
           std::to_string(hops);
  };

  util::TablePrinter table({"hops", "0B uni (ns)", "0B bidir (ns)",
                            "256B uni (ns)", "256B bidir (ns)"});
  util::CsvWriter csv("fig05_latency_vs_hops.csv");
  csv.row("hops", "uni0_ns", "bidir0_ns", "uni256_ns", "bidir256_ns");
  for (int h = 0; h <= spec.maxHops; ++h) {
    double u0 = at(hopKey("uni", 0, h));
    double b0 = at(hopKey("bidir", 0, h));
    double u256 = at(hopKey("uni", 256, h));
    double b256 = at(hopKey("bidir", 256, h));
    table.addRow({std::to_string(h), util::TablePrinter::num(u0, 1),
                  util::TablePrinter::num(b0, 1),
                  util::TablePrinter::num(u256, 1),
                  util::TablePrinter::num(b256, 1)});
    csv.row(h, u0, b0, u256, b256);
  }
  table.print(std::cout);

  double h1 = at("uni0_h1");
  double h4 = at("uni0_h4");
  double h12 = at("uni0_h12");
  bench::JsonReporter json("fig05");
  json.record("one_hop_latency", 162.0, h1, "ns");
  json.record("x_slope", 76.0, (h4 - h1) / 3.0, "ns/hop");
  json.record("twelve_hop_ratio", 5.0, h12 / h1, "x");
  // Fig. 5 runs hops 1-4 along X, 5-8 add Y, 9-12 add Z: the 1-hop corner
  // is (1,0,0) and the 12-hop corner (4,4,4).
  json.record("one_hop_static_bound", staticPingBoundNs({1, 0, 0}), h1, "ns");
  json.record("twelve_hop_static_bound", staticPingBoundNs({4, 4, 4}), h12,
              "ns");
  std::cout << "\npaper anchors: 1 hop = 162 ns (measured "
            << util::TablePrinter::num(h1, 1) << "), X slope = 76 ns/hop (measured "
            << util::TablePrinter::num((h4 - h1) / 3.0, 1)
            << "), 12-hop/1-hop = ~5x (measured "
            << util::TablePrinter::num(h12 / h1, 2) << "x)\n"
            << "series written to fig05_latency_vs_hops.csv\n";
  return 0;
}
