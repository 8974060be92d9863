// perfbench: the host-time benchmark of the anton-comm simulator.
//
//   perfbench --workload {md-steps|ping-sweep|serve-mix} --seed N
//             --seconds S --trace {0|1} --pinned pinned.json --out-dir DIR
//             [--corrupt-digest]
//   perfbench --pin pinned.json
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics, writes a Chrome trace-event file
// and a self-time table to DIR, and flags any exact count that differs from
// an earlier run of the same seed. Every run checks its outputs against
// pinned.json; the last stdout line is one JSON object with "correct",
// "attempted", "failed" and "metrics". The exit code is 0 only when every
// check passed. run.py builds this binary and is the usual entry point.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
namespace json = anton::util::json;

struct Catalog {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
const Catalog kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const Catalog kPerLayer[] = {
    {"net.machine_build_ms", "ms"},
    {"net.machine_free_ms", "ms"},
    {"net.minflt_per_machine", "count"},
    {"net.packets_per_step", "count"},
    {"net.link_traversals_per_step", "count"},
    {"net.wire_bytes_per_step", "B"},
    {"net.multicast_forks_per_step", "count"},
    {"net.probe_us", "us"},
    {"sim.events_per_step", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.allocs_per_event", "count"},
    {"sim.reset_ms", "ms"},
    {"md.setup_ms", "ms"},
    {"md.step_ms.short", "ms"},
    {"md.step_ms.long_range", "ms"},
    {"md.sim_step_us", "us"},
    {"md.sim_htis_us", "us"},
    {"md.sim_fft_us", "us"},
    {"md.sim_force_wait_us", "us"},
    {"plan.build_ms.table2-allreduce", "ms"},
    {"plan.build_ms.fault-sweep", "ms"},
    {"plan.build_ms.quickstart-md", "ms"},
    {"verify.key_ms", "ms"},
    {"verify.check_ms", "ms"},
    {"verify.violations", "count"},
    {"serve.submit_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.cache_hit_ratio", "fraction"},
    {"serve.worker_busy_frac", "fraction"},
    {"serve.rejected", "count"},
    {"serve.arena_dirty_resets", "count"},
    {"serve.limit_miss_frac", "fraction"},
    {"core.resends", "count"},
    {"core.timeouts", "count"},
    {"core.hard_failures", "count"},
    {"fault.crc_retransmits", "count"},
    {"fault.link_failures", "count"},
    {"loadgen.late_p90_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
    {"trace.count_mismatches", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: perfbench --workload W --seed N --seconds S --trace 0|1 "
            "--pinned FILE --out-dir DIR [--corrupt-digest] | --pin FILE");
}

/// Compares this run's exact counts with the first run of the same
/// workload and seed (recorded in DIR); returns how many differ.
int compareExactCounts(const Options& opt, const Report& r) {
  const std::string path = opt.outDir + "/counts-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    out << "{";
    bool first = true;
    for (const auto& [k, v] : r.exactCounts) {
      out << (first ? "" : ",") << json::quoted(k) << ":" << json::number(v);
      first = false;
    }
    out << "}\n";
    return 0;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value before = json::parse(ss.str(), path);
  int differ = 0;
  for (const auto& [k, v] : r.exactCounts) {
    const json::Value* old = json::optField(before, k);
    if (old == nullptr || json::asDouble(*old, k) != v) {
      ++differ;
      std::fprintf(stderr, "COUNT DIFFERS %s: %s now, %s in %s\n", k.c_str(),
                   json::number(v).c_str(),
                   old ? json::number(old->n).c_str() : "absent", path.c_str());
    }
  }
  return differ;
}

std::string resultLine(const Report& r, bool traced) {
  const std::span<const Catalog> catalog =
      traced ? std::span<const Catalog>(kPerLayer)
             : std::span<const Catalog>(kEndToEnd);
  std::set<std::string> known;
  for (const Catalog& c : catalog) known.insert(c.name);
  for (const auto& [name, vu] : r.metrics)
    if (!known.count(name))
      throw std::logic_error("perfbench: metric " + name + " is not listed");
  std::ostringstream os;
  const bool correct = r.failed == 0 && r.checksSound;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const Catalog& c : catalog) {
    double value = 0.0;  // a layer this workload never calls did no work
    bool found = false;
    for (const auto& [name, vu] : r.metrics)
      if (name == c.name) {
        value = vu.first;
        found = true;
      }
    if (!found && !traced)
      throw std::logic_error(std::string("perfbench: missing ") + c.name);
    if (!std::isfinite(value))
      throw std::logic_error(std::string("perfbench: non-finite ") + c.name);
    os << (first ? "" : ",") << json::quoted(c.name)
       << ":{\"value\":" << json::number(value)
       << ",\"unit\":" << json::quoted(c.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

int run(int argc, char** argv) {
  Options opt;
  std::string pinOut;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--pinned") opt.pinnedPath = value();
    else if (a == "--out-dir") opt.outDir = value();
    else if (a == "--corrupt-digest") opt.corruptDigest = true;
    else if (a == "--pin") pinOut = value();
    else usage("unknown argument " + a);
  }
  if (!pinOut.empty()) {
    writePinned(pinOut);
    return 0;
  }
  if (opt.pinnedPath.empty() || opt.outDir.empty() || !(opt.seconds > 0))
    usage("--pinned, --out-dir and a positive --seconds are required");
  const Pinned pin = loadPinned(opt.pinnedPath);
  if (pin.mdStepUs.size() != std::size_t(kMdPinnedSteps))
    throw std::runtime_error("perfbench: pinned md step table is incomplete");
  std::filesystem::create_directories(opt.outDir);

  Tracer tracer;
  if (opt.trace) opt.tracer = &tracer;
  Report r;
  if (opt.workload == "md-steps") r = runMdSteps(opt, pin);
  else if (opt.workload == "ping-sweep") r = runPingSweep(opt, pin);
  else if (opt.workload == "serve-mix") r = runServeMix(opt, pin);
  else usage("unknown workload \"" + opt.workload + "\"");

  if (!r.checksSound)
    std::fprintf(stderr, "FAILED self-check: a corrupted digest was not counted\n");
  if (opt.trace) {
    r.set("trace.count_mismatches", compareExactCounts(opt, r), "count");
    const std::string stem = opt.outDir + "/trace-" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    tracer.writeChromeTrace(stem + ".json");
    const std::string table = tracer.selfTimeTable();
    std::ofstream(stem + "-layers.txt") << table;
    std::fprintf(stderr, "trace: %s.json (%zu spans)\n%s", stem.c_str(),
                 tracer.spans().size(), table.c_str());
  }
  for (const auto& [name, vu] : r.metrics)
    std::fprintf(stderr, "  %-32s %.6g %s\n", name.c_str(), vu.first,
                 vu.second.c_str());
  const std::string line = resultLine(r, opt.trace);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.failed == 0 && r.checksSound ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
