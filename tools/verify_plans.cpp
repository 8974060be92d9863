// verify_plans: static communication-plan verifier CLI.
//
// Extracts the static communication graph of each shipped configuration —
// the quickstart MD run, the Fig. 5 ping topology, the Table 2 all-reduce
// tori, the Table 3 512-node MD system, the FFT pair, and the
// cluster-baseline all-reduce — WITHOUT running the simulator, and checks
// count consistency, multicast well-formedness (healthy and under declared
// down links, with tree repair), event-level buffer-reuse safety, static
// deadlock freedom, route dimension order, and recovery coverage
// (src/verify/checks.hpp). The seeded known-bad plans that prove each check
// fires are verify_test cases.
//
// Output is strict JSON lines on stdout, mirrored to VERIFY_plans.json:
//   {"kind":"plan", ...}       one per verified plan
//   {"kind":"violation", ...}  each Severity::kError finding
//   {"kind":"lint", ...}       each Severity::kLint finding
//   {"kind":"summary", ...}    totals; "ok" decides the exit code
//
// Exit status: 0 when every shipped plan is violation-free AND free of
// recovery-coverage lints (every counted wait must have a recovery story);
// 1 otherwise. Other lints stay advisory.
//
// Modes:
//   --dump-plans DIR    write each golden plan's JSON snapshot into DIR
//   --diff A B          structural plan delta. A and B are plan names
//                       (tools/plan_registry.hpp) or snapshot files; prints
//                       one line per difference. Exit 0 when identical, 1
//                       when the plans differ, 2 on error.
//   --plan-keys         one "<name> <planKeyHex>" line per golden plan
//   --timing            static critical-path & link-occupancy audit: price
//                       every golden plan's happens-before graph with the
//                       calibrated latency model — critical-path lower
//                       bound with the bottleneck named event-by-event,
//                       per-link x per-phase occupancy hotspots with the
//                       timing.contention check, and degraded-mode
//                       inflation. Output mirrors to VERIFY_timing.json
//                       (committed golden file). The seeded-bad timing
//                       plans and the live checks that each bound is sound
//                       are timing_test cases.
//   --update-goldens [DIR]  regenerate the golden plan snapshots AND the
//                       committed VERIFY_timing.json in DIR (default
//                       tests/golden_plans) in one step.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench_common.hpp"
#include "plan_registry.hpp"
#include "verify/checks.hpp"
#include "verify/snapshot.hpp"
#include "verify/timing.hpp"

using anton::bench::JsonReporter;

namespace {

namespace verify = anton::verify;
namespace tools = anton::tools;

struct Emitter {
  JsonReporter file;
  explicit Emitter(const std::string& path = "VERIFY_plans.json")
      : file("verify_plans", path) {}
  void line(const std::string& l) {
    std::cout << l << '\n';
    file.raw(l);
  }
};

struct Totals {
  int plans = 0;
  int violations = 0;
  int lints = 0;
  int recoveryLints = 0;  ///< recovery-coverage lints gate like violations
};

std::string shapeStr(const anton::util::TorusShape& s) {
  return std::to_string(s.extent(0)) + "x" + std::to_string(s.extent(1)) +
         "x" + std::to_string(s.extent(2));
}

std::string findingLine(const std::string& plan, const verify::Violation& v) {
  std::ostringstream os;
  os << "{\"kind\":"
     << JsonReporter::quoted(v.severity == verify::Severity::kError
                                 ? "violation"
                                 : "lint")
     << ",\"plan\":" << JsonReporter::quoted(plan)
     << ",\"check\":" << JsonReporter::quoted(v.check)
     << ",\"site\":" << JsonReporter::quoted(v.site) << ",\"node\":" << v.node
     << ",\"counter\":" << v.counterId << ",\"pattern\":" << v.patternId
     << ",\"count\":" << v.count
     << ",\"detail\":" << JsonReporter::quoted(v.detail) << "}";
  return os.str();
}

verify::VerifyResult runPlan(Emitter& em, Totals& t,
                             const verify::CommPlan& plan,
                             const verify::VerifyOptions& opts = {}) {
  verify::VerifyResult r = verify::verifyPlan(plan, opts);
  ++t.plans;
  t.violations += int(r.violations.size());
  t.lints += int(r.lints.size());
  // Every shipped counted wait has a recovery story, so an
  // unarmed wait is a regression, not advice: it gates the exit code.
  for (const verify::Violation& v : r.lints)
    if (v.check == "recovery-coverage") ++t.recoveryLints;
  std::ostringstream os;
  os << "{\"kind\":\"plan\",\"plan\":" << JsonReporter::quoted(plan.name)
     << ",\"shape\":" << JsonReporter::quoted(shapeStr(plan.shape))
     << ",\"phases\":" << plan.phases.size()
     << ",\"writes\":" << plan.writes.size()
     << ",\"expectations\":" << plan.expectations.size()
     << ",\"multicasts\":" << plan.multicasts.size()
     << ",\"buffers\":" << r.buffersTotal
     << ",\"buffersChecked\":" << r.buffersChecked
     << ",\"sampled\":" << (r.sampled ? "true" : "false")
     << ",\"routesTraced\":" << r.routesTraced
     << ",\"events\":" << r.eventsModeled
     << ",\"multicastsRepaired\":" << r.multicastsRepaired
     << ",\"multicastsStalled\":" << r.multicastsStalled
     << ",\"violations\":" << r.violations.size()
     << ",\"lints\":" << r.lints.size()
     << ",\"ok\":" << (r.ok() ? "true" : "false") << "}";
  em.line(os.str());
  for (const verify::Violation& v : r.violations)
    em.line(findingLine(plan.name, v));
  for (const verify::Violation& v : r.lints)
    em.line(findingLine(plan.name, v));
  return r;
}

// --- --timing: static critical-path & link-occupancy audit -----------------

std::string timingLine(const verify::TimingReport& r) {
  std::ostringstream os;
  os << "{\"kind\":\"timing\",\"plan\":" << JsonReporter::quoted(r.plan)
     << ",\"rounds\":" << r.rounds << ",\"events\":" << r.eventsModeled
     << ",\"criticalPathNs\":" << JsonReporter::number(r.criticalPathNs)
     << ",\"perRoundNs\":" << JsonReporter::number(r.perRoundNs)
     << ",\"linksUsed\":" << r.linksUsed
     << ",\"maxLinkDemandNs\":" << JsonReporter::number(r.maxLinkDemandNs)
     << ",\"hotspots\":" << r.hotspots.size();
  if (r.degradedAnalyzed)
    os << ",\"degradedCriticalPathNs\":"
       << JsonReporter::number(r.degradedCriticalPathNs)
       << ",\"inflation\":" << JsonReporter::number(r.inflation)
       << ",\"degradedStalled\":" << (r.degradedStalled ? "true" : "false");
  os << ",\"violations\":" << r.violations.size()
     << ",\"ok\":" << (r.ok() ? "true" : "false") << "}";
  return os.str();
}

void emitTiming(Emitter& em, const verify::TimingReport& r) {
  em.line(timingLine(r));
  for (const verify::Violation& v : r.violations)
    em.line(findingLine(r.plan, v));
  // Top hotspots and the bottleneck tail, capped so the golden file stays
  // reviewable (the full tables are in the TimingReport for tests).
  std::size_t hcap = std::min<std::size_t>(4, r.hotspots.size());
  for (std::size_t i = 0; i < hcap; ++i) {
    const verify::LinkLoad& h = r.hotspots[i];
    std::ostringstream os;
    os << "{\"kind\":\"hotspot\",\"plan\":" << JsonReporter::quoted(r.plan)
       << ",\"node\":" << h.node << ",\"link\":"
       << JsonReporter::quoted(std::string(1, "xyz"[std::size_t(h.dim)]) +
                               (h.sign > 0 ? "+" : "-"))
       << ",\"phase\":" << JsonReporter::quoted(h.phase)
       << ",\"packets\":" << h.packets
       << ",\"occupancyNs\":" << JsonReporter::number(h.occupancyNs)
       << ",\"windowNs\":" << JsonReporter::number(h.windowNs)
       << ",\"utilization\":" << JsonReporter::number(h.utilization) << "}";
    em.line(os.str());
  }
  std::size_t pcap = std::min<std::size_t>(6, r.bottleneckPath.size());
  for (std::size_t i = r.bottleneckPath.size() - pcap;
       i < r.bottleneckPath.size(); ++i) {
    const verify::PathStep& s = r.bottleneckPath[i];
    std::ostringstream os;
    os << "{\"kind\":\"critical-event\",\"plan\":"
       << JsonReporter::quoted(r.plan) << ",\"index\":" << i
       << ",\"event\":" << JsonReporter::quoted(s.event)
       << ",\"arrivalNs\":" << JsonReporter::number(s.arrivalNs)
       << ",\"edgeNs\":" << JsonReporter::number(s.edgeNs) << "}";
    em.line(os.str());
  }
}

/// Audit every golden plan (healthy, plus a degraded Fig. 5 variant).
/// Output mirrors to VERIFY_timing.json (committed).
int runTiming(const std::string& outPath = "VERIFY_timing.json") {
  Emitter em(outPath);
  int audits = 0, violations = 0;
  for (const std::string& name : tools::goldenPlanNames()) {
    verify::TimingReport r = verify::analyzeTiming(tools::buildNamedPlan(name));
    ++audits;
    violations += int(r.violations.size());
    emitTiming(em, r);
  }
  // Degraded re-pricing of the Fig. 5 topology. Minimal dimension-ordered
  // routing detours only while another dimension still has distance, so the
  // down link must sit where every flow crossing it has multi-dimension
  // remaining work: the +x link out of (6,4,4) carries only the (4,4,4)
  // pong's x-leg (y and z still pending), which reroutes cleanly and the
  // inflation stays under the blowup factor. Down links that strand a
  // single-dimension flow are TimingTest.SeededStalledRouteFires' territory.
  {
    verify::CommPlan plan = tools::buildNamedPlan("fig5-ping");
    plan.name = "fig5-ping-degraded";
    verify::TimingOptions opts;
    opts.downLinks = {
        {anton::util::torusIndex({6, 4, 4}, plan.shape), 0, +1}};
    verify::TimingReport r = verify::analyzeTiming(plan, opts);
    ++audits;
    violations += int(r.violations.size());
    emitTiming(em, r);
  }

  bool ok = violations == 0;
  std::ostringstream os;
  os << "{\"kind\":\"summary\",\"mode\":\"timing\",\"audits\":" << audits
     << ",\"violations\":" << violations
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
  em.line(os.str());
  std::cerr << (ok ? "verify_plans --timing: OK"
                   : "verify_plans --timing: FAILED")
            << " (" << audits << " audits, " << violations << " violations)\n";
  return ok ? 0 : 1;
}

// --- --diff / --dump-plans ---------------------------------------------------

verify::CommPlan loadPlanArg(const std::string& arg) {
  if (std::filesystem::exists(arg)) {
    std::ifstream in(arg);
    if (!in) throw std::runtime_error("cannot read " + arg);
    std::ostringstream buf;
    buf << in.rdbuf();
    return verify::planFromJson(buf.str());
  }
  return tools::buildNamedPlan(arg);
}

int runDiff(const std::string& a, const std::string& b) {
  verify::CommPlan pa = loadPlanArg(a);
  verify::CommPlan pb = loadPlanArg(b);
  verify::PlanDelta delta = verify::diffPlans(pa, pb);
  for (const verify::PlanDeltaEntry& e : delta.entries)
    std::cout << e.category << " | " << e.site << " | " << e.detail << "\n";
  if (delta.identical()) {
    std::cerr << "verify_plans --diff: plans are structurally identical\n";
    return 0;
  }
  std::cerr << "verify_plans --diff: " << delta.entries.size()
            << " structural difference(s) between '" << a << "' and '" << b
            << "'\n";
  return 1;
}

/// --plan-keys: one "<name> <planKeyHex>" line per shipped golden plan.
/// The hex is verify::planKey over the canonical snapshot bytes — the same
/// stable identity the serve cache folds into its job keys, pinned as
/// constants by golden_plan_test.
int runPlanKeys() {
  for (const std::string& name : tools::goldenPlanNames())
    std::cout << name << " "
              << verify::planKeyHex(tools::buildNamedPlan(name)) << "\n";
  return 0;
}

int runDump(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const std::string& name : tools::goldenPlanNames()) {
    std::filesystem::path path =
        std::filesystem::path(dir) / (name + ".json");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path.string());
    out << verify::planToJson(tools::buildNamedPlan(name));
    std::cerr << "wrote " << path.string() << "\n";
  }
  return 0;
}

/// --update-goldens: regenerate every committed snapshot in place — the
/// plan JSON files plus the golden-diffed VERIFY_timing.json — so an
/// intended extractor or pricing change is a one-command refresh.
int runUpdateGoldens(const std::string& dir) {
  runDump(dir);
  int ti =
      runTiming((std::filesystem::path(dir) / "VERIFY_timing.json").string());
  std::cerr << "verify_plans --update-goldens: refreshed snapshots and "
               "VERIFY_timing.json in "
            << dir << "\n";
  return ti;
}

/// The default mode: verify every shipped plan, healthy and degraded.
int runAudit() {
  Emitter em;
  Totals t;
  runPlan(em, t, tools::buildNamedPlan("quickstart-md"));
  runPlan(em, t, tools::buildNamedPlan("fig5-ping"));
  {
    // The same topology audited in degraded mode: a down +x link out of
    // node 0 exercises the reroute path (lints, not errors, so the shipped
    // plan stays green while the reroutes are reported).
    verify::CommPlan p = tools::buildNamedPlan("fig5-ping");
    p.name = "fig5-ping-degraded";
    verify::VerifyOptions opts;
    opts.downLinks = {{0, 0, +1}};
    opts.routeIssuesAreErrors = false;
    runPlan(em, t, p, opts);
  }
  for (const char* shape : {"4x4x4", "8x2x8", "8x8x4", "8x8x8", "8x8x16"})
    runPlan(em, t,
            tools::buildNamedPlan(std::string("table2-allreduce-") + shape));
  {
    // Degraded audit of the line fan-outs: an on-axis outage cannot be
    // rerouted around inside a 1-D line, so the affected trees are reported
    // as stalls (informational here; the live machine would wait out the
    // outage).
    verify::CommPlan p = tools::buildNamedPlan("table2-allreduce-4x4x4");
    p.name = "table2-allreduce-4x4x4-degraded";
    verify::VerifyOptions opts;
    opts.downLinks = {{0, 0, +1}};
    opts.routeIssuesAreErrors = false;
    runPlan(em, t, p, opts);
  }
  {
    // Degraded audit of the MD step: the position-import and flush trees
    // span all three dimensions, so the repair pass re-covers every lost
    // destination with rerouted unicast paths.
    verify::CommPlan p = tools::buildNamedPlan("quickstart-md");
    p.name = "quickstart-md-degraded";
    verify::VerifyOptions opts;
    opts.downLinks = {{0, 0, +1}};
    opts.routeIssuesAreErrors = false;
    runPlan(em, t, p, opts);
  }
  // Degenerate torus with a traffic-carrying extent-1 dimension: pins the
  // reduced-offset half-shell dedup.
  runPlan(em, t, tools::buildNamedPlan("md-4x4x1"));
  runPlan(em, t, tools::buildNamedPlan("fft-pair-2x2x2"));
  runPlan(em, t, tools::buildNamedPlan("cluster-allreduce-512"));
  runPlan(em, t, tools::buildNamedPlan("table3-md-8x8x8"));

  bool ok = t.violations == 0 && t.recoveryLints == 0;
  std::ostringstream os;
  os << "{\"kind\":\"summary\",\"plans\":" << t.plans
     << ",\"violations\":" << t.violations << ",\"lints\":" << t.lints
     << ",\"recoveryLints\":" << t.recoveryLints
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
  em.line(os.str());
  std::cerr << (ok ? "verify_plans: OK" : "verify_plans: FAILED") << " ("
            << t.plans << " plans, " << t.violations << " violations, "
            << t.lints << " lints of which " << t.recoveryLints
            << " recovery-coverage (gating))\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 1) return runAudit();
    if (std::strcmp(argv[1], "--diff") == 0) {
      if (argc != 4) {
        std::cerr << "usage: verify_plans --diff <plan-or-file> "
                     "<plan-or-file>\n";
        return 2;
      }
      return runDiff(argv[2], argv[3]);
    }
    if (std::strcmp(argv[1], "--dump-plans") == 0) {
      if (argc != 3) {
        std::cerr << "usage: verify_plans --dump-plans <dir>\n";
        return 2;
      }
      return runDump(argv[2]);
    }
    if (argc == 2 && std::strcmp(argv[1], "--plan-keys") == 0)
      return runPlanKeys();
    if (argc == 2 && std::strcmp(argv[1], "--timing") == 0) return runTiming();
    if (std::strcmp(argv[1], "--update-goldens") == 0 && argc <= 3)
      return runUpdateGoldens(argc == 3 ? argv[2] : "tests/golden_plans");
    std::cerr << "usage: verify_plans [--dump-plans DIR] [--diff A B] "
                 "[--plan-keys] [--timing] [--update-goldens [DIR]]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "verify_plans: " << e.what() << "\n";
    return 2;
  }
}
