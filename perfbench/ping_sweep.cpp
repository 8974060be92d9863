// ping-sweep: the full Fig. 5 set (fig5PingSpec(12, 256): hops 0..12,
// 0 B and 256 B, one-way and bidirectional) run with runJob on one arena,
// in a closed loop on one thread. Almost all of the time is building and
// freeing the 512-node Machine and faulting its memory in; the sim kernel
// does almost nothing (4 events per probe). It shows Machine and memory
// work and bypasses kernel work, the reverse of md-steps.
#include <optional>

#include "common.hpp"
#include "net/machine.hpp"
#include "net/probe.hpp"
#include "serve/runner.hpp"

namespace perfbench {
namespace {

using namespace anton;

constexpr int kSetups = 3;  ///< set-ups per run; setup_s is their median

int pointsOf(const serve::JobSpec& spec) {
  return (spec.maxHops + 1) * (spec.payloadBytes != 0 ? 2 : 1) * 2;
}

/// Set-up: the arena's first Machine of the spec's shape, built and freed,
/// so the measured jobs do not pay the process's first page faults.
double setUp(sim::Simulator& arena, const serve::JobSpec& spec) {
  Span s(nullptr, "ping.setup");
  arena.reset();
  std::optional<net::Machine> machine;
  machine.emplace(arena, spec.shape);
  machine.reset();
  return s.stop();
}

/// Checks one job's outcome; returns false on any mismatch.
bool checkJob(const std::map<std::string, double>& metrics,
              const std::string& digest, const Pinned& pin,
              const Options& opt, Checker& chk, int job) {
  const std::uint64_t before = chk.failures();
  std::string want = pin.pingDigest;
  if (opt.corruptDigest && job == 0) want = corruptDigest(want, opt.seed);
  chk.expect(digest == want, "fig5 job " + std::to_string(job) + ": digest " +
                                 digest + " differs from the pinned " + want);
  auto it = metrics.find("one_hop_ns");
  chk.expect(it != metrics.end() && it->second == 162.0,
             "fig5 job " + std::to_string(job) +
                 ": one_hop_ns is not the paper's 162 ns");
  return chk.failures() == before;
}

Report untraced(const Options& opt, const Pinned& pin) {
  const serve::JobSpec spec = pingSweepSpec();
  const int points = pointsOf(spec);
  Report r;
  Checker chk;
  sim::Simulator arena;
  std::vector<double> setupMs;
  for (int i = 0; i < kSetups; ++i) setupMs.push_back(setUp(arena, spec));

  std::vector<double> msPerPoint;
  std::string lastDigest;
  const Clock::time_point t0 = Clock::now();
  int jobs = 0;
  do {
    Span s(nullptr, "serve.run");
    serve::RunOutcome out = serve::runJob(spec, arena);
    msPerPoint.push_back(s.stop() / points);
    lastDigest = util::hex64(out.digest);
    r.attempted += std::uint64_t(points);
    if (!checkJob(out.metrics, lastDigest, pin, opt, chk, jobs))
      r.failed += std::uint64_t(points);
    ++jobs;
  } while (msBetween(t0, Clock::now()) < opt.seconds * 1000.0);
  const double loopMs = msBetween(t0, Clock::now());

  for (const std::string& m : chk.messages()) std::fprintf(stderr, "FAILED %s\n", m.c_str());
  r.checksSound = mismatchIsCounted(lastDigest, opt.seed);
  const double pointsPerS = double(jobs * points) / (loopMs / 1000.0);
  r.set("throughput_per_s", pointsPerS, "1/s");
  r.set("latency_p50_ms", median(msPerPoint), "ms");
  r.set("latency_p90_ms", percentile(msPerPoint, 90), "ms");
  r.set("peak_rss_mb", peakRssMb(), "MB");
  r.set("setup_s", median(setupMs) / 1000.0, "s");
  std::fprintf(stderr, "ping-sweep: %d jobs x %d points in %.1f s\n", jobs,
               points, loopMs / 1000.0);
  std::fprintf(stderr, "METRIC ping_points_per_s %.17g points/s\n", pointsPerS);
  return r;
}

Report traced(const Options& opt, const Pinned& pin) {
  const serve::JobSpec spec = pingSweepSpec();
  const int points = pointsOf(spec);
  Tracer* tr = opt.tracer;
  Report r;
  Checker chk;
  sim::Simulator arena;
  setUp(arena, spec);

  // The calls runFig5Ping makes, one span each: reset the arena, build a
  // Machine with the spec's config, probe, destroy the Machine.
  std::vector<double> buildMs, freeMs, minflt, probeUs, resetMs;
  std::uint64_t events = 0, allocs = 0;
  double probeMs = 0;
  net::MachineStats sum;
  auto measure = [&](int hops, int payload, bool bidir) {
    Span point(tr, "ping.point", std::uint64_t(probeUs.size() + 1));
    {
      Span s(tr, "sim.reset");
      arena.reset();
      resetMs.push_back(s.stop());
    }
    std::optional<net::Machine> machine;
    {
      Span s(tr, "net.machine_build");
      machine.emplace(arena, spec.shape, net::MachineConfig{});
      buildMs.push_back(s.stop());
      minflt.push_back(double(s.minflt()));
    }
    net::ClientAddr src{0, net::kSlice0};
    net::ClientAddr dst{util::torusIndex(destAtHops(hops), machine->shape()),
                        hops == 0 ? net::kSlice1 : net::kSlice0};
    double ns = 0;
    {
      const std::uint64_t allocs0 = threadAllocs();
      Span s(tr, "net.probe", 0, &arena);
      ns = bidir ? net::bidirLatencyNs(*machine, src, dst, std::size_t(payload))
                 : net::oneWayLatencyNs(*machine, src, dst,
                                        std::size_t(payload), true);
      const double ms = s.stop();
      allocs += threadAllocs() - allocs0;
      probeMs += ms;
      probeUs.push_back(ms * 1000.0);
      events += s.events();
    }
    const net::MachineStats& st = machine->stats();
    sum.packetsInjected += st.packetsInjected;
    sum.linkTraversals += st.linkTraversals;
    sum.wireBytes += st.wireBytes;
    sum.multicastForks += st.multicastForks;
    {
      Span s(tr, "net.machine_free");
      machine.reset();
      freeMs.push_back(s.stop());
    }
    return ns;
  };

  // Untraced runJob before and after the traced pass; their mean wall time
  // is the base of the tracing overhead, so drift in host speed cancels.
  Clock::time_point t0 = Clock::now();
  serve::RunOutcome out = serve::runJob(spec, arena);
  double untracedMs = msBetween(t0, Clock::now());

  t0 = Clock::now();
  std::map<std::string, double> m;
  {
    Span job(tr, "ping.job", 1);
    std::vector<int> payloads = {0};
    if (spec.payloadBytes != 0) payloads.push_back(spec.payloadBytes);
    for (int h = 0; h <= spec.maxHops; ++h)
      for (int payload : payloads) {
        std::string tail = std::to_string(payload) + "_h" + std::to_string(h);
        m["uni" + tail] = measure(h, payload, false);
        m["bidir" + tail] = measure(h, payload, true);
      }
    m["one_hop_ns"] = m.at("uni0_h1");
  }
  const double tracedMs = msBetween(t0, Clock::now());

  t0 = Clock::now();
  serve::RunOutcome after = serve::runJob(spec, arena);
  untracedMs = (untracedMs + msBetween(t0, Clock::now())) / 2;

  // The decomposition must reproduce runJob exactly: same values, same digest.
  const std::string digest = metricsDigest(m);
  r.attempted = 3 * std::uint64_t(points);
  int job = 0;
  for (const serve::RunOutcome* o : {&out, &after}) {
    if (!checkJob(o->metrics, util::hex64(o->digest), pin, opt, chk, job++))
      r.failed += std::uint64_t(points);
  }
  if (!checkJob(m, digest, pin, opt, chk, job)) r.failed += std::uint64_t(points);
  chk.expect(m == out.metrics, "traced fig5 values differ from runJob's");
  if (m != out.metrics) r.failed = std::max<std::uint64_t>(r.failed, 1);
  for (const std::string& msg : chk.messages()) std::fprintf(stderr, "FAILED %s\n", msg.c_str());
  r.checksSound = mismatchIsCounted(digest, opt.seed);

  const double n = double(points);
  r.set("net.machine_build_ms", median(buildMs), "ms");
  r.set("net.machine_free_ms", median(freeMs), "ms");
  double faults = 0;
  for (double f : minflt) faults += f;
  r.set("net.minflt_per_machine", faults / n, "count");
  r.setExact("net.packets_per_step", double(sum.packetsInjected) / n, "count");
  r.setExact("net.link_traversals_per_step", double(sum.linkTraversals) / n, "count");
  r.setExact("net.wire_bytes_per_step", double(sum.wireBytes) / n, "B");
  r.setExact("net.multicast_forks_per_step", double(sum.multicastForks) / n, "count");
  r.set("net.probe_us", median(probeUs), "us");
  r.setExact("sim.events_per_step", double(events) / n, "count");
  r.set("sim.events_per_s", double(events) / (probeMs / 1000.0), "1/s");
  r.setExact("sim.allocs_per_event", double(allocs) / double(events), "count");
  r.set("sim.reset_ms", median(resetMs), "ms");
  r.set("trace.overhead_frac", tracedMs / untracedMs - 1.0, "fraction");
  std::fprintf(stderr, "ping-sweep traced: %d points, traced %.1f ms vs untraced %.1f ms\n",
               points, tracedMs, untracedMs);
  return r;
}

}  // namespace

Report runPingSweep(const Options& opt, const Pinned& pin) {
  return opt.trace ? traced(opt, pin) : untraced(opt, pin);
}

}  // namespace perfbench
