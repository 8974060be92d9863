// md-steps: host time per simulated MD step, the "host time per MD step"
// of the roadmap. A closed loop on one thread: the quickstart-md job
// (4x4x4 torus, 1536 atoms, serial kernel) is built once through the same
// public calls runJob makes and stepped with one runSteps(1) per step, so
// set-up and steps are timed apart. The sim event loop, net delivery and
// core/fft/md do nearly all of the work.
#include <optional>

#include "common.hpp"
#include "net/machine.hpp"

namespace perfbench {
namespace {

using namespace anton;

constexpr int kSetups = 5;      ///< set-ups per run; setup_s is their median
constexpr int kExactSteps = 10; ///< exact per-step counts use these steps

/// The objects of one quickstart-md job, in runJob's construction order.
struct MdRig {
  std::optional<net::Machine> machine;
  std::optional<md::AntonMdApp> app;
};

struct SetupTimes {
  double totalMs = 0, resetMs = 0, machineMs = 0, mdMs = 0;
  std::int64_t machineMinflt = 0;
};

SetupTimes setUp(MdRig& rig, sim::Simulator& arena,
                 const serve::JobSpec& spec, Tracer* tr) {
  SetupTimes t;
  Span all(tr, "md.setup");
  {
    Span s(tr, "sim.reset");
    arena.reset();
    t.resetMs = s.stop();
  }
  {
    Span s(tr, "net.machine_build");
    rig.machine.emplace(arena, spec.shape);
    t.machineMs = s.stop();
    t.machineMinflt = s.minflt();
  }
  md::MDSystem system;
  {
    Span s(tr, "md.system_build");
    system = md::buildSyntheticSystem(mdSystemFor(spec));
    t.mdMs += s.stop();
  }
  {
    Span s(tr, "md.app_build");
    rig.app.emplace(*rig.machine, std::move(system), mdConfigFor(spec));
    t.mdMs += s.stop();
  }
  t.totalMs = all.stop();
  return t;
}

/// Destroys the app, then the Machine; returns the Machine's destruction ms.
double tearDown(MdRig& rig, Tracer* tr) {
  {
    Span s(tr, "md.app_free");
    rig.app.reset();
  }
  Span s(tr, "net.machine_free");
  rig.machine.reset();
  return s.stop();
}

/// Steps one rig, checking every step against the pins and taking the
/// exact counts over its first kExactSteps steps.
class StepPass {
 public:
  StepPass(MdRig& rig, sim::Simulator& arena, Tracer* tr, const Pinned& pin,
           Checker& chk)
      : rig_(rig), arena_(arena), tr_(tr), pin_(pin), chk_(chk),
        events0_(arena.eventsProcessed()), stats0_(rig.machine->stats()) {
    stepMs.reserve(kMdPinnedSteps);
    longRange.reserve(kMdPinnedSteps);
  }

  int steps() const { return int(stepMs.size()); }

  /// One runSteps(1); returns its host ms.
  double step() {
    const int k = steps();
    const std::uint64_t allocs0 = threadAllocs();
    Span s(tr_, "md.step", std::uint64_t(k + 1), &arena_);
    rig_.app->runSteps(1);
    const double ms = s.stop();
    if (k < kExactSteps) exactAllocs += threadAllocs() - allocs0;
    stepMs.push_back(ms);
    const md::StepTiming& st = rig_.app->lastStep();
    longRange.push_back(st.longRange);
    chk_.expect(st.totalUs == pin_.mdStepUs[std::size_t(k)],
                "md step " + std::to_string(k + 1) +
                    ": simulated totalUs differs from the pinned value");
    if (k + 1 == kExactSteps) {
      exactEvents = arena_.eventsProcessed() - events0_;
      const net::MachineStats& now = rig_.machine->stats();
      exactStats.packetsInjected = now.packetsInjected - stats0_.packetsInjected;
      exactStats.linkTraversals = now.linkTraversals - stats0_.linkTraversals;
      exactStats.wireBytes = now.wireBytes - stats0_.wireBytes;
      exactStats.multicastForks = now.multicastForks - stats0_.multicastForks;
    }
    return ms;
  }

  /// Done stepping: checks the end state against its pinned digest.
  void finish(const Options& opt) {
    events = arena_.eventsProcessed() - events0_;
    const auto& timings = rig_.app->stepTimings();
    for (int k = 0; k < std::min(kExactSteps, steps()); ++k) {
      const md::StepTiming& st = timings[std::size_t(k)];
      simStepUs += st.totalUs / kExactSteps;
      simHtisUs += st.htisUs / kExactSteps;
      simFftUs += st.fftUs / kExactSteps;
      simForceWaitUs += st.forceWaitUs / kExactSteps;
    }
    std::string want = pin_.mdDigest.at(steps());
    if (opt.corruptDigest) want = corruptDigest(want, opt.seed);
    digest = positionDigest(*rig_.app);
    chk_.expect(digest == want, "md end state after " +
                                    std::to_string(steps()) +
                                    " steps: position digest " + digest +
                                    " differs from the pinned " + want);
  }

  std::vector<double> stepMs;
  std::vector<bool> longRange;
  std::uint64_t events = 0;  ///< over all steps
  // Over the first kExactSteps steps:
  std::uint64_t exactEvents = 0, exactAllocs = 0;
  net::MachineStats exactStats;
  double simStepUs = 0, simHtisUs = 0, simFftUs = 0, simForceWaitUs = 0;
  std::string digest;

 private:
  MdRig& rig_;
  sim::Simulator& arena_;
  Tracer* tr_;
  const Pinned& pin_;
  Checker& chk_;
  std::uint64_t events0_;
  net::MachineStats stats0_;
};

/// True while a loop started at `t0` should take another step: runs stop
/// only at a multiple of kMdStepQuantum, where the end state has a pinned
/// digest, once `seconds` have passed or the pinned steps run out.
bool keepStepping(int steps, Clock::time_point t0, double seconds) {
  if (steps >= kMdPinnedSteps) return false;
  return steps % kMdStepQuantum != 0 ||
         msBetween(t0, Clock::now()) < seconds * 1000.0;
}

double ratePerS(double count, double ms) { return ms > 0 ? count / (ms / 1000.0) : 0.0; }

Report untraced(const Options& opt, const Pinned& pin) {
  const serve::JobSpec spec = mdStepsSpec();
  Report r;
  Checker chk;
  sim::Simulator arena;
  MdRig rig;
  std::vector<double> setupMs;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) tearDown(rig, nullptr);
    setupMs.push_back(setUp(rig, arena, spec, nullptr).totalMs);
  }
  StepPass p(rig, arena, nullptr, pin, chk);
  const Clock::time_point t0 = Clock::now();
  while (keepStepping(p.steps(), t0, opt.seconds)) p.step();
  const double loopMs = msBetween(t0, Clock::now());
  p.finish(opt);
  tearDown(rig, nullptr);

  r.attempted = std::uint64_t(p.steps());
  r.failed = std::min(chk.failures(), r.attempted);
  for (const std::string& m : chk.messages()) std::fprintf(stderr, "FAILED %s\n", m.c_str());
  r.checksSound = mismatchIsCounted(p.digest, opt.seed);
  const double stepsPerS = ratePerS(p.steps(), loopMs);
  r.set("throughput_per_s", stepsPerS, "1/s");
  // Long-range work runs every other step, so single steps fall into two
  // classes and their median sits in the gap between them. The latency
  // samples are therefore per-step means over each short/long pair.
  std::vector<double> pairMs;
  for (std::size_t k = 0; k + 1 < p.stepMs.size(); k += 2)
    pairMs.push_back((p.stepMs[k] + p.stepMs[k + 1]) / 2);
  r.set("latency_p50_ms", median(pairMs), "ms");
  r.set("latency_p90_ms", percentile(pairMs, 90), "ms");
  r.set("peak_rss_mb", peakRssMb(), "MB");
  r.set("setup_s", median(setupMs) / 1000.0, "s");
  std::fprintf(stderr, "md-steps: %d steps in %.1f s\n", p.steps(),
               loopMs / 1000.0);
  std::fprintf(stderr, "METRIC md_steps_per_s %.17g steps/s\n", stepsPerS);
  return r;
}

Report traced(const Options& opt, const Pinned& pin) {
  const serve::JobSpec spec = mdStepsSpec();
  Report r;
  Checker chk;
  sim::Simulator arena, twinArena;
  MdRig rig, twin;
  // Warm-up, so neither pass below pays the process's first Machine.
  setUp(rig, arena, spec, nullptr);
  tearDown(rig, nullptr);

  // The traced pass and an untraced twin of it are set up and stepped
  // alternately, so drift in host speed cancels out of the overhead.
  const SetupTimes st = setUp(rig, arena, spec, opt.tracer);
  double tracedMs = st.totalMs;
  double untracedMs = setUp(twin, twinArena, spec, nullptr).totalMs;
  StepPass p(rig, arena, opt.tracer, pin, chk);
  StepPass u(twin, twinArena, nullptr, pin, chk);
  const Clock::time_point t0 = Clock::now();
  while (keepStepping(p.steps(), t0, opt.seconds / 2)) {
    tracedMs += p.step();
    untracedMs += u.step();
  }
  double stepsMs = 0;
  for (double ms : p.stepMs) stepsMs += ms;
  p.finish(opt);
  u.finish(opt);
  const double freeMs = tearDown(rig, opt.tracer);
  tearDown(twin, nullptr);

  r.attempted = std::uint64_t(p.steps() + u.steps());
  r.failed = std::min(chk.failures(), r.attempted);
  for (const std::string& m : chk.messages()) std::fprintf(stderr, "FAILED %s\n", m.c_str());
  r.checksSound = mismatchIsCounted(p.digest, opt.seed);

  std::vector<double> shortMs, longMs;
  for (std::size_t k = 0; k < p.stepMs.size(); ++k)
    (p.longRange[k] ? longMs : shortMs).push_back(p.stepMs[k]);
  r.set("net.machine_build_ms", st.machineMs, "ms");
  r.set("net.machine_free_ms", freeMs, "ms");
  r.set("net.minflt_per_machine", double(st.machineMinflt), "count");
  r.setExact("net.packets_per_step", double(p.exactStats.packetsInjected) / kExactSteps, "count");
  r.setExact("net.link_traversals_per_step", double(p.exactStats.linkTraversals) / kExactSteps, "count");
  r.setExact("net.wire_bytes_per_step", double(p.exactStats.wireBytes) / kExactSteps, "B");
  r.setExact("net.multicast_forks_per_step", double(p.exactStats.multicastForks) / kExactSteps, "count");
  r.setExact("sim.events_per_step", double(p.exactEvents) / kExactSteps, "count");
  r.set("sim.events_per_s", ratePerS(double(p.events), stepsMs), "1/s");
  r.setExact("sim.allocs_per_event", double(p.exactAllocs) / double(p.exactEvents), "count");
  r.set("sim.reset_ms", st.resetMs, "ms");
  r.set("md.setup_ms", st.mdMs, "ms");
  r.set("md.step_ms.short", median(shortMs), "ms");
  r.set("md.step_ms.long_range", median(longMs), "ms");
  r.setExact("md.sim_step_us", p.simStepUs, "us");
  r.setExact("md.sim_htis_us", p.simHtisUs, "us");
  r.setExact("md.sim_fft_us", p.simFftUs, "us");
  r.setExact("md.sim_force_wait_us", p.simForceWaitUs, "us");
  r.set("trace.overhead_frac", tracedMs / untracedMs - 1.0, "fraction");
  std::fprintf(stderr,
               "md-steps traced: %d steps, traced %.1f ms vs untraced %.1f ms\n",
               p.steps(), tracedMs, untracedMs);
  return r;
}

}  // namespace

Report runMdSteps(const Options& opt, const Pinned& pin) {
  return opt.trace ? traced(opt, pin) : untraced(opt, pin);
}

}  // namespace perfbench
