// serve-mix: the service path, as an open loop. The main thread submits
// every job as a protocol "submit" line through serve::handleLine to a
// JobServer with 3 workers (4 threads in all), at seeded Poisson arrival
// times of one fixed offered rate. Each job is timed from its due time:
// (submit - due) + the turnaroundMs its record reports. A little over half
// of the submissions repeat a spec the warm-up cached, with the cache on (a
// hit: the reads); the others are forced past the cache (useCache false:
// verify + run + store, the writes). Then the same draw is
// submitted again to a fresh server with a queue-capacity window
// outstanding, which measures capacity. planForSpec, jobKey and verifyPlan
// carry most of the cost here; they do no work in the other two workloads.
//
// fig5-ping jobs are left out of the pool: one takes seconds, so the tail
// would count how many landed in a run. ping-sweep measures that cost.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>

#include "common.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "serve/server.hpp"
#include "sim/rng.hpp"
#include "util/json.hpp"
#include "verify/checks.hpp"

namespace perfbench {
namespace {

using namespace anton;
namespace json = util::json;

constexpr int kWorkers = 3;
constexpr std::size_t kQueueCapacity = 64;
/// Offered load: about 35% of the capacity this workload measures on a
/// 4-core host. At 70% the tail swung from 85 to 133 ms between seeds;
/// queueing at that load amplifies host noise.
constexpr double kOfferedRatePerS = 50.0;
/// The fixed turnaround limit a job must meet.
constexpr double kTurnaroundLimitMs = 500.0;
/// Share of --seconds the open loop offers load for.
constexpr double kOpenLoopShare = 0.65;
constexpr int kSetups = 5;  ///< server set-ups per run; setup_s is their median

struct Arrival {
  double dueS = 0;
  std::size_t pool = 0;
  bool useCache = false;
  std::string line;  ///< the protocol submit line
};

std::string submitLine(const serve::JobSpec& spec, bool useCache) {
  return "{\"op\":\"submit\",\"spec\":" + serve::specToJson(spec) +
         ",\"useCache\":" + (useCache ? "true" : "false") + "}";
}

/// One block of the open loop's draw: the fixed job mix every seed offers.
/// Service times (one warm worker, hit / miss) group into classes: 2x2x2
/// jobs 2-8 ms, 4x4x4 all-reduce and fault-sweep jobs 17-20 / 33-45 ms and
/// quickstart-md 45 / 250 ms. The mix puts the median inside the 4x4x4 hits
/// and the 90th percentile inside the 4x4x4 misses, away from the gaps
/// between classes, where a small shift of load makes a percentile jump.
/// The heaviest job, a quickstart-md miss, comes in every other block (~1%
/// of jobs). Hits (useCache true; the warm-up cached every spec) are a
/// little over half.
std::vector<std::pair<std::size_t, bool>> blockRecipe(
    const std::vector<serve::JobSpec>& pool, std::size_t block) {
  std::vector<std::size_t> qmd;
  std::vector<std::pair<std::size_t, bool>> out;
  auto add = [&](std::size_t i, int hits, int misses) {
    for (int k = 0; k < hits; ++k) out.push_back({i, true});
    for (int k = 0; k < misses; ++k) out.push_back({i, false});
  };
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::JobSpec& s = pool[i];
    if (s.family == serve::JobFamily::kQuickstartMd) {
      qmd.push_back(i);
      add(i, 1, 0);
    } else if (s.shape.size() >= 64) {
      add(i, 3, 2);
    } else {
      add(i, 1, 1);
    }
  }
  // The quickstart-md miss rotates over its specs from block to block.
  if (block % 2 == 1) add(qmd[block / 2 % qmd.size()], 0, 1);
  return out;
}

/// The open loop's draw: whole blocks, each in a seeded order, so every
/// seed offers the same work. Arrival times are a Poisson process of rate
/// kOfferedRatePerS conditioned on the job count: seeded uniform times over
/// the window, sorted.
std::vector<Arrival> drawArrivals(const std::vector<serve::JobSpec>& pool,
                                  std::uint64_t seed, double seconds) {
  sim::Rng rng(seed);
  const double blockJobs = double(blockRecipe(pool, 0).size() +
                                  blockRecipe(pool, 1).size()) / 2;
  // At least four blocks, so every quickstart-md spec is drawn as a miss.
  const std::size_t blocks = std::max<std::size_t>(
      4, std::size_t(std::lround(kOfferedRatePerS * seconds * kOpenLoopShare /
                                 blockJobs)));
  std::vector<Arrival> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<std::pair<std::size_t, bool>> kinds = blockRecipe(pool, b);
    for (std::size_t i = kinds.size() - 1; i > 0; --i)
      std::swap(kinds[i], kinds[rng.below(i + 1)]);
    for (const auto& [idx, useCache] : kinds) {
      Arrival a;
      a.pool = idx;
      a.useCache = useCache;
      a.line = submitLine(pool[idx], useCache);
      out.push_back(std::move(a));
    }
  }
  const double windowS = double(out.size()) / kOfferedRatePerS;
  std::vector<double> due(out.size());
  for (double& t : due) t = rng.uniform() * windowS;
  std::sort(due.begin(), due.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].dueS = due[i];
  return out;
}

/// One submission and its terminal record, as the protocol reported them.
struct Job {
  std::size_t pool = 0;
  bool accepted = false;
  std::uint64_t id = 0;
  double lateMs = 0;    ///< submit - due
  double submitUs = 0;  ///< handleLine(submit) call
  std::string state;
  double turnaroundMs = 0;
  bool cacheHit = false;
  int violations = 0;
  std::string cacheKey;
  std::string digest;
  std::map<std::string, double> metrics;
};

json::Value request(serve::JobServer& server, const std::string& line) {
  return json::parse(serve::handleLine(server, line).response, "response");
}

void submit(serve::JobServer& server, Job& job, const std::string& line,
            Tracer* tr) {
  json::Value resp;
  {
    Span s(tr, "serve.submit");
    std::string text = serve::handleLine(server, line).response;
    job.submitUs = s.stop() * 1000.0;
    resp = json::parse(text, "submit response");
  }
  job.accepted = json::asBool(json::field(resp, "ok", "ok"), "ok");
  if (job.accepted) job.id = json::asU64(json::field(resp, "id", "id"), "id");
}

void awaitJob(serve::JobServer& server, Job& job) {
  if (!job.accepted) return;
  json::Value resp = request(
      server, "{\"op\":\"wait\",\"id\":" + std::to_string(job.id) + "}");
  const json::Value& rec = json::field(resp, "job", "job");
  job.state = json::asString(json::field(rec, "state", "state"), "state");
  job.turnaroundMs = json::asDouble(json::field(rec, "turnaroundMs", "t"), "t");
  job.cacheHit = json::asBool(json::field(rec, "cacheHit", "cacheHit"), "hit");
  job.violations = json::asInt(json::field(rec, "violations", "v"), "v");
  job.cacheKey = json::asString(json::field(rec, "cacheKey", "key"), "key");
  const json::Value& result = json::field(rec, "result", "result");
  if (result.type == json::Value::kObject) {
    job.digest = json::asString(json::field(result, "digest", "d"), "d");
    for (const auto& [k, v] : json::field(result, "metrics", "m").obj)
      job.metrics[k] = json::asDouble(v, "metric");
  }
}

/// Counts a job as failed unless it finished, verified clean and matches
/// its pinned digest. `corrupt` swaps in a corrupted pin (the self-check).
bool checkJob(const Job& job, const std::vector<serve::JobSpec>& pool,
              const Pinned& pin, bool corrupt, std::uint64_t seed,
              Checker& chk) {
  const std::uint64_t before = chk.failures();
  const std::string what = "serve job " + std::to_string(job.id) + " (" +
                           serve::familyName(pool[job.pool].family) + ")";
  chk.expect(job.accepted, what + ": rejected");
  if (!job.accepted) return false;
  chk.expect(job.state == "done", what + ": ended " + job.state);
  chk.expect(job.violations == 0, what + ": plan violations");
  std::string want = pin.pool.at(serve::specToJson(pool[job.pool])).digest;
  if (corrupt) want = corruptDigest(want, seed);
  chk.expect(job.digest == want,
             what + ": digest " + job.digest + " differs from the pinned " + want);
  return chk.failures() == before;
}

/// A server with its workers warmed up: every pool spec run once, so each
/// worker's allocator and the result cache are warm, as in a long-running
/// service. Returns the set-up time through `ms`.
std::unique_ptr<serve::JobServer> setUpServer(
    const std::vector<serve::JobSpec>& pool, const Pinned& pin, Checker& chk,
    Report& r, double& ms) {
  const Clock::time_point t0 = Clock::now();
  auto server = std::make_unique<serve::JobServer>(
      serve::ServerConfig{.workers = kWorkers, .queueCapacity = kQueueCapacity});
  // Largest jobs first, so the warm-up's makespan varies little.
  std::vector<Job> warm(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    warm[i].pool = pool.size() - 1 - i;
    submit(*server, warm[i], submitLine(pool[warm[i].pool], false), nullptr);
  }
  for (Job& job : warm) awaitJob(*server, job);
  ms = msBetween(t0, Clock::now());
  for (const Job& job : warm) {
    ++r.attempted;
    if (!checkJob(job, pool, pin, false, 0, chk)) ++r.failed;
  }
  return server;
}

struct OpenLoop {
  std::vector<Job> jobs;
  json::Value status;
};

OpenLoop runOpenLoop(serve::JobServer& server,
                     const std::vector<Arrival>& arrivals, Tracer* tr) {
  OpenLoop ol;
  ol.jobs.resize(arrivals.size());
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(arrivals[i].dueS));
    std::this_thread::sleep_until(due);
    Job& job = ol.jobs[i];
    job.pool = arrivals[i].pool;
    job.lateMs = msBetween(due, Clock::now());
    submit(server, job, arrivals[i].line, tr);
  }
  for (Job& job : ol.jobs) awaitJob(server, job);
  ol.status = json::field(request(server, "{\"op\":\"status\"}"), "status",
                          "status");
  return ol;
}

/// The open loop's jobs are split into this many equal windows; the reported
/// percentiles are medians over the windows, so a burst of host noise in
/// one window does not move them.
constexpr std::size_t kWindows = 5;

/// Median over kWindows consecutive equal slices of `samples` of each
/// slice's p-th percentile.
double windowedPercentile(const std::vector<double>& samples, double p) {
  const std::size_t n = samples.size() / kWindows;
  if (n == 0) return percentile(samples, p);
  std::vector<double> perWindow;
  for (std::size_t w = 0; w < kWindows; ++w)
    perWindow.push_back(percentile(
        {samples.begin() + std::ptrdiff_t(w * n),
         samples.begin() + std::ptrdiff_t((w + 1) * n)},
        p));
  return median(perWindow);
}

double statusNumber(const json::Value& status, const char* key) {
  return json::asDouble(json::field(status, key, key), key);
}

/// The same draw again, keeping a queue-capacity window of jobs
/// outstanding. Returns the capacity in jobs/s, counted while the window
/// was full (first submission to last submission), so the drain at the end,
/// when workers fall idle, does not count.
double runSaturation(serve::JobServer& server,
                     const std::vector<Arrival>& arrivals,
                     std::vector<Job>& jobs) {
  jobs.assign(arrivals.size(), Job{});
  std::deque<std::size_t> window;
  std::size_t completed = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point lastSubmit = t0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (window.size() >= kQueueCapacity) {
      awaitJob(server, jobs[window.front()]);
      window.pop_front();
      ++completed;
    }
    jobs[i].pool = arrivals[i].pool;
    lastSubmit = Clock::now();
    submit(server, jobs[i], arrivals[i].line, nullptr);
    window.push_back(i);
  }
  for (std::size_t i : window) awaitJob(server, jobs[i]);
  return double(completed) / (msBetween(t0, lastSubmit) / 1000.0);
}

/// Checks the open loop's jobs and server audits; returns per-job turnaround
/// from the due time.
std::vector<double> checkOpenLoop(const OpenLoop& ol,
                                  const std::vector<serve::JobSpec>& pool,
                                  const Pinned& pin, const Options& opt,
                                  Checker& chk, Report& r,
                                  std::uint64_t& limitMisses) {
  std::vector<double> fromDue;
  const std::size_t corruptAt =
      opt.corruptDigest ? std::size_t(opt.seed % ol.jobs.size()) : ol.jobs.size();
  for (std::size_t i = 0; i < ol.jobs.size(); ++i) {
    const Job& job = ol.jobs[i];
    ++r.attempted;
    const bool ok = checkJob(job, pool, pin, i == corruptAt, opt.seed, chk);
    if (!ok) ++r.failed;
    const double t = job.lateMs + job.turnaroundMs;
    if (job.accepted) fromDue.push_back(t);
    if (!ok || t > kTurnaroundLimitMs) ++limitMisses;
  }
  const double dirty = statusNumber(ol.status, "arenaDirtyResets");
  chk.expect(dirty == 0, "server reported dirty arena resets");
  r.failed += std::uint64_t(dirty);
  return fromDue;
}

Report untraced(const Options& opt, const Pinned& pin) {
  const std::vector<serve::JobSpec> pool = servePool();
  const std::vector<Arrival> arrivals =
      drawArrivals(pool, opt.seed, opt.seconds);
  Report r;
  Checker chk;
  std::vector<double> setupMs(kSetups);
  // The last two set-ups serve the two phases; the others are throwaways.
  for (int i = 0; i < kSetups - 2; ++i)
    setUpServer(pool, pin, chk, r, setupMs[std::size_t(i)]).reset();

  auto server = setUpServer(pool, pin, chk, r, setupMs[kSetups - 2]);
  OpenLoop ol = runOpenLoop(*server, arrivals, nullptr);
  server.reset();
  std::uint64_t limitMisses = 0;
  std::vector<double> fromDue =
      checkOpenLoop(ol, pool, pin, opt, chk, r, limitMisses);

  server = setUpServer(pool, pin, chk, r, setupMs[kSetups - 1]);
  std::vector<Job> sat;
  const Clock::time_point satStart = Clock::now();
  const double capacity = runSaturation(*server, arrivals, sat);
  const double satMs = msBetween(satStart, Clock::now());
  const double satDirty = statusNumber(
      json::field(request(*server, "{\"op\":\"status\"}"), "status", "status"),
      "arenaDirtyResets");
  server.reset();
  chk.expect(satDirty == 0, "saturation server reported dirty arena resets");
  r.failed += std::uint64_t(satDirty);
  for (const Job& job : sat) {
    ++r.attempted;
    if (!checkJob(job, pool, pin, false, 0, chk)) ++r.failed;
  }

  for (const std::string& m : chk.messages()) std::fprintf(stderr, "FAILED %s\n", m.c_str());
  r.checksSound = !ol.jobs.empty() && mismatchIsCounted(ol.jobs[0].digest, opt.seed);
  const double missFrac = double(limitMisses) / double(ol.jobs.size());
  r.set("throughput_per_s", capacity, "1/s");
  const double p50 = windowedPercentile(fromDue, 50);
  const double p90 = windowedPercentile(fromDue, 90);
  r.set("latency_p50_ms", p50, "ms");
  r.set("latency_p90_ms", p90, "ms");
  r.set("peak_rss_mb", peakRssMb(), "MB");
  r.set("setup_s", median(setupMs) / 1000.0, "s");
  std::fprintf(stderr,
               "serve-mix: %zu jobs offered at %.1f/s over %.1f s, turnaround "
               "limit %.0f ms; saturation %zu jobs in %.1f s\n",
               ol.jobs.size(), kOfferedRatePerS, arrivals.back().dueS,
               kTurnaroundLimitMs,
               sat.size(), satMs / 1000.0);
  std::fprintf(stderr, "METRIC turnaround_p50_ms %.17g ms\n", p50);
  std::fprintf(stderr, "METRIC turnaround_p90_ms %.17g ms\n", p90);
  std::fprintf(stderr, "METRIC limit_miss_frac %.17g fraction\n", missFrac);
  std::fprintf(stderr, "METRIC capacity_jobs_per_s %.17g jobs/s\n", capacity);
  return r;
}

/// Per-layer times of the serial replay.
struct Replay {
  double tracedMs = 0, untracedMs = 0;
  std::vector<double> serviceMs;  ///< per open-loop job (traced copy)
  std::map<std::string, std::vector<double>> planMs;  ///< per family
  std::vector<double> keyMs, checkMs, resetMs;
  std::uint64_t events = 0, allocs = 0, runs = 0;
  double runMs = 0;
  int violations = 0;
};

/// One job as a worker executes it: plan + key, and on a miss verify +
/// reset + run. Records per-layer times into `rp` when it is given.
double serveOne(const Job& job, const serve::JobSpec& spec,
                sim::Simulator& arena, Tracer* tr, Replay* rp, Checker& chk) {
  Span all(tr, "serve.job", job.id);
  verify::CommPlan plan;
  {
    Span s(tr, "plan.build", job.id);
    plan = serve::planForSpec(spec);
    if (rp) rp->planMs[serve::familyName(spec.family)].push_back(s.stop());
  }
  {
    Span s(tr, "verify.key", job.id);
    const std::uint64_t key = serve::jobKey(spec, plan);
    if (rp) rp->keyMs.push_back(s.stop());
    chk.expect(util::hex64(key) == job.cacheKey,
               "replayed cache key differs for job " + std::to_string(job.id));
  }
  if (job.cacheHit) return all.stop();
  {
    Span s(tr, "verify.check", job.id);
    verify::VerifyResult vr = verify::verifyPlan(plan);
    if (rp) rp->checkMs.push_back(s.stop());
    if (rp) rp->violations += int(vr.violations.size());
  }
  {
    Span s(tr, "sim.reset", job.id);
    arena.reset();
    if (rp) rp->resetMs.push_back(s.stop());
  }
  const std::uint64_t allocs0 = threadAllocs();
  const std::uint64_t events0 = arena.eventsProcessed();
  Span s(tr, "serve.run", job.id, &arena);
  serve::RunOutcome out = serve::runJob(spec, arena);
  const double runMs = s.stop();
  if (rp) {
    rp->runMs += runMs;
    rp->events += arena.eventsProcessed() - events0;
    rp->allocs += threadAllocs() - allocs0;
    ++rp->runs;
  }
  chk.expect(util::hex64(out.digest) == job.digest,
             "replayed digest differs for job " + std::to_string(job.id));
  return all.stop();
}

/// Replays the open loop's jobs serially on one arena, each once traced and
/// once untraced, alternating which goes first so host drift cancels.
Replay replay(const std::vector<Job>& jobs,
              const std::vector<serve::JobSpec>& pool, Tracer* tr,
              Checker& chk) {
  Replay rp;
  sim::Simulator arena;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    if (job.state != "done") {
      rp.serviceMs.push_back(0);
      continue;
    }
    const serve::JobSpec& spec = pool[job.pool];
    if (i % 2 == 1) rp.untracedMs += serveOne(job, spec, arena, nullptr, nullptr, chk);
    const double ms = serveOne(job, spec, arena, tr, &rp, chk);
    rp.tracedMs += ms;
    rp.serviceMs.push_back(ms);
    if (i % 2 == 0) rp.untracedMs += serveOne(job, spec, arena, nullptr, nullptr, chk);
  }
  return rp;
}

Report traced(const Options& opt, const Pinned& pin) {
  const std::vector<serve::JobSpec> pool = servePool();
  const std::vector<Arrival> arrivals =
      drawArrivals(pool, opt.seed, opt.seconds);
  Report r;
  Checker chk;
  double setupMs = 0;
  auto server = setUpServer(pool, pin, chk, r, setupMs);
  OpenLoop ol = runOpenLoop(*server, arrivals, opt.tracer);
  server.reset();
  std::uint64_t limitMisses = 0;
  std::vector<double> fromDue =
      checkOpenLoop(ol, pool, pin, opt, chk, r, limitMisses);

  // Queue wait = turnaround minus the service time of the same job, which
  // the replay measures serially on one arena.
  const Replay rp = replay(ol.jobs, pool, opt.tracer, chk);
  for (const std::string& m : chk.messages()) std::fprintf(stderr, "FAILED %s\n", m.c_str());
  r.checksSound = !ol.jobs.empty() && mismatchIsCounted(ol.jobs[0].digest, opt.seed);

  std::vector<double> queueWait, submitUs, late;
  std::uint64_t hits = 0, done = 0, violations = 0;
  std::map<std::string, double> counts;
  for (std::size_t i = 0; i < ol.jobs.size(); ++i) {
    const Job& job = ol.jobs[i];
    submitUs.push_back(job.submitUs);
    late.push_back(job.lateMs);
    if (job.state != "done") continue;
    ++done;
    hits += job.cacheHit ? 1 : 0;
    violations += std::uint64_t(job.violations);
    queueWait.push_back(job.turnaroundMs - rp.serviceMs[i]);
    for (const char* k : {"resends", "timeouts", "hard_failures",
                          "crc_retransmits", "link_failures"}) {
      auto it = job.metrics.find(k);
      if (it != job.metrics.end()) counts[k] += it->second;
    }
  }
  double busy = 0;
  for (const json::Value& w : json::field(ol.status, "workers", "workers").arr)
    busy += json::asDouble(json::field(w, "utilization", "u"), "u") / kWorkers;

  for (const auto& [family, ms] : rp.planMs)
    r.set("plan.build_ms." + family, median(ms), "ms");
  r.set("verify.key_ms", median(rp.keyMs), "ms");
  r.set("verify.check_ms", median(rp.checkMs), "ms");
  r.setExact("verify.violations", double(violations + std::uint64_t(rp.violations)), "count");
  r.set("serve.submit_us", median(submitUs), "us");
  r.set("serve.queue_wait_ms", median(queueWait), "ms");
  r.setExact("serve.cache_hit_ratio", done ? double(hits) / double(done) : 0.0, "fraction");
  r.set("serve.worker_busy_frac", busy, "fraction");
  r.setExact("serve.rejected", statusNumber(ol.status, "rejected"), "count");
  r.setExact("serve.arena_dirty_resets", statusNumber(ol.status, "arenaDirtyResets"), "count");
  r.set("serve.limit_miss_frac", double(limitMisses) / double(ol.jobs.size()), "fraction");
  r.setExact("core.resends", counts["resends"], "count");
  r.setExact("core.timeouts", counts["timeouts"], "count");
  r.setExact("core.hard_failures", counts["hard_failures"], "count");
  r.setExact("fault.crc_retransmits", counts["crc_retransmits"], "count");
  r.setExact("fault.link_failures", counts["link_failures"], "count");
  if (rp.runs > 0) {
    r.setExact("sim.events_per_step", double(rp.events) / double(rp.runs), "count");
    r.set("sim.events_per_s", double(rp.events) / (rp.runMs / 1000.0), "1/s");
    r.setExact("sim.allocs_per_event", double(rp.allocs) / double(rp.events), "count");
  }
  r.set("sim.reset_ms", median(rp.resetMs), "ms");
  r.set("loadgen.late_p90_ms", percentile(late, 90), "ms");
  r.set("trace.overhead_frac", rp.tracedMs / rp.untracedMs - 1.0, "fraction");
  std::fprintf(stderr,
               "serve-mix traced: %zu jobs, replay traced %.1f ms vs untraced %.1f ms\n",
               ol.jobs.size(), rp.tracedMs, rp.untracedMs);
  return r;
}

}  // namespace

Report runServeMix(const Options& opt, const Pinned& pin) {
  return opt.trace ? traced(opt, pin) : untraced(opt, pin);
}

}  // namespace perfbench
