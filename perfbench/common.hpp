// Shared pieces of the host-time benchmark: options, the report every
// workload fills, result checks against the pinned reference values, and
// the canonical serializations the checks compare.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "md/anton_app.hpp"
#include "serve/job_spec.hpp"
#include "trace.hpp"
#include "util/torus_coord.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupt one seeded pinned digest, so that one operation must be
  /// counted as failed (the end-to-end proof that mismatches are counted).
  bool corruptDigest = false;
  std::string pinnedPath;
  std::string outDir;  ///< trace files and per-seed count records
  /// Records the traced run's spans; null in untraced runs.
  Tracer* tracer = nullptr;
};

/// What a run prints: the result-check tallies and the metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a self-check of the benchmark's own checking broke.
  bool checksSound = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Per-layer counts that must repeat exactly across runs of one seed.
  std::map<std::string, double> exactCounts;

  void set(const std::string& name, double value, const std::string& unit);
  /// Set a per-layer count and register it as an exact count.
  void setExact(const std::string& name, double value,
                const std::string& unit);
};

/// Counts failed result checks and keeps the first few messages.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// A copy of a "0x..." digest with one seeded hex digit changed.
std::string corruptDigest(const std::string& hex, std::uint64_t seed);
/// The self-check: the checker must count a seeded corruption of an
/// observed digest as exactly one failure.
bool mismatchIsCounted(const std::string& observed, std::uint64_t seed);

/// Reference values pinned from serial runJob runs (perfbench/pinned.json,
/// written by `perfbench --pin`).
struct Pinned {
  std::vector<double> mdStepUs;            ///< simulated totalUs of step k+1
  std::map<int, std::string> mdDigest;     ///< position digest after k steps
  std::string pingDigest;                  ///< fig5PingSpec(12, 256)
  struct PoolEntry {
    std::string digest;
    std::map<std::string, double> counts;  ///< core/fault result counts
  };
  std::map<std::string, PoolEntry> pool;   ///< by canonical spec JSON
};
Pinned loadPinned(const std::string& path);

// --- mirrors of the runner's public behaviour ------------------------------

/// The MD configuration runJob uses for a quickstart-md spec (serial kernel).
anton::md::AntonMdConfig mdConfigFor(const anton::serve::JobSpec& spec);
/// The synthetic system runJob builds for a quickstart-md spec.
anton::md::SyntheticSystemParams mdSystemFor(const anton::serve::JobSpec& spec);
/// The runner's end-state position digest of an MD app.
std::string positionDigest(const anton::md::AntonMdApp& app);
/// Fig. 5 destination at `hops` (X first, then Y, then Z), as runFig5Ping.
anton::util::TorusCoord destAtHops(int hops);
/// The runner's result digest over a canonical metrics map.
std::string metricsDigest(const std::map<std::string, double>& metrics);

// --- the fixed workload definitions ----------------------------------------

anton::serve::JobSpec mdStepsSpec();
anton::serve::JobSpec pingSweepSpec();
/// serve-mix job pool: every entry has a pinned digest. It has no 8x8x8
/// jobs: each one faults in a 944 MB Machine per worker, and that memory
/// churn made the open loop's latencies swing from run to run (ping-sweep
/// measures the 8x8x8 Machine).
std::vector<anton::serve::JobSpec> servePool();
/// MD steps in the pinned reference: the most one run may take. The
/// quickstart system overflows its fixed packet provisioning at step 544.
inline constexpr int kMdPinnedSteps = 500;
/// md-steps runs stop at a multiple of this, where a digest is pinned.
inline constexpr int kMdStepQuantum = 10;

// --- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);

// --- workloads -------------------------------------------------------------

Report runMdSteps(const Options& opt, const Pinned& pin);
Report runPingSweep(const Options& opt, const Pinned& pin);
Report runServeMix(const Options& opt, const Pinned& pin);
/// Write pinned.json from serial runJob runs.
void writePinned(const std::string& path);

}  // namespace perfbench
