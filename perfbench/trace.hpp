// Host-time spans and boundary counters for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around each call into a
// simulator module (net, sim, md, plan registry, verify, serve); the
// program itself is not instrumented. Every span carries a name, start,
// end, its parent span and a job id, plus the counts taken at the same
// boundaries: heap allocations of the calling thread (this binary replaces
// operator new to count them), its minor page faults and, when the span is
// given the simulator it wraps, the events that simulator processed. Spans
// stay in memory until the run ends; then the run writes them as a Chrome
// trace-event file and prints a per-layer self-time table.
//
// A Span always measures its own duration, so traced and untraced passes
// run the same code; only a non-null Tracer records spans and counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Heap allocations the calling thread has made so far.
std::uint64_t threadAllocs();
/// Minor page faults the calling thread has taken so far.
std::int64_t threadMinorFaults();
/// Peak resident set size of the whole process, in MB.
double peakRssMb();

struct SpanRecord {
  const char* name = "";
  double startUs = 0;  ///< since the tracer was created
  double endUs = 0;
  int parent = -1;     ///< index into Tracer::spans(), -1 for a root
  std::uint64_t job = 0;
  std::uint64_t allocs = 0;
  std::int64_t minflt = 0;
  std::uint64_t events = 0;
};

class Tracer {
 public:
  Tracer();
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("ph":"X" complete events, microseconds);
  /// opens offline in chrome://tracing or Perfetto.
  void writeChromeTrace(const std::string& path) const;
  /// Per span name: calls, total and self time (duration minus the part
  /// covered by child spans) and the counts.
  std::string selfTimeTable() const;

 private:
  friend class Span;
  int open(const char* name, std::uint64_t job);
  void close(int idx, std::uint64_t allocs, std::int64_t minflt,
             std::uint64_t events);

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  /// `name` must outlive the tracer (a string literal). `sim`, when given,
  /// is the simulator whose processed events the span counts.
  explicit Span(Tracer* tracer, const char* name, std::uint64_t job = 0,
                const anton::sim::Simulator* sim = nullptr);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span (idempotent) and return its duration in ms.
  double stop();
  // Counts over the span; zero unless traced.
  std::int64_t minflt() const { return minflt_; }
  std::uint64_t events() const { return events_; }

 private:
  Tracer* tracer_;
  const anton::sim::Simulator* sim_;
  int idx_ = -1;
  bool open_ = true;
  double ms_ = 0;
  std::uint64_t allocs_ = 0, events_ = 0;
  std::int64_t minflt_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
