#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace {
// Plain thread-local counter: no contention between the JobServer's
// workers, and trivially initialized, so it is safe in any thread state.
thread_local std::uint64_t tAllocs = 0;
}  // namespace

// Counting replacements for the global allocation functions. The array and
// nothrow forms default to calling this one.
void* operator new(std::size_t n) {
  ++tAllocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t threadAllocs() { return tAllocs; }

std::int64_t threadMinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

Tracer::Tracer() : origin_(Clock::now()) {
  // Reserved up front so recording a span does not allocate inside the
  // spans that enclose it (their allocation counts stay exact).
  spans_.reserve(1 << 16);
  stack_.reserve(64);
}

int Tracer::open(const char* name, std::uint64_t job) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.job = job;
  r.startUs = msBetween(origin_, Clock::now()) * 1000.0;
  spans_.push_back(r);
  stack_.push_back(int(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int idx, std::uint64_t allocs, std::int64_t minflt,
                   std::uint64_t events) {
  if (stack_.empty() || stack_.back() != idx) {
    // Called from Span's destructor, so a broken nesting cannot throw.
    std::fprintf(stderr, "perfbench: spans must close innermost first\n");
    std::abort();
  }
  stack_.pop_back();
  SpanRecord& r = spans_[std::size_t(idx)];
  r.endUs = msBetween(origin_, Clock::now()) * 1000.0;
  r.allocs = allocs;
  r.minflt = minflt;
  r.events = events;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  namespace json = anton::util::json;
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    os << (i == 0 ? "" : ",\n") << "{\"name\":" << json::quoted(r.name)
       << ",\"cat\":" << json::quoted(std::string(r.name).substr(
                              0, std::string(r.name).find('.')))
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json::number(r.startUs)
       << ",\"dur\":" << json::number(r.endUs - r.startUs)
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << r.parent
       << ",\"job\":" << r.job << ",\"allocs\":" << r.allocs
       << ",\"minflt\":" << r.minflt << ",\"events\":" << r.events << "}}";
  }
  os << "\n]}\n";
  if (!os.flush())
    throw std::runtime_error("perfbench: short write to " + path);
}

std::string Tracer::selfTimeTable() const {
  struct Row {
    std::uint64_t calls = 0, allocs = 0, events = 0;
    std::int64_t minflt = 0;
    double totalMs = 0, selfMs = 0;
  };
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const SpanRecord& r : spans_)
    if (r.parent >= 0)
      childMs[std::size_t(r.parent)] += (r.endUs - r.startUs) / 1000.0;
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& r = spans_[i];
    Row& row = rows[r.name];
    double ms = (r.endUs - r.startUs) / 1000.0;
    ++row.calls;
    row.totalMs += ms;
    row.selfMs += ms - childMs[i];
    row.allocs += r.allocs;
    row.minflt += r.minflt;
    row.events += r.events;
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.selfMs > b.second.selfMs;
  });
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof line, "%-22s %8s %12s %12s %12s %10s %12s\n",
                "span", "calls", "total_ms", "self_ms", "allocs", "minflt",
                "events");
  os << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line,
                  "%-22s %8llu %12.3f %12.3f %12llu %10lld %12llu\n",
                  name.c_str(), (unsigned long long)row.calls, row.totalMs,
                  row.selfMs, (unsigned long long)row.allocs,
                  (long long)row.minflt, (unsigned long long)row.events);
    os << line;
  }
  return os.str();
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t job,
           const anton::sim::Simulator* sim)
    : tracer_(tracer), sim_(sim) {
  if (tracer_ != nullptr) {
    idx_ = tracer_->open(name, job);
    // Counters are read after the record is stored, so the span's own
    // bookkeeping is not counted inside it.
    allocs_ = threadAllocs();
    minflt_ = threadMinorFaults();
    events_ = sim_ != nullptr ? sim_->eventsProcessed() : 0;
  }
  start_ = Clock::now();
}

double Span::stop() {
  if (!open_) return ms_;
  open_ = false;
  Clock::time_point end = Clock::now();
  ms_ = msBetween(start_, end);
  if (tracer_ != nullptr) {
    allocs_ = threadAllocs() - allocs_;
    minflt_ = threadMinorFaults() - minflt_;
    events_ = sim_ != nullptr ? sim_->eventsProcessed() - events_ : 0;
    tracer_->close(idx_, allocs_, minflt_, events_);
  } else {
    allocs_ = 0;
    minflt_ = 0;
    events_ = 0;
  }
  return ms_;
}

}  // namespace perfbench
