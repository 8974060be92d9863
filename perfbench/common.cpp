#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "plan_registry.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace json = anton::util::json;
using anton::serve::JobSpec;

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& [n, vu] : metrics)
    if (n == name) {
      vu = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Report::setExact(const std::string& name, double value,
                      const std::string& unit) {
  set(name, value, unit);
  exactCounts[name] = value;
}

void Checker::expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures_;
  if (messages_.size() < 8) messages_.push_back(what);
}

std::string corruptDigest(const std::string& hex, std::uint64_t seed) {
  std::string out = hex;
  if (out.size() <= 2) return out + "0";
  std::size_t at = 2 + std::size_t(seed % (out.size() - 2));
  out[at] = out[at] == '0' ? '1' : '0';
  return out;
}

bool mismatchIsCounted(const std::string& observed, std::uint64_t seed) {
  Checker c;
  c.expect(corruptDigest(observed, seed) == observed, "self-check");
  return c.failures() == 1;
}

Pinned loadPinned(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value root = json::parse(ss.str(), path);
  Pinned p;
  const json::Value& md = json::field(root, "md", "md");
  for (const json::Value& v : json::field(md, "stepUs", "md.stepUs").arr)
    p.mdStepUs.push_back(json::asDouble(v, "md.stepUs[]"));
  for (const auto& [k, v] : json::field(md, "digests", "md.digests").obj)
    p.mdDigest[std::stoi(k)] = json::asString(v, "md.digests[]");
  p.pingDigest = json::asString(
      json::field(json::field(root, "ping", "ping"), "digest", "ping.digest"),
      "ping.digest");
  for (const json::Value& e : json::field(root, "pool", "pool").arr) {
    Pinned::PoolEntry entry;
    entry.digest = json::asString(json::field(e, "digest", "pool[].digest"),
                                  "pool[].digest");
    for (const auto& [k, v] : json::field(e, "counts", "pool[].counts").obj)
      entry.counts[k] = json::asDouble(v, "pool[].counts");
    JobSpec spec = anton::serve::specFromValue(json::field(e, "spec", "spec"));
    p.pool[anton::serve::specToJson(spec)] = entry;
  }
  return p;
}

anton::md::AntonMdConfig mdConfigFor(const JobSpec& spec) {
  anton::md::AntonMdConfig cfg = anton::tools::quickstartMdConfig();
  cfg.recoveryTimeoutUs = spec.recoveryTimeoutUs;
  cfg.recoveryMaxResends = spec.recoveryMaxResends;
  cfg.recoveryBackoffUs = spec.recoveryBackoffUs;
  return cfg;
}

anton::md::SyntheticSystemParams mdSystemFor(const JobSpec& spec) {
  anton::md::SyntheticSystemParams sp;
  sp.targetAtoms = spec.atoms;
  sp.seed = spec.seed;
  return sp;
}

std::string positionDigest(const anton::md::AntonMdApp& app) {
  anton::md::MDSystem end = app.gatherSystem();
  std::uint64_t pos = anton::util::kFnvOffsetBasis;
  for (const anton::md::Vec3& p : end.positions)
    for (double c : {p.x, p.y, p.z})
      pos = anton::util::fnv1a64(json::number(c), pos);
  return anton::util::hex64(pos);
}

anton::util::TorusCoord destAtHops(int hops) {
  int hx = std::min(hops, 4);
  int hy = std::min(std::max(hops - 4, 0), 4);
  int hz = std::min(std::max(hops - 8, 0), 4);
  return {hx, hy, hz};
}

std::string metricsDigest(const std::map<std::string, double>& metrics) {
  std::string body = "{";
  for (const auto& [key, value] : metrics) {
    if (body.size() > 1) body += ",";
    body += json::quoted(key) + ":" + json::number(value);
  }
  body += "}";
  return anton::util::hex64(anton::util::fnv1a64(body));
}

JobSpec mdStepsSpec() { return anton::serve::quickstartMdSpec(kMdStepQuantum); }

JobSpec pingSweepSpec() { return anton::serve::fig5PingSpec(12, 256); }

std::vector<JobSpec> servePool() {
  // Cheapest first; the serve-mix warm-up submits in reverse.
  using anton::util::TorusShape;
  const TorusShape small{2, 2, 2}, mid{4, 4, 4};
  std::vector<JobSpec> pool;
  auto faultSweeps = [&](TorusShape shape) {
    for (double ber : {0.0, 1e-5, 1e-4})
      for (std::uint64_t seed : {2010u, 2011u}) {
        JobSpec s = anton::serve::faultSweepSpec(shape, ber);
        s.seed = seed;
        pool.push_back(s);
      }
  };
  auto allReduces = [&](TorusShape shape) {
    for (int words : {0, 4})
      pool.push_back(anton::serve::table2AllReduceSpec(shape, words));
  };
  allReduces(small);
  faultSweeps(small);
  faultSweeps(mid);
  allReduces(mid);
  for (std::uint64_t seed : {2010u, 2011u}) {
    JobSpec s = anton::serve::quickstartMdSpec(/*steps=*/1);
    s.seed = seed;
    pool.push_back(s);
  }
  return pool;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * double(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : std::size_t(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace perfbench
