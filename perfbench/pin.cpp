// `perfbench --pin <path>` writes pinned.json: the reference values every
// run checks its outputs against, all taken from serial runs on one arena.
// The md step table comes from one stepped app (the calls runJob makes) and
// is cross-checked against runJob itself before it is written.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "net/machine.hpp"
#include "serve/runner.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace anton;
namespace json = util::json;

namespace {

std::string resultField(const std::string& resultJson, const char* key) {
  return json::asString(
      json::field(json::parse(resultJson, "result"), key, key), key);
}

}  // namespace

void writePinned(const std::string& path) {
  sim::Simulator arena;
  std::ostringstream os;

  // md-steps: simulated totalUs of every step, digest every quantum.
  const serve::JobSpec md = mdStepsSpec();
  std::vector<double> stepUs;
  std::map<int, std::string> digests;
  {
    arena.reset();
    net::Machine machine(arena, md.shape);
    md::AntonMdApp app(machine, md::buildSyntheticSystem(mdSystemFor(md)),
                       mdConfigFor(md));
    for (int k = 1; k <= kMdPinnedSteps; ++k) {
      app.runSteps(1);
      stepUs.push_back(app.lastStep().totalUs);
      if (k % kMdStepQuantum == 0) digests[k] = positionDigest(app);
    }
  }
  serve::RunOutcome ref = serve::runJob(md, arena);
  if (resultField(ref.resultJson, "positionDigest") != digests.at(md.steps) ||
      ref.metrics.at("last_step_us") != stepUs[std::size_t(md.steps - 1)])
    throw std::runtime_error("pin: stepped md app disagrees with runJob");
  os << "{\"md\":{\"spec\":" << serve::specToJson(md) << ",\"stepUs\":[";
  for (std::size_t i = 0; i < stepUs.size(); ++i)
    os << (i ? "," : "") << json::number(stepUs[i]);
  os << "],\"digests\":{";
  bool first = true;
  for (const auto& [k, d] : digests) {
    os << (first ? "" : ",") << "\"" << k << "\":" << json::quoted(d);
    first = false;
  }
  os << "}},\n";

  // ping-sweep: the Fig. 5 set's digest; the mirror digest must agree.
  const serve::JobSpec ping = pingSweepSpec();
  serve::RunOutcome p = serve::runJob(ping, arena);
  if (p.metrics.at("one_hop_ns") != 162.0 ||
      metricsDigest(p.metrics) != util::hex64(p.digest))
    throw std::runtime_error("pin: fig5 ping result is off its anchors");
  os << "\"ping\":{\"spec\":" << serve::specToJson(ping)
     << ",\"digest\":" << json::quoted(util::hex64(p.digest)) << "},\n";

  // serve-mix: every pool spec's digest and its core/fault counts.
  os << "\"pool\":[\n";
  first = true;
  for (const serve::JobSpec& spec : servePool()) {
    arena.reset();
    serve::RunOutcome out = serve::runJob(spec, arena);
    os << (first ? "" : ",\n") << "{\"spec\":" << serve::specToJson(spec)
       << ",\"digest\":" << json::quoted(util::hex64(out.digest))
       << ",\"counts\":{";
    bool firstCount = true;
    for (const char* k : {"crc_retransmits", "hard_failures", "link_failures",
                          "resends", "timeouts"}) {
      auto it = out.metrics.find(k);
      if (it == out.metrics.end()) continue;
      os << (firstCount ? "" : ",") << json::quoted(k) << ":"
         << json::number(it->second);
      firstCount = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n]}\n";

  std::ofstream out(path);
  out << os.str();
  if (!out.flush()) throw std::runtime_error("pin: cannot write " + path);
}

}  // namespace perfbench
