// Named shipped communication plans.
//
// One registry backs both the verify_plans CLI (auditing and `--diff` by
// plan name) and the golden-plan test (rebuilding each committed snapshot
// from source and diffing it structurally). Plan construction is
// deterministic — synthetic systems use fixed seeds — so a named plan only
// changes when the extractors or the configurations do, which is exactly
// the delta the golden files are meant to surface.
#pragma once

#include <string>
#include <vector>

#include "md/anton_app.hpp"
#include "verify/plan.hpp"

namespace anton::tools {

/// The plans committed as golden snapshots under tests/golden_plans/.
std::vector<std::string> goldenPlanNames();

/// The quickstart MD configuration (recovery armed, quickstart physics).
/// THE shared config: the "quickstart-md" golden plan, the quickstart
/// example and the serve quickstart-md job family all build from it, so
/// there is exactly one place the configuration can drift.
md::AntonMdConfig quickstartMdConfig();

/// Extract the static communication plan of an MD app with the given
/// decomposition (shape/atoms) and configuration, named `name`. The
/// parametric form of the fixed "quickstart-md"/"md-4x4x1" registry
/// entries, used by serve jobs whose specs override shape or atom count.
verify::CommPlan buildMdPlan(const std::string& name, util::TorusShape shape,
                             int atoms, const md::AntonMdConfig& cfg);

/// Build a shipped plan by name. Fixed names: "quickstart-md", "md-4x4x1",
/// "table3-md-8x8x8", "fig5-ping", "fft-pair-2x2x2".
/// Parametric: "table2-allreduce-<X>x<Y>x<Z>", "cluster-allreduce-<N>".
/// Throws std::invalid_argument for anything else.
verify::CommPlan buildNamedPlan(const std::string& name);

/// One-corner one-way ping plan on `shape` (the Fig. 5 torus by default):
/// node 0 posts a single counted write which the corner waits for. The unit
/// plan timing_test prices statically and compares against a live
/// net::oneWayLatencyNs measurement of the same pair.
verify::CommPlan buildPingPlan(util::TorusCoord corner,
                               util::TorusShape shape = {8, 8, 8});

}  // namespace anton::tools
