// The three experiment suites of Section VII, as laptop-scale synthetic
// mirrors of ISPD 2005 [13], ISPD 2006 [12] and MMS [21]. Circuit names,
// relative sizes, target densities and macro counts track the paper's
// Tables I-III; absolute cell counts are scaled down ~175x so the full
// reproduction runs on one core (see DESIGN.md substitution table).
#pragma once

#include <vector>

#include "gen/generator.h"

namespace ep {

/// 8 standard-cell circuits, rho_t = 1.0, fixed macro blocks (Table I).
std::vector<GenSpec> ispd2005Suite();

/// 8 standard-cell circuits with benchmark-specific rho_t < 1 (Table II).
std::vector<GenSpec> ispd2006Suite();

/// 16 mixed-size circuits: the same netlist statistics with macros freed
/// and fixed IO blocks inserted (Table III).
std::vector<GenSpec> mmsSuite();

/// Scale sweep for the multilevel V-cycle and the streaming front-end
/// (docs/SCALING.md): standard-cell circuits "scale_1k" .. "scale_500k"
/// spanning 1k-500k cells at ISPD-2005-like statistics. The 100k+ entries
/// back the `scale` ctest lane; scale_10k backs the repo benchmark.
std::vector<GenSpec> scaleSuite();

/// Convenience: find a spec by name in any suite (e.g. "mms_adaptec1s" for
/// the Fig. 2/3/5/6 experiments). Aborts if unknown.
GenSpec suiteSpec(const std::string& name);

}  // namespace ep
