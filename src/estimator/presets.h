// Named estimation-algorithm configurations matching the paper's §8
// experiment rows, plus the §3.3 representative-selectivity strawman.

#ifndef JOINEST_ESTIMATOR_PRESETS_H_
#define JOINEST_ESTIMATOR_PRESETS_H_

#include <string>
#include <vector>

#include "estimator/analyzed_query.h"
#include "storage/analyze.h"

namespace joinest {

enum class AlgorithmPreset {
  // Rule M, no predicate transitive closure, standard statistics — the
  // experiment's "Orig. / SM" row.
  kSMNoPtc,
  // Rule M with PTC, standard statistics — "Orig. + PTC / SM".
  kSM,
  // Rule SS with PTC, standard statistics — "Orig. + PTC / SSS".
  kSSS,
  // Algorithm ELS: Rule LS, PTC, effective statistics — "Orig. / ELS"
  // (ELS performs closure internally; it needs no rewrite-side PTC).
  kELS,
  // §3.3 strawman: one representative selectivity per class (smallest /
  // largest member). Included to demonstrate no constant works.
  kRepresentativeSmall,
  kRepresentativeLarge,
};

EstimationOptions PresetOptions(AlgorithmPreset preset);
const char* PresetName(AlgorithmPreset preset);

// The four configurations of the paper's experiment table, in row order.
std::vector<AlgorithmPreset> PaperPresets();

// All presets.
std::vector<AlgorithmPreset> AllPresets();

// The paper's three comparison rules along one left-deep order: Rule LS
// under Algorithm ELS (kELS), Rules M and SS under standard statistics
// (kSM, kSSS). Each vector holds the estimated size of every prefix of the
// order: order[0] alone, then after each join.
struct PaperRuleEstimates {
  std::vector<double> ls, m, ss;
};

// Builds at most two analyses. kSM and kSSS differ only in the rule, which
// AnalyzedQuery::Create reads only for a metric label, so one analysis
// answers both. A caller that already holds an analysis of `spec` whose
// options equal kELS's (or kSM's) apart from the rule passes it as `els`
// (or `standard`), and no analysis is built for it. Both presets run the
// transitive closure, so an analysis built here shares the other's.
StatusOr<PaperRuleEstimates> EstimatePaperRules(
    const Catalog& catalog, const QuerySpec& spec,
    const std::vector<int>& order, const AnalyzedQuery* els = nullptr,
    const AnalyzedQuery* standard = nullptr);

// The orthogonal statistics dimension: which ANALYZE pipeline feeds the
// catalog the estimator reads. Lets benchmarks sweep algorithm × statistics
// source to quantify how sketch/sampling error propagates through Rules
// M/SS/LS (the error-propagation question of the paper's citation [4]).
enum class StatsPreset {
  // Full-scan exact statistics (the paper's setting).
  kExactStats,
  // 10% Bernoulli row sample with GEE distinct extrapolation.
  kSampledStats,
  // Streaming sketches: HLL distinct counts, CMS heavy hitters, reservoir
  // histogram tails (src/sketch/).
  kSketchStats,
};

AnalyzeOptions StatsPresetOptions(StatsPreset preset);
const char* StatsPresetName(StatsPreset preset);

// Exact first, then the approximate sources.
std::vector<StatsPreset> AllStatsPresets();

}  // namespace joinest

#endif  // JOINEST_ESTIMATOR_PRESETS_H_
