#include "estimator/presets.h"

#include <optional>

namespace joinest {

EstimationOptions PresetOptions(AlgorithmPreset preset) {
  EstimationOptions options;
  switch (preset) {
    case AlgorithmPreset::kSMNoPtc:
      options.transitive_closure = false;
      options.profile.apply_local_effects = false;
      options.rule = SelectivityRule::kMultiplicative;
      break;
    case AlgorithmPreset::kSM:
      options.transitive_closure = true;
      options.profile.apply_local_effects = false;
      options.rule = SelectivityRule::kMultiplicative;
      break;
    case AlgorithmPreset::kSSS:
      options.transitive_closure = true;
      options.profile.apply_local_effects = false;
      options.rule = SelectivityRule::kSmallest;
      break;
    case AlgorithmPreset::kELS:
      options.transitive_closure = true;
      options.profile.apply_local_effects = true;
      options.rule = SelectivityRule::kLargest;
      break;
    case AlgorithmPreset::kRepresentativeSmall:
      options.transitive_closure = true;
      options.profile.apply_local_effects = true;
      options.rule = SelectivityRule::kRepresentative;
      options.representative = RepresentativePick::kSmallest;
      break;
    case AlgorithmPreset::kRepresentativeLarge:
      options.transitive_closure = true;
      options.profile.apply_local_effects = true;
      options.rule = SelectivityRule::kRepresentative;
      options.representative = RepresentativePick::kLargest;
      break;
  }
  return options;
}

const char* PresetName(AlgorithmPreset preset) {
  switch (preset) {
    case AlgorithmPreset::kSMNoPtc:
      return "SM (no PTC)";
    case AlgorithmPreset::kSM:
      return "SM";
    case AlgorithmPreset::kSSS:
      return "SSS";
    case AlgorithmPreset::kELS:
      return "ELS";
    case AlgorithmPreset::kRepresentativeSmall:
      return "REP(min)";
    case AlgorithmPreset::kRepresentativeLarge:
      return "REP(max)";
  }
  return "?";
}

std::vector<AlgorithmPreset> PaperPresets() {
  return {AlgorithmPreset::kSMNoPtc, AlgorithmPreset::kSM,
          AlgorithmPreset::kSSS, AlgorithmPreset::kELS};
}

std::vector<AlgorithmPreset> AllPresets() {
  return {AlgorithmPreset::kSMNoPtc,
          AlgorithmPreset::kSM,
          AlgorithmPreset::kSSS,
          AlgorithmPreset::kELS,
          AlgorithmPreset::kRepresentativeSmall,
          AlgorithmPreset::kRepresentativeLarge};
}

namespace {

// Every prefix size of `order` under `rule` (see PaperRuleEstimates).
std::vector<double> PrefixSizes(const AnalyzedQuery& analyzed,
                                const std::vector<int>& order,
                                SelectivityRule rule) {
  std::vector<double> sizes = {analyzed.BaseCardinality(order[0])};
  const std::vector<double> joins = analyzed.EstimateOrder(order, rule);
  sizes.insert(sizes.end(), joins.begin(), joins.end());
  return sizes;
}

}  // namespace

StatusOr<PaperRuleEstimates> EstimatePaperRules(
    const Catalog& catalog, const QuerySpec& spec,
    const std::vector<int>& order, const AnalyzedQuery* els,
    const AnalyzedQuery* standard) {
  if (order.empty()) return InvalidArgument("empty join order");
  std::optional<AnalyzedQuery> built_els, built_standard;
  if (els == nullptr) {
    JOINEST_ASSIGN_OR_RETURN(
        built_els, AnalyzedQuery::Create(catalog, spec,
                                         PresetOptions(AlgorithmPreset::kELS)));
    els = &*built_els;
  }
  if (standard == nullptr) {
    JOINEST_ASSIGN_OR_RETURN(
        built_standard,
        AnalyzedQuery::Create(catalog, spec,
                              PresetOptions(AlgorithmPreset::kSM)));
    standard = &*built_standard;
  }
  PaperRuleEstimates estimates;
  estimates.ls = PrefixSizes(*els, order, SelectivityRule::kLargest);
  estimates.m = PrefixSizes(*standard, order, SelectivityRule::kMultiplicative);
  estimates.ss = PrefixSizes(*standard, order, SelectivityRule::kSmallest);
  return estimates;
}

AnalyzeOptions StatsPresetOptions(StatsPreset preset) {
  AnalyzeOptions options;
  switch (preset) {
    case StatsPreset::kExactStats:
      break;
    case StatsPreset::kSampledStats:
      options.stats_mode = AnalyzeOptions::StatsMode::kSampled;
      options.sample_fraction = 0.1;
      break;
    case StatsPreset::kSketchStats:
      options.stats_mode = AnalyzeOptions::StatsMode::kSketch;
      break;
  }
  return options;
}

const char* StatsPresetName(StatsPreset preset) {
  switch (preset) {
    case StatsPreset::kExactStats:
      return "exact";
    case StatsPreset::kSampledStats:
      return "sampled";
    case StatsPreset::kSketchStats:
      return "sketch";
  }
  return "?";
}

std::vector<StatsPreset> AllStatsPresets() {
  return {StatsPreset::kExactStats, StatsPreset::kSampledStats,
          StatsPreset::kSketchStats};
}

}  // namespace joinest
