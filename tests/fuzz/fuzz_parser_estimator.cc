// Fuzz harness: lexer → parser → Algorithm ELS estimation, under contracts.
//
// One input exercises three surfaces against a fixed catalog:
//   1. Tokenize / ParseQuery — arbitrary bytes must produce either a parsed
//      QuerySpec or a clean error Status, never a crash;
//   2. AnalyzedQuery under every algorithm preset (Rules M / SS / LS, PTC
//      on and off, representative strawmen) plus the histogram-join
//      extension — every selectivity and cardinality the estimator computes
//      is contract-checked at the point of computation (common/check.h), so
//      the fuzzer doubles as an invariant search over the paper's formulas
//      — and OptimizeQuery over the ELS analysis: the left-deep DP, whose
//      plan estimates must equal EstimateOrder along the plan's order, and
//      the bushy DP for six tables or fewer, which reach the mask tests,
//      the single-table edge walk and the two-composite walk;
//   3. ParseTableStats / SerializeTableStats — the stats text format must
//      reject corrupt input cleanly and round-trip what it accepts.
//
// Build modes (tests/CMakeLists.txt):
//   * clang: -fsanitize=fuzzer, JOINEST_HAS_LIBFUZZER defined, libFuzzer
//     drives LLVMFuzzerTestOneInput;
//   * gcc (this repo's default toolchain has no libFuzzer): a standalone
//     driver replays files / directories given on the command line, and
//     --fuzz-seconds N [seed] runs a deterministic splice-and-mutate loop
//     seeded from the corpus — same entry point, no clang required.
//
// Regression corpus: tests/fuzz/corpus/ (replayed by ctest, label
// `analysis`). Any crashing input found by a fuzz run should be minimised
// and checked in there.

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "estimator/analyzed_query.h"
#include "estimator/presets.h"
#include "optimizer/optimizer.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "stats/histogram.h"
#include "stats/stats_io.h"
#include "storage/catalog.h"
#include "types/schema.h"
#include "types/value.h"

namespace joinest {
namespace {

// A table with hand-written statistics, no data. The harness estimates only;
// nothing executes.
void AddTable(Catalog& catalog, const std::string& name,
              std::vector<ColumnDef> columns, TableStats stats) {
  auto id = catalog.AddTableWithStats(name, Table{Schema(std::move(columns))},
                                      std::move(stats));
  JOINEST_CHECK(id.ok()) << id.status();
}

ColumnStats IntColumn(double distinct, double min, double max) {
  ColumnStats col;
  col.distinct_count = distinct;
  col.min = min;
  col.max = max;
  return col;
}

// The fixed schema the fuzzer queries against: three joinable tables with a
// mix of plain statistics, min/max ranges, histograms (both smooth and
// skewed so the histogram-join segment walk sees asymmetric overlap), and a
// string column for the uniformity fallback.
const Catalog& FuzzCatalog() {
  static const Catalog& catalog = *[] {
    auto* c = new Catalog();

    // r: 1000 rows; r.c0 carries an equi-depth histogram over [0, 99].
    {
      TableStats stats;
      stats.row_count = 1000;
      ColumnStats c0 = IntColumn(100, 0, 99);
      c0.histogram = std::make_shared<Histogram>(Histogram::FromBuckets(
          Histogram::Kind::kEquiDepth,
          {{0, 24, 250, 25}, {25, 49, 250, 25}, {50, 74, 250, 25},
           {75, 99, 250, 25}}));
      stats.columns.push_back(c0);
      stats.columns.push_back(IntColumn(50, 0, 49));
      ColumnStats c2;  // String column: no range, no histogram.
      c2.distinct_count = 10;
      stats.columns.push_back(c2);
      AddTable(*c, "r",
               {{"c0", TypeKind::kInt64},
                {"c1", TypeKind::kInt64},
                {"c2", TypeKind::kString}},
               std::move(stats));
    }

    // s: 2000 rows; s.c0's histogram is skewed (end-biased shape) and only
    // partially overlaps r.c0's value range.
    {
      TableStats stats;
      stats.row_count = 2000;
      ColumnStats c0 = IntColumn(80, 50, 199);
      c0.histogram = std::make_shared<Histogram>(Histogram::FromBuckets(
          Histogram::Kind::kEndBiased,
          {{50, 50, 900, 1}, {51, 120, 600, 40}, {121, 199, 500, 39}}));
      stats.columns.push_back(c0);
      stats.columns.push_back(IntColumn(20, 0, 19));
      AddTable(*c, "s",
               {{"c0", TypeKind::kInt64}, {"c1", TypeKind::kInt64}},
               std::move(stats));
    }

    // t: small all-distinct table (primary-key shape).
    {
      TableStats stats;
      stats.row_count = 500;
      stats.columns.push_back(IntColumn(500, 0, 499));
      AddTable(*c, "t", {{"c0", TypeKind::kInt64}}, std::move(stats));
    }
    return c;
  }();
  return catalog;
}

void FuzzQueryPath(const std::string& input) {
  // The lexer must accept or reject arbitrary bytes without crashing.
  (void)Tokenize(input);

  auto spec = ParseQuery(FuzzCatalog(), input);
  if (!spec.ok()) {
    // Errors must be categorised and described.
    JOINEST_CHECK(spec.status().code() != StatusCode::kOk);
    JOINEST_CHECK(!spec.status().message().empty());
    return;
  }

  // Every preset runs the full preliminary phase and final estimate; the
  // contracts instrumented throughout src/estimator and src/stats are the
  // oracle here.
  std::vector<EstimationOptions> configs;
  for (AlgorithmPreset preset : AllPresets()) {
    configs.push_back(PresetOptions(preset));
  }
  EstimationOptions histogram_join = PresetOptions(AlgorithmPreset::kELS);
  histogram_join.histogram_join_selectivity = true;
  configs.push_back(histogram_join);

  for (const EstimationOptions& options : configs) {
    auto analyzed = AnalyzedQuery::Create(FuzzCatalog(), *spec, options);
    if (!analyzed.ok()) continue;
    const double size = analyzed->EstimateFullJoin();
    JOINEST_CHECK(size >= 0) << "negative join estimate " << size;
    const double groups = analyzed->EstimateGroupCount();
    JOINEST_CHECK(groups >= 0) << "negative group estimate " << groups;
  }

  // The optimizer over the ELS analysis: the left-deep DP (greedy past 16
  // tables) must annotate its plan with the estimator's sizes along the
  // plan's own order, bit for bit. The bushy DP runs for up to six tables,
  // checked by the contracts alone.
  auto els = AnalyzedQuery::Create(FuzzCatalog(), *spec,
                                   PresetOptions(AlgorithmPreset::kELS));
  if (!els.ok()) return;
  OptimizerOptions optimizer;
  optimizer.estimation = els->options();
  auto plan = OptimizeQuery(*els, optimizer);
  JOINEST_CHECK(plan.ok()) << plan.status();
  JOINEST_CHECK(plan->intermediate_estimates ==
                els->EstimateOrder(plan->join_order))
      << "plan estimates differ from the estimator's";
  if (spec->num_tables() <= 6) {
    optimizer.allow_bushy = true;
    auto bushy = OptimizeQuery(*els, optimizer);
    JOINEST_CHECK(bushy.ok()) << bushy.status();
    JOINEST_CHECK_EQ(bushy->join_order.size(),
                     static_cast<size_t>(spec->num_tables()));
  }
}

void FuzzStatsPath(const std::string& input) {
  auto stats = ParseTableStats(input);
  if (!stats.ok()) return;
  // What the parser accepts, the serialiser must round-trip.
  auto reparsed = ParseTableStats(SerializeTableStats(*stats),
                                  static_cast<int>(stats->columns.size()));
  JOINEST_CHECK(reparsed.ok()) << "round-trip rejected: " << reparsed.status();
  JOINEST_CHECK_EQ(reparsed->columns.size(), stats->columns.size());
}

}  // namespace
}  // namespace joinest

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  joinest::FuzzQueryPath(input);
  joinest::FuzzStatsPath(input);
  return 0;
}

#ifndef JOINEST_HAS_LIBFUZZER

// Standalone driver for toolchains without libFuzzer (GCC). Two modes:
//
//   fuzz_parser_estimator FILE|DIR...
//       Replay every file (directories recurse) once. Used by the ctest
//       corpus-replay target.
//
//   fuzz_parser_estimator --fuzz-seconds N [--seed S] FILE|DIR...
//       Deterministic mutation loop: each iteration picks a corpus input
//       and applies byte flips / truncations / splices driven by a seeded
//       xorshift generator, for N wall-clock seconds. Crashes abort with
//       the standard CHECK/sanitizer report; reproduce by writing the
//       printed input to a file and replaying it.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace {

// The input currently executing, so a CHECK abort (or sanitizer report) can
// dump a reproducer. Written with write(2) only — the handler runs under
// SIGABRT.
const std::string* g_current_input = nullptr;

void DumpCurrentInput(int) {
  if (g_current_input != nullptr) {
    const char kHeader[] = "\n-- crashing input (replay with a file) --\n";
    (void)!write(2, kHeader, sizeof(kHeader) - 1);
    (void)!write(2, g_current_input->data(), g_current_input->size());
    (void)!write(2, "\n", 1);
  }
  std::signal(SIGABRT, SIG_DFL);
}

std::vector<std::string> LoadCorpus(const std::vector<std::string>& paths) {
  std::vector<std::string> corpus;
  auto load_file = [&](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", p.string().c_str());
      std::exit(2);
    }
    corpus.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  };
  for (const std::string& path : paths) {
    if (std::filesystem::is_directory(path)) {
      std::vector<std::filesystem::path> files;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());  // Deterministic replay order.
      for (const auto& f : files) load_file(f);
    } else {
      load_file(path);
    }
  }
  return corpus;
}

struct XorShift {
  uint64_t state;
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  size_t Bounded(size_t n) { return n == 0 ? 0 : Next() % n; }
};

std::string Mutate(const std::vector<std::string>& corpus, XorShift& rng) {
  std::string input = corpus[rng.Bounded(corpus.size())];
  const int num_mutations = 1 + static_cast<int>(rng.Bounded(8));
  for (int m = 0; m < num_mutations; ++m) {
    switch (rng.Next() % 5) {
      case 0:  // Flip a byte.
        if (!input.empty()) {
          input[rng.Bounded(input.size())] =
              static_cast<char>(rng.Next() & 0xff);
        }
        break;
      case 1:  // Insert a byte (biased towards query punctuation).
      {
        static const char kInteresting[] = "()=<>.,*' \"0123456789";
        const char c = (rng.Next() & 1)
                           ? kInteresting[rng.Bounded(sizeof(kInteresting) - 1)]
                           : static_cast<char>(rng.Next() & 0xff);
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(
                                         rng.Bounded(input.size() + 1)),
                     c);
        break;
      }
      case 2:  // Delete a span.
        if (!input.empty()) {
          const size_t at = rng.Bounded(input.size());
          input.erase(at, 1 + rng.Bounded(input.size() - at));
        }
        break;
      case 3:  // Truncate.
        input.resize(rng.Bounded(input.size() + 1));
        break;
      case 4:  // Splice a slice of another corpus entry.
      {
        const std::string& other = corpus[rng.Bounded(corpus.size())];
        if (!other.empty()) {
          const size_t from = rng.Bounded(other.size());
          const size_t len = 1 + rng.Bounded(other.size() - from);
          input.insert(rng.Bounded(input.size() + 1), other, from, len);
        }
        break;
      }
    }
  }
  return input;
}

void RunOne(const std::string& input) {
  g_current_input = &input;
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
  g_current_input = nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  int fuzz_seconds = 0;
  uint64_t seed = 0x4a6f696e45737421ull;  // Fixed default: runs reproduce.
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fuzz-seconds" && i + 1 < argc) {
      fuzz_seconds = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--fuzz-seconds N [--seed S]] FILE|DIR...\n",
                 argv[0]);
    return 2;
  }

  std::signal(SIGABRT, DumpCurrentInput);
  const std::vector<std::string> corpus = LoadCorpus(paths);
  std::fprintf(stderr, "corpus: %zu inputs\n", corpus.size());
  for (const std::string& input : corpus) RunOne(input);
  std::fprintf(stderr, "corpus replay: OK\n");
  if (fuzz_seconds <= 0) return 0;

  XorShift rng{seed};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(fuzz_seconds);
  uint64_t iterations = 0;
  std::string last;
  while (std::chrono::steady_clock::now() < deadline) {
    // Batched so the clock is read once per 256 inputs, not once per input.
    for (int i = 0; i < 256; ++i) {
      last = Mutate(corpus, rng);
      RunOne(last);
      ++iterations;
    }
  }
  std::fprintf(stderr, "fuzz: %llu iterations in %ds, no failures\n",
               static_cast<unsigned long long>(iterations), fuzz_seconds);
  return 0;
}

#endif  // JOINEST_HAS_LIBFUZZER
