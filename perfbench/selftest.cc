// Self-test of the response checker: valid rankings pass, and each
// perturbation the checker exists to catch is rejected — a swapped pair,
// an altered score, a duplicate id, an id outside the serving epoch, and a
// pruned ranking that drops its best candidate — on a synthetic reference
// and on rankings served by a real engine.
//
//   perfbench_selftest    (exit 0 when every case behaves)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/benchmark.h"
#include "check.h"
#include "vision/classical_extractor.h"

namespace perfbench {
namespace {

using fcm::index::SearchHit;
using Hits = std::vector<SearchHit>;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// The checker must reject, and name the violated property (`reason`).
void ExpectRejected(const std::string& err, const std::string& reason,
                    const std::string& what) {
  Expect(err.find(reason) != std::string::npos,
         what + " (" + (err.empty() ? "accepted" : err) + ")");
}

/// Runs every perturbation against a ranking that passes CheckExact for
/// query q of `ref` over an epoch of `epoch_tables` tables.
void Perturb(const Hits& good, const Reference& ref, size_t q,
             size_t epoch_tables, int k, const std::string& label) {
  Expect(CheckExact(good, ref, q, epoch_tables, k).empty(),
         label + ": exact ranking accepted");
  Expect(CheckPruned(good, ref, q, epoch_tables, k).empty(),
         label + ": exact ranking accepted as pruned");
  if (good.size() < 3) {
    Expect(false, label + ": ranking too short to perturb");
    return;
  }
  Hits swapped = good;
  std::swap(swapped[0], swapped[1]);
  ExpectRejected(CheckPruned(swapped, ref, q, epoch_tables, k), "order",
                 label + ": swapped pair rejected");
  Hits altered = good;
  altered[1].score += 1e-6;
  altered[1].score = std::min(altered[1].score, altered[0].score);
  ExpectRejected(CheckPruned(altered, ref, q, epoch_tables, k),
                 "differs from the reference", label + ": altered score rejected");
  Hits duplicate = good;
  duplicate[2] = duplicate[1];
  ExpectRejected(CheckPruned(duplicate, ref, q, epoch_tables, k),
                 "duplicate id", label + ": duplicate id rejected");
  // The same ranking served from an epoch that ends before its largest id.
  fcm::table::TableId max_id = 0;
  for (const SearchHit& h : good) max_id = std::max(max_id, h.table_id);
  ExpectRejected(
      CheckPruned(good, ref, q, static_cast<size_t>(max_id), k),
      "outside the serving epoch", label + ": out-of-epoch id rejected");
  Hits dropped(good.begin() + 1, good.end());
  Expect(CheckPruned(dropped, ref, q, epoch_tables, k).empty(),
         label + ": pruned subset accepted as pruned");
  ExpectRejected(CheckExact(dropped, ref, q, epoch_tables, k),
                 "ranking length differs", label + ": pruned subset rejected as exact");
}

void SyntheticCases() {
  const double nan = std::nan("");
  // Table 3 never ranks (no encodable column); tables 5 and 6 tie.
  Reference ref({{0.2, 0.9, 0.4, nan, 0.7, 0.5, 0.5, 0.1, 0.8, 0.3}});
  const Hits top = ref.TopK(0, 10, 5);
  Expect(top.size() == 5 && top[0].table_id == 1 && top[1].table_id == 8 &&
             top[3].table_id == 5 && top[4].table_id == 6,
         "synthetic: reference ranks by (score desc, id asc)");
  Perturb(top, ref, 0, 10, 5, "synthetic");
  ExpectRejected(CheckPruned({{3, 0.5}}, ref, 0, 10, 5), "never ranks",
                 "synthetic: hit for an unranked table rejected");
  Reference saturated({{1.0, 0.5}});
  ExpectRejected(CheckPruned({{0, 1.0}}, saturated, 0, 2, 5), "(0, 1)",
                 "synthetic: score outside (0, 1) rejected");
  ExpectRejected(CheckPruned(top, ref, 0, 10, 4), "more hits than k",
                 "synthetic: more hits than k rejected");
  // Candidates {0, 2, 4, 6, 8}: their top-3 is 8, 4, 6.
  const std::vector<fcm::table::TableId> candidates = {0, 2, 4, 6, 8};
  Expect(CheckCandidateRanking({{8, 0.8}, {4, 0.7}, {6, 0.5}}, ref, 0, 10,
                               candidates, 3)
             .empty(),
         "synthetic: candidates' top-k accepted");
  ExpectRejected(CheckCandidateRanking({{4, 0.7}, {6, 0.5}, {2, 0.4}}, ref,
                                       0, 10, candidates, 3),
                 "candidates' reference top-k",
                 "synthetic: best candidate dropped rejected");
}

void EngineCases() {
  fcm::benchgen::BenchmarkConfig config;
  config.num_training_tables = 0;
  config.num_query_tables = 4;
  config.duplicates_per_query = 3;
  config.extra_lake_tables = 12;
  config.ground_truth_k = 0;
  config.seed = 7;
  fcm::vision::ClassicalExtractor extractor;
  const auto bench = fcm::benchgen::BuildBenchmark(config, extractor);
  std::vector<fcm::vision::ExtractedChart> queries;
  for (const auto& q : bench.queries) queries.push_back(q.extracted);
  fcm::core::FcmModel model{fcm::core::FcmConfig()};
  fcm::index::SearchEngine engine(&model, &bench.lake);
  fcm::index::SearchEngineOptions options;
  options.num_threads = 2;
  engine.BuildWithOptions(options);
  const Reference ref = Reference::Compute(model, bench.lake, queries, 2);
  const int k = 10;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string label = "engine query " + std::to_string(q);
    const Hits exact =
        engine.Search(queries[q], k, fcm::index::IndexStrategy::kNoIndex);
    Perturb(exact, ref, q, engine.num_tables(), k, label);
    const Hits pruned =
        engine.Search(queries[q], k, fcm::index::IndexStrategy::kHybrid);
    Expect(CheckPruned(pruned, ref, q, engine.num_tables(), k).empty(),
           label + ": kHybrid ranking accepted as pruned");

    // The same query through the public stages, where the candidates are
    // known: the ranking is their reference top-k, and a ranking that
    // drops the best candidate (the next one moving up) is rejected.
    std::vector<fcm::index::SearchEngine::StagedQuery> staged(1);
    staged[0].query = &queries[q];
    staged[0].strategy = fcm::index::IndexStrategy::kHybrid;
    staged[0].k = k;
    engine.EncodeStage(&staged);
    engine.CandidateStage(&staged);
    const Hits hits = engine.ScoreStage(staged)[0];
    const auto& cands = staged[0].candidates;
    bool same = hits.size() == pruned.size();
    for (size_t i = 0; same && i < hits.size(); ++i) {
      same = hits[i].table_id == pruned[i].table_id &&
             hits[i].score == pruned[i].score;
    }
    Expect(same, label + ": staged kHybrid ranking equals Search");
    Expect(CheckCandidateRanking(hits, ref, q, engine.num_tables(), cands, k)
               .empty(),
           label + ": staged kHybrid ranking accepted");
    const Hits longer = ref.TopK(q, engine.num_tables(), k + 1, &cands);
    if (longer.empty()) continue;  // No candidate to drop.
    const Hits dropped(longer.begin() + 1, longer.end());
    Expect(CheckPruned(dropped, ref, q, engine.num_tables(), k).empty(),
           label + ": best candidate dropped passes the pruned check");
    ExpectRejected(
        CheckCandidateRanking(dropped, ref, q, engine.num_tables(), cands, k),
        "candidates' reference top-k",
        label + ": best candidate dropped rejected");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::SyntheticCases();
  perfbench::EngineCases();
  std::printf("%s: %d failure(s)\n",
              perfbench::g_failures == 0 ? "OK" : "FAILED",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
