// Exhaustive reference and response checker. The reference scores every
// (query, table) pair straight through FcmModel (EncodeDataset,
// EncodeChart, ScoreEncoded), apart from the index, thread pool, epoch and
// snapshot code, and ranks by (score desc, id asc). The checker holds a
// served ranking to that reference.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/fcm_model.h"
#include "index/search_engine.h"
#include "table/data_lake.h"
#include "vision/extracted_chart.h"

namespace perfbench {

/// Largest difference allowed between a served score and the reference
/// score of the same pair. Both run the same arithmetic, so they agree to
/// far better than this.
constexpr double kScoreTolerance = 1e-9;

class Reference {
 public:
  /// Scores every query against every table of `lake` on `threads`
  /// threads of its own.
  static Reference Compute(const fcm::core::FcmModel& model,
                           const fcm::table::DataLake& lake,
                           const std::vector<fcm::vision::ExtractedChart>& queries,
                           int threads);

  /// From explicit scores: scores[q][id], NaN where the table has no
  /// encodable column and is never ranked.
  explicit Reference(std::vector<std::vector<double>> scores);

  double score(size_t q, fcm::table::TableId id) const {
    return scores_[q][static_cast<size_t>(id)];
  }

  /// Top-k over tables [0, num_tables) by (score desc, id asc); with
  /// `among`, only over the sorted ids it holds.
  std::vector<fcm::index::SearchHit> TopK(
      size_t q, size_t num_tables, int k,
      const std::vector<fcm::table::TableId>* among = nullptr) const;

 private:
  std::vector<std::vector<double>> scores_;
  /// Per query: scorable table ids in ranking order.
  std::vector<std::vector<fcm::table::TableId>> order_;
};

/// Checks a ranking served for query `q` from an epoch holding tables
/// [0, epoch_tables): at most k hits, ordered by (score desc, id asc),
/// ids unique and inside the epoch, scores in (0, 1) and equal to the
/// reference score of their table. Returns "" when it holds, otherwise
/// the first violation.
std::string CheckPruned(const std::vector<fcm::index::SearchHit>& hits,
                        const Reference& ref, size_t q, size_t epoch_tables,
                        int k);

/// CheckPruned plus: the ids are exactly the reference top-k of the epoch.
/// For exhaustive and snapshot-served rankings.
std::string CheckExact(const std::vector<fcm::index::SearchHit>& hits,
                       const Reference& ref, size_t q, size_t epoch_tables,
                       int k);

/// CheckPruned plus: the ids are exactly the reference top-k of the
/// sorted candidate ids the ranking was scored from. For pruned rankings
/// served through the public stages, where the candidates are known.
std::string CheckCandidateRanking(
    const std::vector<fcm::index::SearchHit>& hits, const Reference& ref,
    size_t q, size_t epoch_tables,
    const std::vector<fcm::table::TableId>& candidates, int k);

/// Share of the epoch's reference top-k present in `hits` (1 when the
/// reference top-k is empty).
double RecallAtK(const std::vector<fcm::index::SearchHit>& hits,
                 const Reference& ref, size_t q, size_t epoch_tables, int k);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
