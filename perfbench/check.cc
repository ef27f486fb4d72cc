#include "check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>

namespace perfbench {
namespace {

using fcm::index::SearchHit;
using fcm::table::TableId;

// Runs fn(i) for i in [0, n) on `threads` threads of the benchmark's own.
template <typename Fn>
void ParallelFor(size_t n, int threads, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < std::max(1, threads); ++t) {
    workers.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (auto& w : workers) w.join();
}

std::string Describe(const char* what, size_t pos, TableId id) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s at rank %zu (table %lld)", what, pos,
                static_cast<long long>(id));
  return buf;
}

}  // namespace

Reference::Reference(std::vector<std::vector<double>> scores)
    : scores_(std::move(scores)), order_(scores_.size()) {
  for (size_t q = 0; q < scores_.size(); ++q) {
    const auto& s = scores_[q];
    auto& order = order_[q];
    for (size_t id = 0; id < s.size(); ++id) {
      if (!std::isnan(s[id])) order.push_back(static_cast<TableId>(id));
    }
    std::sort(order.begin(), order.end(), [&](TableId a, TableId b) {
      const double sa = s[static_cast<size_t>(a)];
      const double sb = s[static_cast<size_t>(b)];
      return sa != sb ? sa > sb : a < b;
    });
  }
}

Reference Reference::Compute(
    const fcm::core::FcmModel& model, const fcm::table::DataLake& lake,
    const std::vector<fcm::vision::ExtractedChart>& queries, int threads) {
  const size_t n = lake.size();
  std::vector<fcm::core::DatasetRepresentation> tables(n);
  ParallelFor(n, threads, [&](size_t i) {
    tables[i] = fcm::core::FcmModel::Detach(
        model.EncodeDataset(lake.Get(static_cast<TableId>(i))));
  });
  std::vector<fcm::core::ChartRepresentation> charts(queries.size());
  ParallelFor(queries.size(), threads, [&](size_t q) {
    if (!queries[q].lines.empty()) {
      charts[q] = fcm::core::FcmModel::Detach(model.EncodeChart(queries[q]));
    }
  });
  const double kUnranked = std::nan("");
  std::vector<std::vector<double>> scores(
      queries.size(), std::vector<double>(n, kUnranked));
  ParallelFor(queries.size() * n, threads, [&](size_t p) {
    const size_t q = p / n, id = p % n;
    // Mirrors the engine: a chart without lines ranks nothing, a table
    // without encodable columns is never a hit.
    if (charts[q].empty() || tables[id].empty()) return;
    scores[q][id] = model.ScoreEncoded(charts[q], tables[id], queries[q].y_lo,
                                       queries[q].y_hi);
  });
  return Reference(std::move(scores));
}

std::vector<SearchHit> Reference::TopK(
    size_t q, size_t num_tables, int k,
    const std::vector<TableId>* among) const {
  std::vector<SearchHit> top;
  for (TableId id : order_[q]) {
    if (static_cast<int>(top.size()) >= k) break;
    if (static_cast<size_t>(id) >= num_tables) continue;
    if (among && !std::binary_search(among->begin(), among->end(), id)) {
      continue;
    }
    top.push_back({id, score(q, id)});
  }
  return top;
}

std::string CheckPruned(const std::vector<SearchHit>& hits,
                        const Reference& ref, size_t q, size_t epoch_tables,
                        int k) {
  if (static_cast<int>(hits.size()) > std::max(k, 0)) {
    return "more hits than k";
  }
  std::unordered_set<TableId> seen;
  for (size_t i = 0; i < hits.size(); ++i) {
    const SearchHit& h = hits[i];
    if (h.table_id < 0 || static_cast<size_t>(h.table_id) >= epoch_tables) {
      return Describe("id outside the serving epoch", i, h.table_id);
    }
    if (!seen.insert(h.table_id).second) {
      return Describe("duplicate id", i, h.table_id);
    }
    if (!(h.score > 0.0 && h.score < 1.0)) {
      return Describe("score outside (0, 1)", i, h.table_id);
    }
    const double expected = ref.score(q, h.table_id);
    if (std::isnan(expected)) {
      return Describe("hit for a table the reference never ranks", i,
                      h.table_id);
    }
    if (std::fabs(h.score - expected) > kScoreTolerance) {
      return Describe("score differs from the reference", i, h.table_id);
    }
    if (i > 0) {
      const SearchHit& prev = hits[i - 1];
      const bool ordered = prev.score != h.score ? prev.score > h.score
                                                 : prev.table_id < h.table_id;
      if (!ordered) return Describe("out of (score, id) order", i, h.table_id);
    }
  }
  return "";
}

std::string CheckExact(const std::vector<SearchHit>& hits,
                       const Reference& ref, size_t q, size_t epoch_tables,
                       int k) {
  std::string err = CheckPruned(hits, ref, q, epoch_tables, k);
  if (!err.empty()) return err;
  const std::vector<SearchHit> want = ref.TopK(q, epoch_tables, k);
  if (hits.size() != want.size()) return "ranking length differs";
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].table_id != want[i].table_id) {
      return Describe("ranking differs from the reference", i,
                      hits[i].table_id);
    }
  }
  return "";
}

std::string CheckCandidateRanking(const std::vector<SearchHit>& hits,
                                  const Reference& ref, size_t q,
                                  size_t epoch_tables,
                                  const std::vector<TableId>& candidates,
                                  int k) {
  std::string err = CheckPruned(hits, ref, q, epoch_tables, k);
  if (!err.empty()) return err;
  const std::vector<SearchHit> want =
      ref.TopK(q, epoch_tables, k, &candidates);
  if (hits.size() != want.size()) {
    return "length differs from the candidates' reference top-k";
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].table_id != want[i].table_id) {
      return Describe("ranking differs from the candidates' reference top-k",
                      i, hits[i].table_id);
    }
  }
  return "";
}

double RecallAtK(const std::vector<SearchHit>& hits, const Reference& ref,
                 size_t q, size_t epoch_tables, int k) {
  const std::vector<SearchHit> want = ref.TopK(q, epoch_tables, k);
  if (want.empty()) return 1.0;
  size_t found = 0;
  for (const SearchHit& w : want) {
    for (const SearchHit& h : hits) {
      if (h.table_id == w.table_id) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(want.size());
}

}  // namespace perfbench
