// Chart-to-tables benchmark. One run = one workload at one seed:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--trace-out <file>] [--ground-truth]
//
// Inputs come from benchgen at the given seed; the program is driven only
// through its public calls (ClassicalExtractor::Extract, SearchEngine,
// AsyncSearchService). Every response is checked against an exhaustive
// reference computed after the timed phases. The untraced run (--trace 0)
// reports the end-to-end metrics; the traced run (--trace 1) records spans
// around each call, counts heap allocations per thread, and reports the
// per-layer metrics. The last stdout line is the result object; the line
// before it is a fuller report (machine, inputs, extra figures).
//
// Workloads (see README.md for why each exists):
//   search_exhaustive  closed loop: Extract + Search(kNoIndex, k=10)
//   serve_pruned       AsyncSearchService, kHybrid: open loop at a fixed
//                      seeded arrival rate, then a saturation phase
//   ingest_serve       IngestBatch/Compact beside a closed-loop
//                      Search(kHybrid) reader
// Each ends with Compact, SaveSnapshot, repeated OpenSnapshot, and the
// query set served exhaustively from the opened engine.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "benchgen/benchmark.h"
#include "check.h"
#include "common/simd.h"
#include "core/fcm_model.h"
#include "eval/metrics.h"
#include "index/async_service.h"
#include "index/search_engine.h"
#include "trace.h"
#include "vision/classical_extractor.h"

namespace perfbench {
namespace {

using fcm::index::AsyncSearchService;
using fcm::index::EpochPin;
using fcm::index::IndexStrategy;
using fcm::index::SearchEngine;
using fcm::index::SearchHit;
using Hits = std::vector<SearchHit>;

constexpr int kTopK = 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Most query charts the extractor may fail to read at set-up in a correct
/// run. An unreadable chart leaves the query set, so without this limit an
/// extractor regression would shrink the work of a run and read as a
/// speed-up. Today about 1 chart in 600 is unreadable (seeds 1-20: one at
/// seeds 15 and 17 each); at that rate more than 3 of 104 happens at fewer
/// than 1 seed in 10,000.
constexpr size_t kMaxUnreadableCharts = 3;
/// OpenSnapshot calls per run; snapshot_open_ms is their median.
constexpr int kSnapshotOpens = 9;
/// Tail latency percentile. Every latency phase collects at least
/// kMinLatencySamples samples, so at least 10 lie beyond it. The central
/// latency figure is the mean, not the median: per-request cost is
/// bimodal (a query the interval tree prunes to a few candidates takes
/// 2-5 ms, the rest 15-120 ms), so the median falls between the clusters
/// and moved by 25% between seeds where the mean moved by 9%.
constexpr double kTailPercentile = 90.0;
constexpr size_t kMinLatencySamples = 100;
/// serve_pruned: the open-loop phase sends the whole rounds of the query
/// set that fit in --seconds at kOpenLoopRate requests/s (about a quarter
/// of saturation throughput here), and at least kMinLatencySamples
/// requests; the saturation phase sends kSaturationRounds rounds.
constexpr double kOpenLoopRate = 10.0;
constexpr size_t kSaturationRounds = 2;
/// ingest_serve: the base build holds this share of the lake; the rest
/// arrives in batches of kIngestBatchTables, spread evenly over the
/// reader's kIngestReaderRounds rounds of the query set, with a Compact
/// after every kCompactEvery batches.
constexpr double kBaseShare = 0.5;
constexpr size_t kIngestBatchTables = 16;
constexpr size_t kIngestReaderRounds = 3;
constexpr size_t kCompactEvery = 4;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool ground_truth = false;
  std::string work_dir = ".";
  std::string trace_out;
};

double Ms(Clock::time_point a, Clock::time_point b) {
  return 1e3 * SecondsBetween(a, b);
}

/// Linear interpolation between closest ranks (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Named metrics in insertion order, rendered as the result object's
/// "metrics" member.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream out;
    out << '{';
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out << (i ? ", " : "") << '"' << entries_[i].name
          << "\": {\"value\": " << value << ", \"unit\": \""
          << entries_[i].unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------
// Inputs

struct Inputs {
  fcm::benchgen::Benchmark bench;
  /// Pre-rendered query charts the extractor can read, and for each the
  /// index of its benchgen query record and its set-up extraction (the
  /// reference's query).
  std::vector<fcm::chart::RenderedChart> charts;
  std::vector<size_t> record;
  std::vector<fcm::vision::ExtractedChart> extracted;
  /// Charts the extractor could not read at set-up. They are left out of
  /// the query set (never replaced by the mask oracle), reported, and
  /// limited to kMaxUnreadableCharts in a correct run.
  size_t unreadable = 0;
};

Inputs MakeInputs(const Options& opt) {
  // 104 query tables (26 per line-count stratum) with 2 noisy duplicates
  // each, plus 72 background tables: 384 tables. Many queries with few
  // duplicates keep a run's work close to the same at every seed: each
  // query's cost grows with its line count, and each duplicate copies its
  // source table's column count.
  fcm::benchgen::BenchmarkConfig config;
  config.num_training_tables = 0;
  config.num_query_tables = 104;
  config.duplicates_per_query = 2;
  config.extra_lake_tables = 72;
  config.seed = opt.seed;
  // The DTW ground truth is only needed for the effectiveness figures.
  if (!opt.ground_truth) config.ground_truth_k = 0;
  fcm::vision::ClassicalExtractor extractor;
  Inputs in{fcm::benchgen::BuildBenchmark(config, extractor), {}, {}, {}, 0};
  for (size_t i = 0; i < in.bench.queries.size(); ++i) {
    fcm::chart::RenderedChart chart = fcm::chart::RenderLineChart(
        in.bench.queries[i].underlying, config.chart_style);
    auto extracted = extractor.Extract(chart);
    if (!extracted.ok()) {
      ++in.unreadable;
      std::fprintf(stderr, "set-up: query chart %zu unreadable (%s); left out\n",
                   i, extracted.status().ToString().c_str());
      continue;
    }
    in.charts.push_back(std::move(chart));
    in.record.push_back(i);
    in.extracted.push_back(std::move(extracted).ValueOrDie());
  }
  return in;
}

// ---------------------------------------------------------------------
// Run state shared by the workloads

enum class Expect { kExact, kPruned };

struct Response {
  size_t query = 0;         // Index into Inputs::charts.
  size_t epoch_tables = 0;  // Tables in the epoch that served it.
  Expect expect = Expect::kPruned;
  bool recall = false;      // Counts toward recall_at_k.
  Hits hits;
  /// Served through the public stages: `candidates` are the sorted ids
  /// ScoreStage ranked, and a pruned ranking must be their reference top-k.
  bool staged = false;
  std::vector<fcm::table::TableId> candidates;
};

struct StageSample {
  size_t query = 0;
  size_t epoch_tables = 0;
  std::vector<fcm::table::TableId> candidates;
  size_t pairs = 0;
  double pair_seconds = 0.0;
  bool quiet = false;  // No other thread worked during its ScoreStage.
  AllocTotals allocs;
};

class Run {
 public:
  Run(const Options& opt, const Inputs& in)
      : opt_(opt), in_(in), tracer_(opt.trace), threads_(Nproc()) {}

  const Options& opt() const { return opt_; }
  const Inputs& in() const { return in_; }
  Tracer* tracer() { return &tracer_; }
  int threads() const { return threads_; }
  size_t num_queries() const { return in_.charts.size(); }

  uint64_t NextRequestId() { return next_request_.fetch_add(1) + 1; }

  void Attempt() { ++attempted_; }
  /// An operation that returned an error: counted in `failed`.
  void Fail(const std::string& what) {
    ++failed_;
    Note("operation failed: " + what);
  }
  /// A response or state that breaks a checked property: the run is
  /// not correct.
  void Violation(const std::string& what) {
    ++violations_;
    Note(what);
  }
  void Note(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (notes_.size() < 8) notes_.push_back(what);
  }
  void AddResponse(Response r) {
    std::lock_guard<std::mutex> lock(mu_);
    responses_.push_back(std::move(r));
  }
  void AddStageSample(StageSample s) {
    std::lock_guard<std::mutex> lock(mu_);
    stage_samples_.push_back(std::move(s));
  }

  /// Extract on the calling thread, inside an "Extract" span.
  bool Extract(size_t q, uint64_t parent, uint64_t request,
               fcm::vision::ExtractedChart* out) {
    ScopedSpan span(&tracer_, "Extract", parent, request);
    auto result = extractor_.Extract(in_.charts[q]);
    if (!result.ok()) return false;
    *out = std::move(result).ValueOrDie();
    return true;
  }

  /// One request through the public stage composition of Search, with a
  /// span per stage. Fills r's ranking and candidates; records a stage
  /// sample. With a `writer_gen` (see IngestServe), the sample's allocation
  /// counts are kept only if no write overlapped its ScoreStage.
  void Staged(const SearchEngine& engine, const EpochPin& pin,
              const fcm::vision::ExtractedChart& chart, size_t q,
              IndexStrategy strategy, uint64_t parent, uint64_t request,
              Response* r,
              const std::atomic<uint64_t>* writer_gen = nullptr) {
    r->staged = true;
    std::vector<SearchEngine::StagedQuery> staged(1);
    staged[0].query = &chart;
    staged[0].strategy = strategy;
    staged[0].k = kTopK;
    if (chart.lines.empty()) return;  // As Search: no lines, no hits.
    {
      ScopedSpan span(&tracer_, "EncodeStage", parent, request);
      engine.EncodeStage(&staged);
    }
    {
      ScopedSpan span(&tracer_, "CandidateStage", parent, request);
      engine.CandidateStage(&staged, nullptr, pin);
    }
    std::vector<fcm::index::QueryStats> stats;
    std::vector<Hits> hits;
    const uint64_t gen_before = writer_gen ? writer_gen->load() : 0;
    const AllocTotals before = ReadAllocTotals();
    {
      ScopedSpan span(&tracer_, "ScoreStage", parent, request);
      hits = engine.ScoreStage(staged, &stats, nullptr, pin);
    }
    const AllocTotals after = ReadAllocTotals();
    const uint64_t gen_after = writer_gen ? writer_gen->load() : 0;
    StageSample sample;
    sample.query = q;
    sample.epoch_tables = pin->num_tables();
    sample.candidates = staged[0].candidates;
    sample.pairs = stats[0].candidates_scored;
    sample.pair_seconds = stats[0].seconds;
    sample.quiet = gen_before == gen_after && gen_before % 2 == 0;
    sample.allocs = {after.count - before.count, after.bytes - before.bytes};
    AddStageSample(std::move(sample));
    r->candidates = staged[0].candidates;
    r->hits = std::move(hits[0]);
  }

  /// Compact, SaveSnapshot, kSnapshotOpens x OpenSnapshot, then the query
  /// set served exhaustively from the last opened engine.
  void SnapshotLifecycle(SearchEngine* engine) {
    const uint64_t request = NextRequestId();
    Attempt();
    {
      ScopedSpan span(&tracer_, "Compact", 0, request);
      if (!engine->Compact().ok()) Fail("Compact before save");
    }
    const std::string path =
        opt_.work_dir + "/snapshot-" + std::to_string(::getpid()) + ".fcm";
    Attempt();
    {
      ScopedSpan span(&tracer_, "SaveSnapshot", 0, request);
      const auto t0 = Clock::now();
      const auto status = engine->SaveSnapshot(path);
      save_ms_ = Ms(t0, Clock::now());
      if (!status.ok()) {
        Fail("SaveSnapshot: " + status.ToString());
        return;
      }
    }
    std::error_code ec;
    snapshot_mb_ =
        static_cast<double>(std::filesystem::file_size(path, ec)) / 1048576.0;
    std::unique_ptr<SearchEngine> opened;
    std::vector<double> open_ms;
    fcm::index::SnapshotOpenOptions open_options;
    open_options.num_threads = threads_;
    for (int i = 0; i < kSnapshotOpens; ++i) {
      Attempt();
      opened.reset();
      ScopedSpan span(&tracer_, "OpenSnapshot", 0, request);
      const auto t0 = Clock::now();
      auto result = SearchEngine::OpenSnapshot(path, open_options);
      open_ms.push_back(Ms(t0, Clock::now()));
      if (!result.ok()) {
        Fail("OpenSnapshot: " + result.status().ToString());
        continue;
      }
      opened = std::move(result).ValueOrDie();
    }
    open_ms_ = Percentile(open_ms, 50.0);
    if (opened != nullptr) {
      for (size_t q = 0; q < num_queries(); ++q) {
        Attempt();
        Response r;
        r.query = q;
        r.epoch_tables = opened->num_tables();
        r.expect = Expect::kExact;
        r.hits = opened->Search(in_.extracted[q], kTopK,
                                IndexStrategy::kNoIndex);
        AddResponse(std::move(r));
      }
    }
    std::filesystem::remove(path, ec);
  }

  double save_ms() const { return save_ms_; }
  double open_ms() const { return open_ms_; }
  double snapshot_mb() const { return snapshot_mb_; }

  /// Runs the reference and every check. Returns the mean recall@k of the
  /// responses marked for recall.
  double CheckAll(const fcm::core::FcmModel& model, Reference* out_ref) {
    *out_ref = Reference::Compute(model, in_.bench.lake, in_.extracted,
                                  threads_);
    const Reference& ref = *out_ref;
    std::vector<double> recalls;
    for (const Response& r : responses_) {
      std::string err;
      if (r.expect == Expect::kExact) {
        err = CheckExact(r.hits, ref, r.query, r.epoch_tables, kTopK);
      } else if (r.staged) {
        err = CheckCandidateRanking(r.hits, ref, r.query, r.epoch_tables,
                                    r.candidates, kTopK);
      } else {
        err = CheckPruned(r.hits, ref, r.query, r.epoch_tables, kTopK);
      }
      if (!err.empty()) Violation("query " + std::to_string(r.query) + ": " + err);
      if (r.recall) {
        recalls.push_back(
            RecallAtK(r.hits, ref, r.query, r.epoch_tables, kTopK));
      }
    }
    return Mean(recalls);
  }

  const std::vector<Response>& responses() const { return responses_; }
  const std::vector<StageSample>& stage_samples() const {
    return stage_samples_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return violations_ == 0; }
  void PrintNotes() const {
    for (const auto& v : notes_) std::fprintf(stderr, "CHECK: %s\n", v.c_str());
  }

 private:
  const Options& opt_;
  const Inputs& in_;
  Tracer tracer_;
  const int threads_;
  fcm::vision::ClassicalExtractor extractor_;
  std::atomic<uint64_t> next_request_{0};
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> violations_{0};
  std::mutex mu_;
  std::vector<std::string> notes_;  // The first few failures, for stderr.
  std::vector<Response> responses_;
  std::vector<StageSample> stage_samples_;
  double save_ms_ = 0.0, open_ms_ = 0.0, snapshot_mb_ = 0.0;
};

// ---------------------------------------------------------------------
// Set-up: model construction + BuildWithOptions, repeated

struct Served {
  fcm::table::DataLake base;  // ingest_serve's base lake; outlives engine.
  std::unique_ptr<fcm::core::FcmModel> model;
  std::unique_ptr<SearchEngine> engine;
  double setup_s = 0.0;        // Median over kSetupRepeats.
  double setup_first_s = 0.0;  // The first set-up alone (run report).
};

void SetUp(const fcm::table::DataLake& lake, int threads, Served* s) {
  std::vector<double> seconds;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s->engine.reset();
    s->model.reset();
    const auto t0 = Clock::now();
    s->model = std::make_unique<fcm::core::FcmModel>(fcm::core::FcmConfig());
    s->engine = std::make_unique<SearchEngine>(s->model.get(), &lake);
    fcm::index::SearchEngineOptions options;
    options.num_threads = threads;
    s->engine->BuildWithOptions(options);
    seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  s->setup_s = Percentile(seconds, 50.0);
  s->setup_first_s = seconds.front();
}

/// Rounds over the query set needed for kMinLatencySamples samples.
size_t MinRounds(size_t n) {
  return n == 0 ? 1 : (kMinLatencySamples + n - 1) / n;
}

/// The per-workload numbers behind both metric sets.
struct Figures {
  double setup_s = 0.0;
  std::vector<double> latency_ms;
  double throughput = 0.0;
  double recall = 0.0;
  double peak_rss_mb = 0.0;
  // Layer figures that only a workload knows.
  double batch_size_mean = 1.0;
  std::vector<double> late_ms;  // Generator lateness per request.
  double table_encode_ms = 0.0;
  double build_encode_s = 0.0;
  double build_index_ms = 0.0;
  // ingest_serve extras (reported, not in the per-layer metric set).
  std::vector<double> ingest_batch_ms, ingest_index_ms, compact_ms;
  size_t delta_segments_max = 0;
};

void RecordBuild(const SearchEngine& engine, size_t tables, Figures* f) {
  const auto& b = engine.build_stats();
  f->build_encode_s = b.encode_seconds;
  f->build_index_ms = 1e3 * (b.interval_build_seconds + b.lsh_build_seconds);
  f->table_encode_ms = 1e3 * b.encode_seconds / static_cast<double>(tables);
}

// ---------------------------------------------------------------------
// search_exhaustive

void SearchExhaustive(Run* run, Figures* f, Served* served) {
  SetUp(run->in().bench.lake, run->threads(), served);
  f->setup_s = served->setup_s;
  RecordBuild(*served->engine, run->in().bench.lake.size(), f);
  const SearchEngine& engine = *served->engine;
  const size_t n = run->num_queries();
  const auto start = Clock::now();
  auto prev_done = start;
  size_t done = 0;
  for (size_t round = 0;; ++round) {
    if (round >= MinRounds(n) &&
        SecondsBetween(start, Clock::now()) >= run->opt().seconds) {
      break;
    }
    for (size_t q = 0; q < n; ++q) {
      run->Attempt();
      const uint64_t request = run->NextRequestId();
      const auto t0 = Clock::now();
      f->late_ms.push_back(Ms(prev_done, t0));
      Response r;
      {
        ScopedSpan root(run->tracer(), "Request", 0, request);
        fcm::vision::ExtractedChart chart;
        if (!run->Extract(q, root.id(), request, &chart)) {
          run->Fail("Extract");
          continue;
        }
        const EpochPin pin = engine.PinEpoch();
        if (run->tracer()->enabled()) {
          run->Staged(engine, pin, chart, q, IndexStrategy::kNoIndex,
                      root.id(), request, &r);
        } else {
          r.hits = engine.Search(chart, kTopK, IndexStrategy::kNoIndex,
                                 nullptr, pin);
        }
        r.epoch_tables = pin->num_tables();
      }
      prev_done = Clock::now();
      f->latency_ms.push_back(Ms(t0, prev_done));
      r.query = q;
      r.expect = Expect::kExact;
      r.recall = true;
      run->AddResponse(std::move(r));
      ++done;
    }
  }
  f->throughput =
      static_cast<double>(done) / SecondsBetween(start, Clock::now());
  run->SnapshotLifecycle(served->engine.get());
}

// ---------------------------------------------------------------------
// serve_pruned

/// One submitted request awaiting its response.
struct Pending {
  std::future<Hits> future;
  Clock::time_point due;
  Clock::time_point submitted;
  size_t query = 0;
  uint64_t request = 0;
  uint64_t root = 0;
};

/// Waits for responses in submission order on its own thread and records
/// each one's latency from its due time.
class Collector {
 public:
  Collector(Run* run, const SearchEngine& engine, std::vector<double>* latency)
      : run_(run), engine_(engine), latency_(latency),
        thread_([this] { Loop(); }) {}
  ~Collector() { Finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  /// Waits for every pushed response; returns when the last was ready.
  Clock::time_point Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return last_ready_;
  }

 private:
  void Loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Response r;
      r.query = p.query;
      r.epoch_tables = engine_.num_tables();
      r.recall = true;
      try {
        r.hits = p.future.get();
      } catch (const std::exception& e) {
        run_->Fail(std::string("async request: ") + e.what());
        continue;
      }
      const auto ready = Clock::now();
      last_ready_ = ready;
      latency_->push_back(Ms(p.due, ready));
      if (run_->tracer()->enabled()) {
        Span submit;
        submit.name = "Submit";
        submit.start = p.submitted;
        submit.end = ready;
        submit.id = run_->tracer()->NewId();
        submit.parent = p.root;
        submit.request = p.request;
        run_->tracer()->Record(submit);
        Span root = submit;
        root.name = "Request";
        root.start = p.due;
        root.id = p.root;
        root.parent = 0;
        run_->tracer()->Record(root);
      }
      run_->AddResponse(std::move(r));
    }
  }

  Run* run_;
  const SearchEngine& engine_;
  std::vector<double>* latency_;  // Written by the collector thread only.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;  // Guarded by mu_.
  bool closed_ = false;        // Guarded by mu_.
  Clock::time_point last_ready_{};
  std::thread thread_;  // Last: starts after the members it uses.
};

/// Extracts chart q and submits it, due at `due`.
void SubmitOne(Run* run, AsyncSearchService* svc, Collector* collector,
               size_t q, Clock::time_point due) {
  run->Attempt();
  Pending p;
  p.due = due;
  p.query = q;
  p.request = run->NextRequestId();
  p.root = run->tracer()->NewId();
  fcm::vision::ExtractedChart chart;
  if (!run->Extract(q, p.root, p.request, &chart)) {
    run->Fail("Extract");
    return;
  }
  p.submitted = Clock::now();
  p.future = svc->Submit(std::move(chart), kTopK, IndexStrategy::kHybrid);
  collector->Push(std::move(p));
}

void ServePruned(Run* run, Figures* f, Served* served) {
  SetUp(run->in().bench.lake, run->threads(), served);
  f->setup_s = served->setup_s;
  RecordBuild(*served->engine, run->in().bench.lake.size(), f);
  const SearchEngine& engine = *served->engine;
  const size_t n = run->num_queries();
  AsyncSearchService svc(&engine);

  // Open loop: whole rounds of the query set paced at kOpenLoopRate
  // with a seeded jitter of +-50% on each gap, each request
  // timed from its due time.
  {
    std::mt19937_64 rng(run->opt().seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<double> offsets;
    double t = 0.0;
    const size_t rounds = std::max<size_t>(
        MinRounds(n), static_cast<size_t>(std::llround(
                          kOpenLoopRate * run->opt().seconds /
                          static_cast<double>(std::max<size_t>(n, 1)))));
    for (size_t i = 0; i < rounds * n; ++i) {
      const double u = static_cast<double>(rng() >> 11) * 0x1p-53;
      t += (0.5 + u) / kOpenLoopRate;
      offsets.push_back(t);
    }
    Collector collector(run, engine, &f->latency_ms);
    const auto start = Clock::now();
    for (size_t i = 0; i < offsets.size(); ++i) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offsets[i]));
      std::this_thread::sleep_until(due);
      f->late_ms.push_back(Ms(due, Clock::now()));
      SubmitOne(run, &svc, &collector, i % n, due);
    }
    collector.Finish();
  }

  // Saturation: kSaturationRounds rounds submitted as fast as block
  // backpressure admits; throughput is responses over the time from the
  // first submission to the last response.
  {
    std::vector<double> latency;
    const auto before = svc.stats();
    Collector collector(run, engine, &latency);
    const auto start = Clock::now();
    for (size_t i = 0; i < kSaturationRounds * n; ++i) {
      SubmitOne(run, &svc, &collector, i % n, Clock::now());
    }
    const auto last = collector.Finish();
    const auto after = svc.stats();
    f->throughput = static_cast<double>(latency.size()) /
                    SecondsBetween(start, last);
    const double batches = static_cast<double>(after.batches - before.batches);
    f->batch_size_mean =
        batches > 0 ? static_cast<double>(after.submitted - before.submitted) /
                          batches
                    : 0.0;
  }
  svc.Shutdown();

  // Traced run only: the stages cannot be observed inside the service, so
  // one quiet round through the public stage composition gives the
  // candidate and scoring layers.
  if (run->tracer()->enabled()) {
    for (size_t q = 0; q < n; ++q) {
      const uint64_t request = run->NextRequestId();
      ScopedSpan root(run->tracer(), "StagePass", 0, request);
      Response r;
      r.query = q;
      run->Staged(engine, engine.PinEpoch(), run->in().extracted[q], q,
                  IndexStrategy::kHybrid, root.id(), request, &r);
      r.epoch_tables = engine.num_tables();
      run->AddResponse(std::move(r));
    }
  }
  run->SnapshotLifecycle(served->engine.get());
}

// ---------------------------------------------------------------------
// ingest_serve

void IngestServe(Run* run, Figures* f, Served* served) {
  const fcm::table::DataLake& lake = run->in().bench.lake;
  const size_t total = lake.size();
  const size_t base_tables =
      static_cast<size_t>(kBaseShare * static_cast<double>(total));
  for (size_t i = 0; i < base_tables; ++i) {
    served->base.Add(lake.Get(static_cast<fcm::table::TableId>(i)));
  }
  SetUp(served->base, run->threads(), served);
  f->setup_s = served->setup_s;
  RecordBuild(*served->engine, base_tables, f);
  SearchEngine* engine = served->engine.get();
  const size_t n = run->num_queries();
  const size_t num_batches =
      (total - base_tables + kIngestBatchTables - 1) / kIngestBatchTables;
  // The reader makes kIngestReaderRounds whole rounds; batch b starts once
  // the reader has started b / num_batches of its requests, so writes
  // interleave with reads the same way at every seed and machine speed.
  const size_t reads = kIngestReaderRounds * n;
  std::atomic<size_t> reads_started{0};

  // The writer bumps `writer_gen` when it starts and when it ends a call;
  // an odd value means a write is in progress. A reader's allocation
  // counts are kept only when no write overlapped its ScoreStage.
  std::atomic<uint64_t> writer_gen{0};
  double ingest_seconds = 0.0;
  size_t ingested = 0;
  double encode_seconds = 0.0;
  std::thread writer([&] {
    for (size_t b = 0; b < num_batches; ++b) {
      while (reads_started.load() < b * reads / num_batches) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::vector<fcm::table::Table> tables;
      const size_t lo = base_tables + b * kIngestBatchTables;
      const size_t hi = std::min(total, lo + kIngestBatchTables);
      for (size_t i = lo; i < hi; ++i) {
        tables.push_back(lake.Get(static_cast<fcm::table::TableId>(i)));
      }
      const uint64_t request = run->NextRequestId();
      run->Attempt();
      writer_gen.fetch_add(1);
      fcm::index::IngestStats stats;
      const auto t0 = Clock::now();
      fcm::common::Status status;
      {
        ScopedSpan span(run->tracer(), "IngestBatch", 0, request);
        status = engine->IngestBatch(std::move(tables), &stats);
      }
      const double secs = SecondsBetween(t0, Clock::now());
      writer_gen.fetch_add(1);
      if (!status.ok()) {
        run->Fail("IngestBatch: " + status.ToString());
        continue;
      }
      ingest_seconds += secs;
      ingested += stats.tables;
      encode_seconds += stats.encode_seconds;
      f->ingest_batch_ms.push_back(1e3 * secs);
      f->ingest_index_ms.push_back(1e3 *
                                   (stats.lsh_seconds + stats.interval_seconds));
      if ((b + 1) % kCompactEvery == 0 && b + 1 < num_batches) {
        run->Attempt();
        writer_gen.fetch_add(1);
        const auto c0 = Clock::now();
        fcm::common::Status cs;
        {
          ScopedSpan span(run->tracer(), "Compact", 0, request);
          cs = engine->Compact();
        }
        f->compact_ms.push_back(Ms(c0, Clock::now()));
        writer_gen.fetch_add(1);
        if (!cs.ok()) run->Fail("Compact: " + cs.ToString());
      }
    }
  });

  auto prev_done = Clock::now();
  for (size_t round = 0; round < kIngestReaderRounds; ++round) {
    for (size_t q = 0; q < n; ++q) {
      reads_started.fetch_add(1);
      run->Attempt();
      const uint64_t request = run->NextRequestId();
      const auto t0 = Clock::now();
      f->late_ms.push_back(Ms(prev_done, t0));
      Response r;
      {
        ScopedSpan root(run->tracer(), "Request", 0, request);
        fcm::vision::ExtractedChart chart;
        if (!run->Extract(q, root.id(), request, &chart)) {
          run->Fail("Extract");
          continue;
        }
        const EpochPin pin = engine->PinEpoch();
        f->delta_segments_max =
            std::max(f->delta_segments_max, pin->num_segments() - 1);
        if (run->tracer()->enabled()) {
          run->Staged(*engine, pin, chart, q, IndexStrategy::kHybrid,
                      root.id(), request, &r, &writer_gen);
        } else {
          r.hits = engine->Search(chart, kTopK, IndexStrategy::kHybrid,
                                  nullptr, pin);
        }
        r.epoch_tables = pin->num_tables();
      }
      prev_done = Clock::now();
      f->latency_ms.push_back(Ms(t0, prev_done));
      r.query = q;
      r.recall = true;
      run->AddResponse(std::move(r));
    }
  }
  writer.join();
  f->throughput = ingest_seconds > 0
                      ? static_cast<double>(ingested) / ingest_seconds
                      : 0.0;
  f->table_encode_ms =
      ingested > 0 ? 1e3 * encode_seconds / static_cast<double>(ingested)
                   : 0.0;
  if (engine->num_tables() != total) {
    run->Violation("engine holds " + std::to_string(engine->num_tables()) +
                       " tables after ingest, lake has " +
                       std::to_string(total));
  }
  run->SnapshotLifecycle(engine);
}


// ---------------------------------------------------------------------
// Metrics and report

struct LayerFigures {
  double candidates_per_query = 0.0, candidate_recall = 0.0;
  double pairs_per_query = 0.0, us_per_pair = 0.0;
  double allocs_per_pair = 0.0, kb_per_pair = 0.0;
};

LayerFigures StageFigures(const std::vector<StageSample>& samples,
                          const Reference& ref) {
  LayerFigures l;
  double candidates = 0, pairs = 0, pair_seconds = 0, recall = 0;
  double quiet_pairs = 0, quiet_allocs = 0, quiet_bytes = 0;
  for (const StageSample& s : samples) {
    candidates += static_cast<double>(s.candidates.size());
    pairs += static_cast<double>(s.pairs);
    pair_seconds += s.pair_seconds;
    const Hits want = ref.TopK(s.query, s.epoch_tables, kTopK);
    size_t found = 0;
    for (const SearchHit& w : want) {
      found += std::binary_search(s.candidates.begin(), s.candidates.end(),
                                  w.table_id);
    }
    recall += want.empty() ? 1.0
                           : static_cast<double>(found) /
                                 static_cast<double>(want.size());
    if (s.quiet) {
      quiet_pairs += static_cast<double>(s.pairs);
      quiet_allocs += static_cast<double>(s.allocs.count);
      quiet_bytes += static_cast<double>(s.allocs.bytes);
    }
  }
  const double n = static_cast<double>(std::max<size_t>(samples.size(), 1));
  l.candidates_per_query = candidates / n;
  l.candidate_recall = recall / n;
  l.pairs_per_query = pairs / n;
  if (pairs > 0) l.us_per_pair = 1e6 * pair_seconds / pairs;
  if (quiet_pairs > 0) {
    l.allocs_per_pair = quiet_allocs / quiet_pairs;
    l.kb_per_pair = quiet_bytes / 1024.0 / quiet_pairs;
  }
  return l;
}

double MeanSelfMs(const std::map<std::string, Tracer::Layer>& layers,
                  const char* name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.spans == 0) return 0.0;
  return 1e3 * it->second.self_seconds /
         static_cast<double>(it->second.spans);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else if (a == "--ground-truth") {
      opt.ground_truth = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  void (*workload)(Run*, Figures*, Served*) = nullptr;
  if (opt.workload == "search_exhaustive") workload = SearchExhaustive;
  if (opt.workload == "serve_pruned") workload = ServePruned;
  if (opt.workload == "ingest_serve") workload = IngestServe;
  if (workload == nullptr || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "search_exhaustive|serve_pruned|ingest_serve --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // Before any thread exists, so every thread's allocations are counted.
  if (opt.trace) EnableAllocCounting();

  const Inputs in = MakeInputs(opt);
  Run run(opt, in);
  Figures f;
  Served served;
  workload(&run, &f, &served);
  f.peak_rss_mb = PeakRssMb();

  Reference ref({});
  f.recall = run.CheckAll(*served.model, &ref);
  if (in.unreadable > kMaxUnreadableCharts) {
    run.Violation(std::to_string(in.unreadable) + " of " +
                  std::to_string(in.bench.queries.size()) +
                  " query charts unreadable");
  }
  if (f.latency_ms.size() < kMinLatencySamples) {
    run.Violation("too few latency samples");
  }

  Metrics e2e;
  e2e.Add("setup_s", f.setup_s, "s");
  e2e.Add("peak_rss_mb", f.peak_rss_mb, "MB");
  e2e.Add("latency_mean_ms", Mean(f.latency_ms), "ms");
  e2e.Add("latency_tail_ms", Percentile(f.latency_ms, kTailPercentile), "ms");
  e2e.Add("throughput_per_s", f.throughput, "1/s");
  e2e.Add("recall_at_k", f.recall, "ratio");
  e2e.Add("snapshot_open_ms", run.open_ms(), "ms");
  e2e.Add("snapshot_mb", run.snapshot_mb(), "MB");

  Metrics layer;
  if (opt.trace) {
    const auto spans = run.tracer()->SelfTimes();
    const LayerFigures l = StageFigures(run.stage_samples(), ref);
    layer.Add("vision.extract_ms", MeanSelfMs(spans, "Extract"), "ms");
    layer.Add("encode.chart_ms", MeanSelfMs(spans, "EncodeStage"), "ms");
    layer.Add("encode.table_ms", f.table_encode_ms, "ms");
    layer.Add("candidates.ms", MeanSelfMs(spans, "CandidateStage"), "ms");
    layer.Add("candidates.per_query", l.candidates_per_query, "count");
    layer.Add("candidates.recall_at_k", l.candidate_recall, "ratio");
    layer.Add("score.ms", MeanSelfMs(spans, "ScoreStage"), "ms");
    layer.Add("score.pairs_per_query", l.pairs_per_query, "count");
    layer.Add("score.us_per_pair", l.us_per_pair, "us");
    layer.Add("score.allocs_per_pair", l.allocs_per_pair, "count");
    layer.Add("score.kb_per_pair", l.kb_per_pair, "KB");
    layer.Add("async.batch_size_mean", f.batch_size_mean, "requests");
    layer.Add("async.generator_late_ms", Mean(f.late_ms), "ms");
    layer.Add("build.encode_s", f.build_encode_s, "s");
    layer.Add("build.index_ms", f.build_index_ms, "ms");
    layer.Add("snapshot.save_ms", run.save_ms(), "ms");
    if (!opt.trace_out.empty() && !run.tracer()->WriteJson(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    }
  }

  Metrics extra;  // Workload-specific figures outside both metric sets.
  extra.Add("latency_samples", static_cast<double>(f.latency_ms.size()),
            "count");
  extra.Add("latency_p50_ms", Percentile(f.latency_ms, 50.0), "ms");
  extra.Add("setup_first_s", served.setup_first_s, "s");
  if (opt.workload == "ingest_serve") {
    extra.Add("ingest.batch_ms", Mean(f.ingest_batch_ms), "ms");
    extra.Add("ingest.index_ms", Mean(f.ingest_index_ms), "ms");
    extra.Add("ingest.delta_segments_max",
              static_cast<double>(f.delta_segments_max), "count");
    extra.Add("compact.ms", Mean(f.compact_ms), "ms");
  }
  if (opt.ground_truth) {
    // Served rankings against benchgen's DTW ground truth: the first
    // response per query. A random-weight model, so a reference figure.
    std::vector<double> prec, ndcg;
    std::vector<bool> seen(run.num_queries(), false);
    for (const Response& r : run.responses()) {
      if (!r.recall || seen[r.query]) continue;
      seen[r.query] = true;
      std::vector<fcm::table::TableId> ids;
      for (const SearchHit& h : r.hits) ids.push_back(h.table_id);
      const auto& rel = in.bench.queries[in.record[r.query]].relevant;
      prec.push_back(fcm::eval::PrecisionAtK(ids, rel, kTopK));
      ndcg.push_back(fcm::eval::NdcgAtK(ids, rel, kTopK));
    }
    extra.Add("prec_at_k", Mean(prec), "ratio");
    extra.Add("ndcg_at_k", Mean(ndcg), "ratio");
  }
  size_t drawn = 0, read = 0, same = 0, da = 0;
  std::vector<int> strata(4, 0);
  for (size_t q = 0; q < in.charts.size(); ++q) {
    const auto& rec = in.bench.queries[in.record[q]];
    drawn += static_cast<size_t>(rec.num_lines);
    read += in.extracted[q].lines.size();
    same += static_cast<int>(in.extracted[q].lines.size()) == rec.num_lines;
    da += rec.is_da;
    ++strata[fcm::benchgen::Benchmark::LineCountBucket(rec.num_lines)];
  }

  std::printf(
      "{\"report\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"machine\": {\"nproc\": %d, \"cpu_model\": \"%s\", \"simd\": \"%s\"}, "
      "\"inputs\": {\"lake_tables\": %zu, \"queries\": %zu, "
      "\"unreadable_charts\": %zu, \"da_queries\": %zu, "
      "\"strata_1_2-4_5-7_gt7\": [%d, %d, %d, %d], \"lines_drawn\": %zu, "
      "\"lines_extracted\": %zu, \"line_count_matches\": %zu}, "
      "\"tail_percentile\": %.0f, \"attempted\": %llu, \"failed\": %llu, "
      "\"correct\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"extra\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, run.threads(), JsonEscape(CpuModel()).c_str(),
      fcm::simd::TargetName(fcm::simd::ActiveTarget()), in.bench.lake.size(),
      in.charts.size(), in.unreadable, da, strata[0], strata[1], strata[2],
      strata[3], drawn, read, same, kTailPercentile,
      static_cast<unsigned long long>(run.attempted()),
      static_cast<unsigned long long>(run.failed()),
      run.correct() ? "true" : "false", e2e.Json().c_str(),
      layer.Json().c_str(), extra.Json().c_str());
  run.PrintNotes();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.correct() ? "true" : "false",
              static_cast<unsigned long long>(run.attempted()),
              static_cast<unsigned long long>(run.failed()),
              opt.trace ? layer.Json().c_str() : e2e.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
