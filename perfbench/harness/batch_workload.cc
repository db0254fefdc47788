// batch-b64: in-process SessionModel::RecommendBatch on B=64 independent
// whole sessions, closed loop; the only workload on the batched path.

#include <cstdint>
#include <cstdio>
#include <map>

#include "models/model_factory.h"
#include "workload/session_generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using etude::models::ExecOptions;
using etude::models::SessionModel;
using Batch = std::vector<std::vector<int64_t>>;

constexpr int kBatch = 64;
constexpr int64_t kCatalog = 100000;
constexpr int kCheckedBatches = 4;

Batch NextBatch(etude::workload::SessionGenerator* generator) {
  Batch batch;
  while (static_cast<int>(batch.size()) < kBatch) {
    std::vector<int64_t> items = generator->NextSession().items;
    if (!items.empty()) batch.push_back(std::move(items));
  }
  return batch;
}

struct BatchPhase {
  std::vector<int64_t> start_ns;
  std::vector<double> latencies_ms;
  int64_t sessions = 0;
  int64_t failed = 0;
  // The first kCheckedBatches batches with their batched answers and time.
  std::vector<Batch> kept;
  std::vector<std::vector<etude::models::Recommendation>> kept_results;
  std::vector<double> kept_ms;
};

/// Closed loop of fresh batches for `seconds`, or until `max_batches`.
BatchPhase RunPhase(const SessionModel& model, const ExecOptions& exec,
                    etude::workload::SessionGenerator* generator,
                    double seconds, SpanRecorder* spans,
                    int64_t max_batches = INT64_MAX) {
  BatchPhase phase;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t index = 0;
  while (NowNs() < end && index < max_batches) {
    Batch batch = NextBatch(generator);
    const int64_t start = NowNs();
    auto result = model.RecommendBatch(batch, exec);
    const int64_t stop = NowNs();
    spans->Add("models.recommend_batch", start, stop, -1, index++);
    phase.sessions += kBatch;
    phase.start_ns.push_back(start);
    if (!result.ok() || result->size() != batch.size()) {
      phase.failed += kBatch;
      phase.latencies_ms.push_back(1e12);
      continue;
    }
    const double ms = static_cast<double>(stop - start) / 1e6;
    phase.latencies_ms.push_back(ms);
    if (static_cast<int>(phase.kept.size()) < kCheckedBatches) {
      phase.kept.push_back(std::move(batch));
      phase.kept_results.push_back(std::move(*result));
      phase.kept_ms.push_back(ms);
    }
  }
  return phase;
}

/// Runs every kept session through unbatched Recommend; counts sessions
/// whose top-k ids differ from the batched answer, and sums the
/// unbatched time.
int64_t CheckAgainstUnbatched(const SessionModel& model,
                              const ExecOptions& exec,
                              const BatchPhase& phase, SpanRecorder* spans,
                              double* unbatched_ms, int64_t* checked) {
  int64_t mismatches = 0;
  for (size_t b = 0; b < phase.kept.size(); ++b) {
    const int parent = spans->Begin("unbatched_batch", -1,
                                    static_cast<int64_t>(b));
    for (size_t i = 0; i < phase.kept[b].size(); ++i) {
      const int64_t start = NowNs();
      auto single = model.Recommend(phase.kept[b][i], exec);
      const int64_t stop = NowNs();
      spans->Add("models.recommend", start, stop, parent,
                 static_cast<int64_t>(b * kBatch + i));
      *unbatched_ms += static_cast<double>(stop - start) / 1e6;
      ++*checked;
      if (!single.ok() || single->items != phase.kept_results[b][i].items) {
        ++mismatches;
      }
    }
    spans->End(parent);
  }
  return mismatches;
}

/// Sessions per second of batch time in each one-second window of the
/// phase; the reported throughput is their median, so a burst of host
/// noise moves one window, not the run.
std::vector<double> SessionRateWindows(const BatchPhase& phase) {
  constexpr int64_t kWindowNs = 1'000'000'000;
  std::map<int64_t, std::pair<double, double>> windows;  // sessions, ms
  for (size_t i = 0; i < phase.start_ns.size(); ++i) {
    auto& [sessions, ms] =
        windows[(phase.start_ns[i] - phase.start_ns.front()) / kWindowNs];
    sessions += kBatch;
    ms += phase.latencies_ms[i];
  }
  std::vector<double> rates;
  for (const auto& [index, window] : windows) {
    if (window.first >= 4 * kBatch) {
      rates.push_back(window.first / (window.second / 1e3));
    }
  }
  return rates;
}

/// Sets the batched-path layer metrics from the phase's kept batches and
/// their unbatched re-run.
void SetBatchedPathMetrics(const BatchPhase& phase, double unbatched_ms,
                           int64_t checked, Report* report) {
  double batch_ms = 0;
  for (double ms : phase.kept_ms) batch_ms += ms;
  const double sessions = static_cast<double>(std::max<int64_t>(checked, 1));
  report->Set("models.batch_us_per_session", 1e3 * batch_ms / sessions, "us");
  report->Set("models.unbatched_us_per_session", 1e3 * unbatched_ms / sessions,
              "us");
}

std::unique_ptr<SessionModel> CreateBatchModel() {
  etude::models::ModelConfig config;
  config.catalog_size = kCatalog;
  auto created = etude::models::CreateModel("SASRec", config);
  if (!created.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 created.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*created);
}

}  // namespace

bool ProbeBatchedPath(uint64_t seed, SpanRecorder* spans, Report* report) {
  const ExecOptions exec{etude::models::ExecutionMode::kJit,
                         etude::models::ExecPlanKind::kMalloc};
  auto generator = etude::workload::SessionGenerator::Create(
      kCatalog, etude::workload::WorkloadStats{}, seed * 11 + 3);
  std::unique_ptr<SessionModel> model = CreateBatchModel();
  if (!generator.ok() || model == nullptr) return false;
  // One untimed batch compiles the plans, as the workload's set-up does.
  RunPhase(*model, exec, &*generator, 60, spans, 1);
  const BatchPhase phase =
      RunPhase(*model, exec, &*generator, 60, spans, kCheckedBatches);
  double unbatched_ms = 0;
  int64_t checked = 0;
  const int64_t mismatches = CheckAgainstUnbatched(
      *model, exec, phase, spans, &unbatched_ms, &checked);
  report->AddAttempted(phase.sessions);
  report->AddFailed(phase.failed);
  report->AddMismatch(mismatches);
  SetBatchedPathMetrics(phase, unbatched_ms, checked, report);
  report->Note("batched path: " + std::to_string(checked) +
               " sessions through RecommendBatch (B=64) and Recommend, " +
               std::to_string(mismatches) + " id mismatches");
  return true;
}

bool RunBatchWorkload(const RunContext& ctx, Report* report) {
  const ExecOptions exec{etude::models::ExecutionMode::kJit,
                         etude::models::ExecPlanKind::kMalloc};
  auto warm_generator = etude::workload::SessionGenerator::Create(
      kCatalog, etude::workload::WorkloadStats{}, ctx.seed * 11 + 1);
  auto generator = etude::workload::SessionGenerator::Create(
      kCatalog, etude::workload::WorkloadStats{}, ctx.seed * 11 + 2);
  if (!warm_generator.ok() || !generator.ok()) return false;

  // Set-up: model construction plus warm-up batches (which compile and
  // cache the execution plans), sampled five times.
  std::unique_ptr<SessionModel> model;
  std::vector<double> setups;
  for (int i = 0; i < 5; ++i) {
    const int64_t start = NowNs();
    std::unique_ptr<SessionModel> created = CreateBatchModel();
    if (created == nullptr) return false;
    for (int w = 0; w < 2; ++w) {
      if (!created->RecommendBatch(NextBatch(&*warm_generator), exec).ok()) {
        std::fprintf(stderr, "perfbench: warm-up batch failed\n");
        return false;
      }
    }
    setups.push_back(static_cast<double>(NowNs() - start) / 1e9);
    model = std::move(created);
  }

  SpanRecorder none(false);
  SpanRecorder spans(ctx.trace);
  const double first_s = ctx.trace ? 0.5 * ctx.seconds : ctx.seconds;
  const BatchPhase untraced =
      RunPhase(*model, exec, &*generator, first_s, &none);
  BatchPhase traced;
  if (ctx.trace) {
    traced = RunPhase(*model, exec, &*generator, ctx.seconds - first_s,
                      &spans);
  }
  const BatchPhase& last = ctx.trace ? traced : untraced;

  double unbatched_ms = 0;
  int64_t checked = 0;
  const int64_t mismatches = CheckAgainstUnbatched(
      *model, exec, last, &spans, &unbatched_ms, &checked);
  const int64_t attempted = untraced.sessions + traced.sessions;
  const int64_t failed = untraced.failed + traced.failed;
  report->AddAttempted(attempted);
  report->AddFailed(failed);
  report->AddMismatch(mismatches);

  const LatencySummary batch = Summarize(untraced.latencies_ms);
  const double p50_ms =
      Median(WindowQuantiles(untraced.start_ns, untraced.latencies_ms, 0.5, 8));
  const double p90_ms =
      Median(WindowQuantiles(untraced.start_ns, untraced.latencies_ms, 0.9, 8));
  const double sessions_per_s = Median(SessionRateWindows(untraced));
  char line[256];
  std::snprintf(line, sizeof(line),
                "batch: SASRec jit C=%lld B=%d, %lld batches, batch p50 "
                "%.4f ms, p90 %.4f ms, p99 %.4f ms (n=%lld), %.1f sessions/s",
                static_cast<long long>(kCatalog), kBatch,
                static_cast<long long>(batch.count), batch.p50_ms,
                batch.p90_ms, batch.p99_ms,
                static_cast<long long>(batch.count), sessions_per_s);
  report->Note(line);
  report->Note("batch 1 s windows, p50 ms:" +
               FormatSeries(WindowQuantiles(untraced.start_ns,
                                            untraced.latencies_ms, 0.5, 8),
                            2));
  std::snprintf(line, sizeof(line),
                "check: %lld sessions of %zu batches compared with unbatched "
                "Recommend, %lld mismatches; error_rate %.6f",
                static_cast<long long>(checked), last.kept.size(),
                static_cast<long long>(mismatches),
                static_cast<double>(failed + mismatches) /
                    static_cast<double>(std::max<int64_t>(attempted, 1)));
  report->Note(line);

  if (!ctx.trace) {
    report->Set("p50_ms", p50_ms, "ms");
    report->Set("p90_ms", p90_ms, "ms");
    report->Set("throughput_per_s", sessions_per_s, "1/s");
    report->Set("setup_s", Median(setups), "s");
    report->Set("peak_rss_mb", PeakRssMb(0), "MiB");
    return true;
  }

  // ---- Traced run: per-layer metrics. ----
  SetBatchedPathMetrics(traced, unbatched_ms, checked, report);
  report->Set("loadgen.sent", static_cast<double>(traced.sessions), "count");
  report->Set("loadgen.failed", static_cast<double>(traced.failed), "count");
  const double untraced_p50 = batch.p50_ms;
  report->Set("trace.overhead_pct",
              untraced_p50 > 0 ? 100.0 *
                                     (Median(traced.latencies_ms) -
                                      untraced_p50) /
                                     untraced_p50
                               : 0,
              "%");

  Batch sample;
  for (const Batch& b : traced.kept) {
    sample.insert(sample.end(), b.begin(), b.end());
  }
  if (sample.size() > 200) sample.resize(200);
  const ModelProbe probe = ProbeModel(*model, exec, sample, &spans);
  report->Set("models.recommend_us.p50", probe.recommend_us_p50, "us");
  report->Set("models.encode_us.p50", probe.encode_us_p50, "us");
  report->Set("models.heap_allocs_per_request",
              probe.heap_allocs_per_request, "count");
  report->Set("tensor.mips_us.p50", probe.mips_us_p50, "us");
  report->Set("tensor.mips_gbps", probe.mips_gbps, "GB/s");

  ReportSpans(spans, ctx.trace_path, report);
  return true;
}

}  // namespace perfbench
