#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "env.h"
#include "models/session_model.h"
#include "report.h"

namespace perfbench {

/// The command-line arguments of one run plus where it runs.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  CpuPlacement placement;
  std::string trace_path;  // where a traced run writes its spans
};

/// The three workload families. Each measures for ctx.seconds, checks its
/// outputs, and fills `report` (end-to-end metrics when untraced, per-layer
/// metrics when traced). They return false only when set-up fails, in
/// which case no result may be printed.
struct ServeShape {
  int64_t catalog = 10000;
  double open_loop_rps = 4000;
};
bool RunServeWorkload(const RunContext& ctx, const ServeShape& shape,
                      Report* report);
bool RunBatchWorkload(const RunContext& ctx, Report* report);
bool RunPlanWorkload(const RunContext& ctx, Report* report);

/// The batched-path layer probe for a traced run of another workload:
/// SASRec jit at C=100k, four fresh B=64 batches through RecommendBatch and
/// the same sessions through Recommend. Sets models.batch_us_per_session
/// and models.unbatched_us_per_session; id mismatches count as wrong
/// outputs. False when the model cannot be built.
bool ProbeBatchedPath(uint64_t seed, SpanRecorder* spans, Report* report);

/// The cost-planning layer probe for a traced run of another workload: the
/// CPU time of PlanModelOnDevice for Fashion x GRU4Rec on each device
/// (core.plan_model_ms), BatchedCostModel (models.cost_model_us),
/// CheckSloFeasibility (core.lint_deploy_us) and RunDeployedBenchmark on
/// Fashion/T4/GRU4Rec (core.deployed_run_ms, sim.requests_per_s). False
/// when a call fails.
bool ProbePlanPath(SpanRecorder* spans, Report* report);

/// In-process, unloaded timings of the model layers on `sessions`.
struct ModelProbe {
  double recommend_us_p50 = 0;
  double encode_us_p50 = 0;
  double mips_us_p50 = 0;
  double mips_gbps = 0;  // computed: 4*C*d bytes / MIPS time
  double heap_allocs_per_request = 0;
};
ModelProbe ProbeModel(const etude::models::SessionModel& model,
                      const etude::models::ExecOptions& options,
                      const std::vector<std::vector<int64_t>>& sessions,
                      SpanRecorder* spans);

/// Median per-call cost, in ns, of HttpRequestParser::Consume over the
/// recorded request bytes, of SloMonitor::Record, and of a metric-registry
/// histogram Record.
double ProbeParseNs(const std::vector<std::string>& requests);
double ProbeSloRecordNs();
double ProbeHistogramRecordNs();

/// Times `fn` in `blocks` blocks of `calls` calls and returns the median
/// per-call time in ns.
template <typename Fn>
double MedianPerCallNs(int blocks, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < blocks; ++b) {
    const int64_t start = NowNs();
    for (int i = 0; i < calls; ++i) fn(b * calls + i);
    per_call.push_back(static_cast<double>(NowNs() - start) / calls);
  }
  return Median(per_call);
}

/// Percentiles of latencies in ms; the caller enters a failed request as
/// +inf, so it misses every limit.
struct LatencySummary {
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
  int64_t count = 0;
};
LatencySummary Summarize(const std::vector<double>& latencies_ms);

/// Groups `values` (sampled at `times_ns`) into one-second windows from the
/// first sample and returns the q-quantile of each window holding at least
/// `min_samples`. Workloads report medians over these windows, so a burst
/// of host noise moves one window, not the run. When `starts_ns` is given
/// it receives each returned window's start time.
std::vector<double> WindowQuantiles(const std::vector<int64_t>& times_ns,
                                    const std::vector<double>& values,
                                    double q, size_t min_samples,
                                    std::vector<int64_t>* starts_ns = nullptr);

/// The median of `values` over the half of their windows (rounded up) with
/// the smallest `stolen` share, ties to the earlier window. On a shared
/// host the hypervisor takes the CPUs away in bursts of seconds; this keeps
/// the windows it left alone.
double LeastStolenMedian(const std::vector<double>& values,
                         const std::vector<double>& stolen);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
