// plan-table1: the whole Table I search — CostPlanner over the paper's
// scenarios x the six healthy models x {CPU, T4, A100} on cost-only models
// (40 s simulated, 20 s ramp, one repetition) — checked cell for cell
// against the table recorded in EXPERIMENTS.md.
//
// The search is single-threaded and in-process, so it is timed in the
// planning thread's CPU time: on a shared VM that is the wall time minus
// the time the hypervisor gave this vCPU to other guests. Wall times are
// printed alongside.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "core/benchmark.h"
#include "core/cost_planner.h"
#include "core/scenario.h"
#include "core/slo_feasibility.h"
#include "models/model_factory.h"
#include "workloads.h"

namespace perfbench {

namespace {

using etude::core::CostPlanner;
using etude::models::ExecutionMode;
using etude::models::ModelKind;
using etude::sim::DeviceSpec;

const std::vector<DeviceSpec>& Devices() {
  static const std::vector<DeviceSpec> devices = {
      DeviceSpec::Cpu(), DeviceSpec::GpuT4(), DeviceSpec::GpuA100()};
  return devices;
}

/// The planner settings of the Table I search: 40 s simulated with a 20 s
/// ramp, one repetition, at most eight replicas.
etude::core::PlannerOptions TableOneOptions() {
  etude::core::PlannerOptions options;
  options.duration_s = 40;
  options.ramp_s = 20;
  options.repetitions = 1;
  options.max_replicas = 8;
  return options;
}

/// One row of Table I as recorded in EXPERIMENTS.md.
struct ExpectedRow {
  const char* scenario;
  const char* instance;
  int amount;
  int monthly_cost_usd;
  std::set<std::string> passing;
};

std::vector<ExpectedRow> ExpectedTable() {
  const std::set<std::string> all = {"CORE", "GRU4Rec", "NARM",
                                     "SASRec", "SINE", "STAMP"};
  return {
      {"Groceries (small)", "CPU", 1, 108, all},
      {"Groceries (large)", "CPU", 1, 108, all},
      {"Fashion", "CPU", 3, 324, {"SASRec", "STAMP"}},
      {"Fashion", "GPU-T4", 1, 268, all},
      {"Fashion", "GPU-A100", 1, 2009, all},
      {"e-Commerce", "GPU-T4", 5, 1340, all},
      {"e-Commerce", "GPU-A100", 2, 4018, all},
      {"Platform", "GPU-A100", 3, 6026, {"GRU4Rec", "NARM", "SINE", "STAMP"}},
  };
}

/// A produced Table I row: the smallest fleet on this instance type that
/// accommodates every model feasible on it (as bench_table1_cost builds
/// it), its price and the models passing.
struct Row {
  int amount = 0;
  double cost = 0;
  std::set<std::string> passing;
};

struct SearchResult {
  std::map<std::pair<std::string, std::string>, Row> rows;
  std::vector<double> cell_ms;       // CPU time of each (scenario, model)
  std::vector<double> plan_call_ms;  // CPU time of each PlanModelOnDevice
  int64_t calls = 0;
  int64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Set-up as the planner does it lazily: cost-only models of the six
/// healthy architectures at every Table I scenario's catalog, with their
/// plan IR and batched cost summaries built. Returns its CPU seconds, or -1
/// when a model cannot be built.
double TimeSetUp() {
  const int64_t start = ThreadCpuNs();
  for (const etude::core::Scenario& scenario : etude::core::PaperScenarios()) {
    for (const ModelKind kind : etude::models::HealthyModelKinds()) {
      etude::models::ModelConfig config;
      config.catalog_size = scenario.catalog_size;
      config.materialize_embeddings = false;
      auto model = etude::models::CreateModel(kind, config);
      if (!model.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     model.status().ToString().c_str());
        return -1;
      }
      (*model)->CostModel(ExecutionMode::kJit, 3);
      (*model)->BatchedCostModel(ExecutionMode::kJit, 10, 16);
    }
  }
  return static_cast<double>(ThreadCpuNs() - start) / 1e9;
}

/// Plans every (scenario, model) cell of Table I on every instance type, in
/// the table's order and under the planner's default DES seed, with which
/// EXPERIMENTS.md recorded the table. Both are fixed on purpose: another
/// DES seed changes how much is simulated (whole-search wall time moved
/// by up to 20% across seeds), and another cell order moves time between
/// cells. When `setups` is given, one set-up is timed after each cell; the
/// search's own wall and CPU times leave it out.
SearchResult RunSearch(SpanRecorder* spans, std::vector<double>* setups) {
  CostPlanner planner(TableOneOptions());
  SearchResult result;
  const int64_t search_start = NowNs();
  const int64_t search_cpu_start = ThreadCpuNs();
  int64_t setup_wall_ns = 0;
  double setup_cpu_s = 0;
  int64_t cell_id = 0;
  for (const etude::core::Scenario& scenario : etude::core::PaperScenarios()) {
    for (const ModelKind model : etude::models::HealthyModelKinds()) {
      const int64_t cell_start = ThreadCpuNs();
      const int parent = spans->Begin("core.plan_model", -1, cell_id);
      for (const DeviceSpec& device : Devices()) {
        const int64_t start = NowNs();
        const int64_t cpu_start = ThreadCpuNs();
        auto plan = planner.PlanModelOnDevice(scenario, model, device);
        result.plan_call_ms.push_back(
            static_cast<double>(ThreadCpuNs() - cpu_start) / 1e6);
        spans->Add("core.plan_model_on_device", start, NowNs(), parent,
                   cell_id);
        ++result.calls;
        if (!plan.ok()) {
          ++result.failed;
          continue;
        }
        if (!plan->feasible()) continue;
        Row& row = result.rows[{scenario.name,
                                std::string(etude::sim::DeviceKindToString(
                                    device.kind))}];
        row.amount = std::max(row.amount, plan->replicas);
        row.cost = row.amount * device.monthly_cost_usd;
        row.passing.insert(
            std::string(etude::models::ModelKindToString(model)));
      }
      spans->End(parent);
      result.cell_ms.push_back(
          static_cast<double>(ThreadCpuNs() - cell_start) / 1e6);
      if (setups != nullptr) {
        const int64_t setup_start = NowNs();
        setups->push_back(TimeSetUp());
        setup_wall_ns += NowNs() - setup_start;
        setup_cpu_s += setups->back();
      }
      ++cell_id;
    }
  }
  result.wall_s =
      static_cast<double>(NowNs() - search_start - setup_wall_ns) / 1e9;
  result.cpu_s =
      static_cast<double>(ThreadCpuNs() - search_cpu_start) / 1e9 -
      setup_cpu_s;
  return result;
}

/// Rows of the recorded table that the search reproduced differently.
int64_t CheckTable(const SearchResult& result, Report* report) {
  int64_t mismatches = 0;
  for (const ExpectedRow& expected : ExpectedTable()) {
    const auto it = result.rows.find({expected.scenario, expected.instance});
    const bool same =
        it != result.rows.end() && it->second.amount == expected.amount &&
        std::lround(it->second.cost) == expected.monthly_cost_usd &&
        it->second.passing == expected.passing;
    if (!same) {
      ++mismatches;
      report->Note(std::string("check: Table I row ") + expected.scenario +
                   " / " + expected.instance + " differs from EXPERIMENTS.md");
    }
  }
  return mismatches;
}

}  // namespace

bool ProbePlanPath(SpanRecorder* spans, Report* report) {
  CostPlanner planner(TableOneOptions());
  std::vector<double> plan_call_ms;
  for (const DeviceSpec& device : Devices()) {
    const int64_t start = NowNs();
    const int64_t cpu_start = ThreadCpuNs();
    if (!planner
             .PlanModelOnDevice(etude::core::PaperScenarios()[2],  // Fashion
                                ModelKind::kGru4Rec, device)
             .ok()) {
      return false;
    }
    plan_call_ms.push_back(static_cast<double>(ThreadCpuNs() - cpu_start) /
                           1e6);
    spans->Add("core.plan_model_on_device", start, NowNs(), -1, -1);
  }
  report->Set("core.plan_model_ms", Median(plan_call_ms), "ms");

  etude::models::ModelConfig config;
  config.catalog_size = 1000000;
  config.materialize_embeddings = false;
  auto gru = etude::models::CreateModel(ModelKind::kGru4Rec, config);
  if (!gru.ok()) return false;
  report->Set("models.cost_model_us",
              MedianPerCallNs(32, 64,
                              [&](int i) {
                                (*gru)->BatchedCostModel(ExecutionMode::kJit,
                                                         1 + i % 50, 16);
                              }) /
                  1e3,
              "us");
  etude::core::DeployPoint point;
  point.device = DeviceSpec::GpuT4();
  point.batch = 16;
  point.lambda_rps = 500;
  report->Set("core.lint_deploy_us",
              MedianPerCallNs(32, 64,
                              [&](int) {
                                etude::core::CheckSloFeasibility(**gru, point);
                              }) /
                  1e3,
              "us");

  etude::core::BenchmarkSpec spec;
  spec.scenario = etude::core::PaperScenarios()[2];  // Fashion
  spec.model = ModelKind::kGru4Rec;
  spec.device = DeviceSpec::GpuT4();
  spec.duration_s = 40;
  spec.ramp_s = 20;
  const int parent = spans->Begin("core.deployed_run");
  const int64_t start = NowNs();
  auto run = etude::core::RunDeployedBenchmark(spec);
  const double run_s = static_cast<double>(NowNs() - start) / 1e9;
  spans->End(parent);
  if (!run.ok()) return false;
  report->Set("core.deployed_run_ms", run_s * 1e3, "ms");
  report->Set("sim.requests_per_s",
              static_cast<double>(run->load.total_requests) / run_s, "1/s");

  return true;
}

bool RunPlanWorkload(const RunContext& ctx, Report* report) {
  // Set-up is timed once after every cell of every untraced search: the
  // host's speed changes within a second, so samples spread over the whole
  // run give a steadier median than a burst at its start.
  std::vector<double> setups;
  if (TimeSetUp() < 0) return false;

  // The search is one unit of work longer than a typical run; it is
  // repeated only while time remains (at least once).
  SpanRecorder none(false);
  SpanRecorder spans(ctx.trace);
  std::vector<SearchResult> searches;
  const int64_t end = NowNs() + static_cast<int64_t>(ctx.seconds * 1e9);
  do {
    searches.push_back(RunSearch(&none, &setups));
  } while (!ctx.trace && NowNs() + static_cast<int64_t>(
                                       searches.back().wall_s * 1e9) < end);
  if (ctx.trace) searches.push_back(RunSearch(&spans, nullptr));

  int64_t mismatches = 0;
  int64_t calls = 0;
  int64_t failed = 0;
  for (const SearchResult& search : searches) {
    mismatches += CheckTable(search, report);
    calls += search.calls;
    failed += search.failed;
  }
  report->AddAttempted(calls);
  report->AddFailed(failed);
  report->AddMismatch(mismatches);

  // Each cell's time is the fastest of its untraced repetitions: the work
  // is deterministic, and the host's cache and memory contention only ever
  // adds to it. The percentiles are then taken over the cells, and the
  // throughput over the sum of the cells' times.
  const SearchResult& first = searches.front();
  const size_t untraced = ctx.trace ? searches.size() - 1 : searches.size();
  std::vector<double> cell_ms, walls, cpus;
  for (size_t c = 0; c < first.cell_ms.size(); ++c) {
    std::vector<double> repeats;
    for (size_t s = 0; s < untraced; ++s) {
      repeats.push_back(searches[s].cell_ms[c]);
    }
    cell_ms.push_back(*std::min_element(repeats.begin(), repeats.end()));
  }
  for (size_t s = 0; s < untraced; ++s) {
    walls.push_back(searches[s].wall_s);
    cpus.push_back(searches[s].cpu_s);
  }
  const double plan_wall_s = Median(walls);
  double cells_cpu_s = 0;
  for (const double ms : cell_ms) cells_cpu_s += ms / 1e3;
  const LatencySummary cells = Summarize(cell_ms);
  char line[256];
  std::snprintf(line, sizeof(line),
                "plan: %zu search(es), plan_wall_s %.4f s (median), fastest "
                "cells' CPU sum %.4f s, %zu cells per search, cell CPU p50 "
                "%.3f ms, p90 %.3f ms",
                walls.size(), plan_wall_s, cells_cpu_s, first.cell_ms.size(),
                cells.p50_ms, cells.p90_ms);
  report->Note(line);
  report->Note("plan: CPU s per search:" + FormatSeries(cpus, 3));
  report->Note("plan: set-up CPU s per sample:" + FormatSeries(setups, 4));
  for (const auto& [key, row] : first.rows) {
    std::string models;
    for (const std::string& m : row.passing) models += " " + m;
    std::snprintf(line, sizeof(line), "table1: %-18s %-8s x%d $%.0f:%s",
                  key.first.c_str(), key.second.c_str(), row.amount,
                  row.cost, models.c_str());
    report->Note(line);
  }
  std::snprintf(line, sizeof(line),
                "check: %zu Table I rows x %zu search(es), %lld differ; "
                "error_rate %.6f",
                ExpectedTable().size(), searches.size(),
                static_cast<long long>(mismatches),
                static_cast<double>(failed + mismatches) /
                    static_cast<double>(std::max<int64_t>(calls, 1)));
  report->Note(line);

  if (!ctx.trace) {
    report->Set("p50_ms", cells.p50_ms, "ms");
    report->Set("p90_ms", cells.p90_ms, "ms");
    report->Set("throughput_per_s",
                static_cast<double>(first.cell_ms.size()) / cells_cpu_s,
                "1/s");
    report->Set("setup_s", Median(setups), "s");
    report->Set("peak_rss_mb", PeakRssMb(0), "MiB");
    return true;
  }

  // ---- Traced run: per-layer metrics. ----
  const SearchResult& traced = searches.back();
  report->Set("trace.overhead_pct",
              100.0 * (traced.wall_s - plan_wall_s) / plan_wall_s, "%");
  report->Set("loadgen.sent", static_cast<double>(traced.calls), "count");
  report->Set("loadgen.failed", static_cast<double>(traced.failed), "count");

  if (!ProbePlanPath(&spans, report)) return false;
  // The traced search gives this workload's own figure: the median over
  // all of its PlanModelOnDevice calls.
  report->Set("core.plan_model_ms", Median(traced.plan_call_ms), "ms");

  ReportSpans(spans, ctx.trace_path, report);
  return true;
}

}  // namespace perfbench
