// perfbench: the repository benchmark harness.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//
// Workloads: serve-small, serve-medium, serve-large (click replay over HTTP
// into a separate `etude serve`), batch-b64 (in-process RecommendBatch) and
// plan-table1 (the Table I cost-planner search). With --trace 0 the
// result line carries the end-to-end metrics; with --trace 1 a separate
// traced run carries the per-layer metrics (0 for a layer the workload
// does not exercise). Every metric is also printed with its unit, and
// the last stdout line is the JSON result. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunContext;

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"loadgen.lateness_us.p99", "us"},
    {"loadgen.sent", "count"},
    {"loadgen.failed", "count"},
    {"net.queue_us.p50", "us"},
    {"net.queue_us.p90", "us"},
    {"net.outside_server_us.p50", "us"},
    {"net.parse_ns.p50", "ns"},
    {"serving.body_parse_us.p50", "us"},
    {"serving.serialize_us.p50", "us"},
    {"serving.total_us.p50", "us"},
    {"serving.total_us.p90", "us"},
    {"serving.rejected", "count"},
    {"obs.slo_record_ns.p50", "ns"},
    {"obs.histogram_record_ns.p50", "ns"},
    {"models.inference_us.p50", "us"},
    {"models.inference_us.p90", "us"},
    {"models.recommend_us.p50", "us"},
    {"models.encode_us.p50", "us"},
    {"models.heap_allocs_per_request", "count"},
    {"models.batch_us_per_session", "us"},
    {"models.unbatched_us_per_session", "us"},
    {"models.cost_model_us", "us"},
    {"tensor.mips_us.p50", "us"},
    {"tensor.mips_gbps", "GB/s"},
    {"core.plan_model_ms", "ms"},
    {"core.deployed_run_ms", "ms"},
    {"sim.requests_per_s", "1/s"},
    {"core.lint_deploy_us", "us"},
    {"closure.residual_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-small|serve-medium|serve-large|batch-b64|plan-table1 "
               "--seed N "
               "--seconds S --trace 0|1\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      ctx.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      ctx.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || ctx.seconds < 1) {
        return Usage("--seconds must be a positive integer");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      ctx.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  etude::SetLogLevel(etude::LogLevel::kWarning);
  // Single-threaded kernels everywhere: the server runs --threads 1 and the
  // in-process references must match its arithmetic order.
  etude::SetNumThreads(1);
  ctx.placement = perfbench::PlanPlacement();
  perfbench::PinCurrentThread({ctx.placement.generator_cpu});
  const perfbench::CpuTicks ticks = perfbench::ReadCpuTicks();
  if (ctx.trace) {
    const std::filesystem::path dir =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() /
        "traces";
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);
    ctx.trace_path = (dir / (ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + ".json"))
                         .string();
  }

  Report report;
  if (ctx.trace) {
    for (const auto& [name, unit] : kPerLayer) report.Set(name, 0, unit);
  }
  bool ok = false;
  if (ctx.workload == "serve-small") {
    ok = perfbench::RunServeWorkload(ctx, {10000, 4000}, &report);
  } else if (ctx.workload == "serve-medium") {
    ok = perfbench::RunServeWorkload(ctx, {100000, 1500}, &report);
  } else if (ctx.workload == "serve-large") {
    ok = perfbench::RunServeWorkload(ctx, {1000000, 250}, &report);
  } else if (ctx.workload == "batch-b64") {
    ok = perfbench::RunBatchWorkload(ctx, &report);
  } else if (ctx.workload == "plan-table1") {
    ok = perfbench::RunPlanWorkload(ctx, &report);
  } else {
    return Usage(("unknown workload " + ctx.workload).c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "perfbench: workload %s could not be set up\n",
                 ctx.workload.c_str());
    return 1;
  }
  report.Note(perfbench::RunRecord(ctx.placement, ticks, "1"));

  std::vector<std::string> keys;
  for (const auto& [name, unit] : ctx.trace ? kPerLayer : kEndToEnd) {
    keys.push_back(name);
  }
  return report.Print(keys) ? 0 : 1;
}
