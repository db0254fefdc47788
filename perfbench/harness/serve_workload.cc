// serve-small / serve-medium / serve-large: click replay over HTTP against
// a separate `etude serve` process. The generator runs on one CPU, the
// server on the rest; every phase gets a freshly started server so its /slo
// window holds only that phase.

#include <cmath>
#include <cstdio>
#include <map>

#include "common/json.h"
#include "common/rng.h"
#include "http_load.h"
#include "models/model_factory.h"
#include "server_process.h"
#include "workload/session_generator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using etude::JsonValue;
using etude::models::ExecOptions;
using etude::models::SessionModel;

constexpr const char* kRoute = "/predictions/gru4rec";
constexpr double kInf = 1e12;
// Open-loop connection cap: far above what a multi-millisecond stall piles
// up at these rates, so a due request practically never waits for a free
// connection (it would count as latency and as generator lateness).
constexpr int kMaxConnections = 256;

/// Paper-style click replay: a pool of concurrently active sessions drawn
/// from Algorithm 1; each request is one click and carries its session's
/// prefix up to that click; sessions interleave at random and a finished
/// session is replaced by a fresh one.
class ClickReplay {
 public:
  ClickReplay(etude::workload::SessionGenerator generator, uint64_t seed,
              int active)
      : generator_(std::move(generator)), rng_(seed) {
    for (int i = 0; i < active; ++i) {
      active_.push_back(generator_.NextSession().items);
      position_.push_back(0);
    }
  }

  /// The session prefix ending at the next click.
  const std::vector<int64_t>& Next() {
    const size_t slot = rng_.NextBounded(active_.size());
    while (active_[slot].empty()) active_[slot] = generator_.NextSession().items;
    const size_t length = ++position_[slot];
    prefix_.assign(active_[slot].begin(),
                   active_[slot].begin() + static_cast<std::ptrdiff_t>(length));
    if (length == active_[slot].size()) {
      active_[slot] = generator_.NextSession().items;
      position_[slot] = 0;
    }
    return prefix_;
  }

 private:
  etude::workload::SessionGenerator generator_;
  etude::Rng rng_;
  std::vector<std::vector<int64_t>> active_;
  std::vector<size_t> position_;
  std::vector<int64_t> prefix_;
};

/// One load phase's request stream, remembering the sessions whose
/// responses are checked and the first raw requests (for the parse probe).
struct RequestStream {
  RequestStream(int64_t catalog, uint64_t seed, int keep_every)
      : replay(*etude::workload::SessionGenerator::Create(
                   catalog, etude::workload::WorkloadStats{}, seed),
               seed ^ 0x5eedULL, 256),
        keep_every(keep_every) {}

  RequestWriter Writer() {
    return [this](int64_t index, std::string* out) {
      const std::vector<int64_t>& session = replay.Next();
      std::string body = "{\"session\":[";
      for (size_t i = 0; i < session.size(); ++i) {
        if (i > 0) body += ',';
        body += std::to_string(session[i]);
      }
      body += "]}";
      *out = std::string("POST ") + kRoute +
             " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             "Content-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
      if (keep_every > 0 && index % keep_every == 0) kept[index] = session;
      if (recorded.size() < 2048) recorded.push_back(*out);
    };
  }

  ClickReplay replay;
  int keep_every;
  std::map<int64_t, std::vector<int64_t>> kept;
  std::vector<std::string> recorded;
};

std::vector<int64_t> PoissonOffsets(double rate, double seconds,
                                    uint64_t seed) {
  etude::Rng rng(seed);
  std::vector<int64_t> offsets;
  double t = 0;
  while (true) {
    t += rng.NextExponential(rate);
    if (t >= seconds) break;
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

std::vector<double> LatenciesMs(const LoadResult& result) {
  std::vector<double> out;
  out.reserve(result.records.size());
  for (const RequestRecord& r : result.records) {
    out.push_back(r.status == 200
                      ? static_cast<double>(r.done_ns - r.sched_ns) / 1e6
                      : kInf);
  }
  return out;
}

int64_t CountFailed(const LoadResult& result) {
  int64_t failed = 0;
  for (const RequestRecord& r : result.records) failed += r.status != 200;
  return failed;
}

/// Compares the top-k ids of every kept 200 response with an in-process
/// Recommend on the identically configured model; returns mismatches.
int64_t CheckResponses(const SessionModel& model, const ExecOptions& options,
                       const LoadResult& result, const RequestStream& stream,
                       int64_t* checked) {
  int64_t mismatches = 0;
  for (const auto& [index, body] : result.kept_bodies) {
    if (result.records[static_cast<size_t>(index)].status != 200) continue;
    const auto session = stream.kept.find(index);
    if (session == stream.kept.end()) continue;
    ++*checked;
    const auto expected = model.Recommend(session->second, options);
    const auto parsed = etude::ParseJson(body);
    bool same = expected.ok() && parsed.ok() &&
                parsed->Get("items").is_array() &&
                parsed->Get("items").items().size() == expected->items.size();
    for (size_t i = 0; same && i < expected->items.size(); ++i) {
      same = parsed->Get("items").items()[i].as_int() == expected->items[i];
    }
    mismatches += same ? 0 : 1;
  }
  return mismatches;
}

/// Open-loop latency percentiles per one-second window of due times, with
/// the share of each window the hypervisor stole from the server's CPUs.
struct WindowedLatency {
  std::vector<double> p50_ms, p90_ms, stolen;
};
WindowedLatency LatencyWindows(const LoadResult& result,
                               const StealSampler& steal) {
  std::vector<int64_t> due;
  for (const RequestRecord& r : result.records) due.push_back(r.sched_ns);
  const std::vector<double> latencies = LatenciesMs(result);
  // A window needs enough requests for its p90; ragged tails are dropped.
  WindowedLatency out;
  std::vector<int64_t> starts;
  out.p50_ms = WindowQuantiles(due, latencies, 0.5, 50, &starts);
  out.p90_ms = WindowQuantiles(due, latencies, 0.9, 50);
  for (const int64_t start : starts) {
    out.stolen.push_back(steal.StolenShare(start, start + 1'000'000'000));
  }
  return out;
}

/// Closed-loop throughput per half-second window of response times, over
/// the whole windows between the first send and the last response, with
/// each window's stolen share.
struct WindowedThroughput {
  std::vector<double> rps, stolen;
};
WindowedThroughput ThroughputWindows(const LoadResult& result,
                                     const StealSampler& steal) {
  constexpr int64_t kWindowNs = 500'000'000;
  const int64_t whole =
      (result.last_done_ns - result.first_send_ns) / kWindowNs;
  WindowedThroughput out;
  out.rps.assign(static_cast<size_t>(std::max<int64_t>(whole, 0)), 0);
  for (const RequestRecord& r : result.records) {
    if (r.status != 200) continue;
    const int64_t w = (r.done_ns - result.first_send_ns) / kWindowNs;
    if (w >= 0 && w < whole) out.rps[static_cast<size_t>(w)] += 1;
  }
  for (size_t w = 0; w < out.rps.size(); ++w) {
    out.rps[w] /= kWindowNs / 1e9;
    const int64_t start =
        result.first_send_ns + static_cast<int64_t>(w) * kWindowNs;
    out.stolen.push_back(steal.StolenShare(start, start + kWindowNs));
  }
  return out;
}

bool StartServer(ServerProcess* server, const ServerOptions& options,
                 std::vector<double>* setups) {
  std::string error;
  if (!server->Start(options, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  setups->push_back(server->setup_s());
  return true;
}

/// A short closed-loop warm-up on its own request stream, so lazy
/// initialisation and caches settle before timing.
void WarmUp(uint16_t port, int64_t catalog, uint64_t seed) {
  RequestStream stream(catalog, seed ^ 0x3a3aULL, 0);
  LoadClient client(port, 0);
  client.ClosedLoop(1, 300'000'000, stream.Writer());
}

double PhaseValue(const JsonValue& slo, const char* phase, const char* q) {
  return slo.Get("phases").Get(phase).GetNumberOr(q, 0);
}

}  // namespace

bool RunServeWorkload(const RunContext& ctx, const ServeShape& shape,
                      Report* report) {
  const double seconds = ctx.seconds;
  // Two phases share the measured time: open loop then closed loop when
  // untraced; an untraced and a traced open loop when traced.
  const double first_s = ctx.trace ? 0.5 * seconds : 0.65 * seconds;
  const double second_s = seconds - first_s;

  ServerOptions options;
  options.catalog = shape.catalog;
  options.cpus = ctx.placement.server_cpus;
  // /slo is read only after the traced phase; one second short of it, the
  // window cannot reach back into the warm-up.
  options.slo_window_s =
      std::max(1, static_cast<int>(std::floor(second_s)) - 1);
  const ExecOptions exec{etude::models::ExecutionMode::kJit,
                         etude::models::ExecPlanKind::kMalloc};
  // Sample enough responses to check without spending seconds on the
  // in-process reference at large catalogs.
  const int64_t target_checks = shape.catalog <= 100000 ? 256 : 24;
  const auto keep_every_for = [&](double phase_s) {
    return static_cast<int>(std::max<int64_t>(
        1, static_cast<int64_t>(shape.open_loop_rps * phase_s) /
               target_checks));
  };

  std::vector<double> setups;
  SpanRecorder spans(ctx.trace);
  // Steal on the server's CPUs, sampled every 100 ms across both phases.
  StealSampler steal(ctx.placement.server_cpus, 100'000'000);
  const std::vector<int64_t> offsets_first =
      PoissonOffsets(shape.open_loop_rps, first_s, ctx.seed * 7 + 1);

  // Phase 1: open loop, tracing off in both modes.
  RequestStream stream_first(shape.catalog, ctx.seed * 7 + 2,
                             keep_every_for(first_s));
  LoadResult first;
  double peak_rss_mb = 0;
  {
    ServerProcess server;
    if (!StartServer(&server, options, &setups)) return false;
    WarmUp(server.port(), shape.catalog, ctx.seed);
    LoadClient client(server.port(), stream_first.keep_every);
    first = client.OpenLoop(offsets_first, kMaxConnections,
                            stream_first.Writer());
    peak_rss_mb = server.PeakRssMb();
  }

  // Phase 2: closed loop (untraced) or traced open loop.
  RequestStream stream_second(
      shape.catalog, ctx.seed * 7 + 3,
      ctx.trace ? keep_every_for(second_s) : 1000);
  LoadResult second;
  std::string slo_body;
  {
    ServerProcess server;
    if (!StartServer(&server, options, &setups)) return false;
    WarmUp(server.port(), shape.catalog, ctx.seed);
    LoadClient client(server.port(), stream_second.keep_every);
    if (ctx.trace) {
      second = client.OpenLoop(
          PoissonOffsets(shape.open_loop_rps, second_s, ctx.seed * 7 + 4),
          kMaxConnections, stream_second.Writer());
      if (HttpGet(server.port(), "/slo", &slo_body) != 200) slo_body.clear();
    } else {
      // One connection per server CPU: the server's four workers never
      // outnumber the CPUs they share, so the phase measures the scan, not
      // time slicing.
      const int connections =
          static_cast<int>(ctx.placement.server_cpus.size());
      second = client.ClosedLoop(
          connections, static_cast<int64_t>(second_s * 1e9),
          stream_second.Writer());
    }
    peak_rss_mb = std::max(peak_rss_mb, server.PeakRssMb());
  }
  steal.Stop();

  // Set-up is sampled several times per run; extra starts only time it.
  const int setup_samples = shape.catalog <= 100000 ? 15 : 5;
  while (!ctx.trace && static_cast<int>(setups.size()) < setup_samples) {
    ServerProcess server;
    if (!StartServer(&server, options, &setups)) return false;
  }

  // Output checks against an identically configured in-process model.
  etude::models::ModelConfig config;
  config.catalog_size = shape.catalog;
  auto model = etude::models::CreateModel(kServedModel, config);
  if (!model.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", model.status().ToString().c_str());
    return false;
  }
  int64_t checked = 0;
  const int64_t mismatches =
      CheckResponses(**model, exec, first, stream_first, &checked) +
      CheckResponses(**model, exec, second, stream_second, &checked);
  const int64_t attempted =
      static_cast<int64_t>(first.records.size() + second.records.size());
  const int64_t failed = CountFailed(first) + CountFailed(second);
  report->AddAttempted(attempted);
  report->AddFailed(failed);
  report->AddMismatch(mismatches);
  char line[256];
  std::snprintf(line, sizeof(line),
                "check: %lld sampled responses compared with in-process "
                "Recommend, %lld mismatches; error_rate %.6f",
                static_cast<long long>(checked),
                static_cast<long long>(mismatches),
                static_cast<double>(failed + mismatches) /
                    static_cast<double>(std::max<int64_t>(attempted, 1)));
  report->Note(line);

  const LatencySummary open = Summarize(LatenciesMs(first));
  std::snprintf(line, sizeof(line),
                "open loop: %.0f req/s Poisson, %lld requests, p50 %.4f ms, "
                "p90 %.4f ms, p99 %.4f ms (n=%lld, %lld beyond p99), "
                "%d connections opened",
                shape.open_loop_rps, static_cast<long long>(open.count),
                open.p50_ms, open.p90_ms, open.p99_ms,
                static_cast<long long>(open.count),
                static_cast<long long>(open.count / 100),
                first.connections_opened);
  report->Note(line);

  if (!ctx.trace) {
    int64_t ok = 0;
    for (const RequestRecord& r : second.records) ok += r.status == 200;
    const double span_s =
        static_cast<double>(second.last_done_ns - second.first_send_ns) / 1e9;
    const WindowedLatency windows = LatencyWindows(first, steal);
    const WindowedThroughput rps = ThroughputWindows(second, steal);
    std::snprintf(line, sizeof(line),
                  "closed loop: %d connections, %lld ok over %.3f s wall "
                  "(first send to last response) = %.1f req/s",
                  static_cast<int>(ctx.placement.server_cpus.size()),
                  static_cast<long long>(ok), span_s,
                  span_s > 0 ? static_cast<double>(ok) / span_s : 0);
    report->Note(line);
    report->Note("open-loop 1 s windows, p50 ms:" +
                 FormatSeries(windows.p50_ms, 4));
    report->Note("open-loop 1 s windows, p90 ms:" +
                 FormatSeries(windows.p90_ms, 4));
    report->Note("open-loop 1 s windows, stolen share of server CPU:" +
                 FormatSeries(windows.stolen, 3));
    report->Note("closed-loop 0.5 s windows, req/s:" +
                 FormatSeries(rps.rps, 0));
    report->Note("closed-loop 0.5 s windows, stolen share of server CPU:" +
                 FormatSeries(rps.stolen, 3));
    // Each metric is the median over the less-stolen half of its windows.
    report->Set("p50_ms", LeastStolenMedian(windows.p50_ms, windows.stolen),
                "ms");
    report->Set("p90_ms", LeastStolenMedian(windows.p90_ms, windows.stolen),
                "ms");
    report->Set("throughput_per_s", LeastStolenMedian(rps.rps, rps.stolen),
                "1/s");
    report->Set("setup_s", Median(setups), "s");
    report->Set("peak_rss_mb", peak_rss_mb, "MiB");
    return true;
  }

  // ---- Traced run: per-layer metrics. ----
  for (size_t i = 0; i < second.records.size(); ++i) {
    const RequestRecord& r = second.records[i];
    const int64_t id = static_cast<int64_t>(i);
    const int parent =
        spans.Add("loadgen.request", r.sched_ns, r.done_ns, -1, id);
    spans.Add("loadgen.send_delay", r.sched_ns, r.send_ns, parent, id);
    spans.Add("net.round_trip", r.send_ns, r.done_ns, parent, id);
  }
  const LatencySummary traced = Summarize(LatenciesMs(second));
  std::vector<double> lateness_us, inference_us;
  int64_t rejected = 0;
  for (const RequestRecord& r : second.records) {
    lateness_us.push_back(static_cast<double>(r.send_ns - r.sched_ns) / 1e3);
    if (r.inference_us >= 0) {
      inference_us.push_back(static_cast<double>(r.inference_us));
    }
    rejected += r.status == 503;
  }
  report->Set("loadgen.lateness_us.p99", Quantile(lateness_us, 0.99), "us");
  report->Set("loadgen.sent", static_cast<double>(second.records.size()),
              "count");
  report->Set("loadgen.failed", static_cast<double>(CountFailed(second)),
              "count");
  report->Set("serving.rejected", static_cast<double>(rejected), "count");
  report->Set("models.inference_us.p50", Median(inference_us), "us");
  report->Set("models.inference_us.p90", Quantile(inference_us, 0.9), "us");

  const auto slo = etude::ParseJson(slo_body);
  if (!slo.ok() || !slo->GetBoolOr("enabled", false)) {
    std::fprintf(stderr, "perfbench: /slo unavailable\n");
    return false;
  }
  const double client_p50_us = traced.p50_ms * 1e3;
  const double total_p50 = slo->Get("latency_us").GetNumberOr("p50", 0);
  const double queue_p50 = PhaseValue(*slo, "queue", "p50");
  const double parse_p50 = PhaseValue(*slo, "parse", "p50");
  const double inference_p50 = PhaseValue(*slo, "inference", "p50");
  const double serialize_p50 = PhaseValue(*slo, "serialize", "p50");
  const double outside_us = client_p50_us - total_p50;
  report->Set("net.queue_us.p50", queue_p50, "us");
  report->Set("net.queue_us.p90", PhaseValue(*slo, "queue", "p90"), "us");
  report->Set("net.outside_server_us.p50", outside_us, "us");
  report->Set("serving.body_parse_us.p50", parse_p50, "us");
  report->Set("serving.serialize_us.p50", serialize_p50, "us");
  report->Set("serving.total_us.p50", total_p50, "us");
  report->Set("serving.total_us.p90",
              slo->Get("latency_us").GetNumberOr("p90", 0), "us");

  // Closure: the server's phase medians plus the time outside the server
  // should rebuild the client median. Medians do not add exactly, so the
  // residual is stated and bounded.
  constexpr double kClosureLimitPct = 25.0;
  const double rebuilt =
      queue_p50 + parse_p50 + inference_p50 + serialize_p50 + outside_us;
  const double residual_pct =
      client_p50_us > 0 ? 100.0 * (client_p50_us - rebuilt) / client_p50_us
                        : 0;
  report->Set("closure.residual_pct", residual_pct, "%");
  std::snprintf(line, sizeof(line),
                "closure: client p50 %.1f us = queue %.0f + parse %.0f + "
                "inference %.0f + serialize %.0f + outside server %.1f "
                "+ residual %.2f%% (limit +-%.0f%%: %s); /slo window %lld "
                "requests",
                client_p50_us, queue_p50, parse_p50, inference_p50,
                serialize_p50, outside_us, residual_pct, kClosureLimitPct,
                std::fabs(residual_pct) <= kClosureLimitPct ? "closes"
                                                            : "OPEN",
                static_cast<long long>(slo->GetIntOr("requests", 0)));
  report->Note(line);

  const double untraced_p50 = open.p50_ms;
  report->Set("trace.overhead_pct",
              untraced_p50 > 0
                  ? 100.0 * (traced.p50_ms - untraced_p50) / untraced_p50
                  : 0,
              "%");

  // In-process probes on sessions the phase actually sent.
  std::vector<std::vector<int64_t>> sessions;
  for (const auto& [index, session] : stream_second.kept) {
    sessions.push_back(session);
  }
  const size_t probe_count = shape.catalog <= 100000 ? 200 : 24;
  if (sessions.size() > probe_count) sessions.resize(probe_count);
  const ModelProbe probe = ProbeModel(**model, exec, sessions, &spans);
  report->Set("models.recommend_us.p50", probe.recommend_us_p50, "us");
  report->Set("models.encode_us.p50", probe.encode_us_p50, "us");
  report->Set("models.heap_allocs_per_request",
              probe.heap_allocs_per_request, "count");
  report->Set("tensor.mips_us.p50", probe.mips_us_p50, "us");
  report->Set("tensor.mips_gbps", probe.mips_gbps, "GB/s");
  report->Set("net.parse_ns.p50", ProbeParseNs(stream_second.recorded), "ns");
  report->Set("obs.slo_record_ns.p50", ProbeSloRecordNs(), "ns");
  report->Set("obs.histogram_record_ns.p50", ProbeHistogramRecordNs(), "ns");
  if (!ProbeBatchedPath(ctx.seed, &spans, report)) return false;
  if (!ProbePlanPath(&spans, report)) return false;

  ReportSpans(spans, ctx.trace_path, report);
  return true;
}

}  // namespace perfbench
