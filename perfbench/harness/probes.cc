// In-process layer probes shared by the workloads: each times one public
// entry point of a layer, outside any load.

#include <algorithm>
#include <cmath>
#include <map>

#include "net/http.h"
#include "obs/metric_registry.h"
#include "obs/slo_monitor.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

LatencySummary Summarize(const std::vector<double>& latencies_ms) {
  LatencySummary summary;
  summary.count = static_cast<int64_t>(latencies_ms.size());
  summary.p50_ms = Quantile(latencies_ms, 0.50);
  summary.p90_ms = Quantile(latencies_ms, 0.90);
  summary.p99_ms = Quantile(latencies_ms, 0.99);
  return summary;
}

std::vector<double> WindowQuantiles(const std::vector<int64_t>& times_ns,
                                    const std::vector<double>& values,
                                    double q, size_t min_samples,
                                    std::vector<int64_t>* starts_ns) {
  constexpr int64_t kWindowNs = 1'000'000'000;
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < times_ns.size(); ++i) {
    windows[(times_ns[i] - times_ns.front()) / kWindowNs].push_back(values[i]);
  }
  std::vector<double> out;
  for (const auto& [index, window] : windows) {
    if (window.size() < min_samples) continue;
    out.push_back(Quantile(window, q));
    if (starts_ns != nullptr) {
      starts_ns->push_back(times_ns.front() + index * kWindowNs);
    }
  }
  return out;
}

double LeastStolenMedian(const std::vector<double>& values,
                         const std::vector<double>& stolen) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return stolen[a] < stolen[b]; });
  std::vector<double> kept;
  for (size_t i = 0; i < (order.size() + 1) / 2; ++i) {
    kept.push_back(values[order[i]]);
  }
  return Median(kept);
}

ModelProbe ProbeModel(const etude::models::SessionModel& model,
                      const etude::models::ExecOptions& options,
                      const std::vector<std::vector<int64_t>>& sessions,
                      SpanRecorder* spans) {
  const auto& config = model.config();
  std::vector<double> recommend_us, encode_us, mips_us;
  int64_t allocs = 0;
  int64_t requests = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const std::vector<int64_t>& session = sessions[i];
    const int64_t id = static_cast<int64_t>(i);

    const int64_t allocs_before = ThreadAllocCount();
    int64_t start = NowNs();
    auto rec = model.Recommend(session, options);
    int64_t end = NowNs();
    allocs += ThreadAllocCount() - allocs_before;
    ++requests;
    if (!rec.ok()) continue;
    spans->Add("models.recommend", start, end, -1, id);
    recommend_us.push_back(static_cast<double>(end - start) / 1e3);

    // EncodeSession takes the window Recommend would use: the most recent
    // max_session_length clicks.
    const size_t keep = static_cast<size_t>(
        std::min<int64_t>(config.max_session_length,
                          static_cast<int64_t>(session.size())));
    const std::vector<int64_t> window(session.end() - keep, session.end());
    start = NowNs();
    const etude::tensor::Tensor encoded = model.EncodeSession(window);
    end = NowNs();
    spans->Add("models.encode", start, end, -1, id);
    encode_us.push_back(static_cast<double>(end - start) / 1e3);

    start = NowNs();
    const etude::tensor::TopKResult top =
        etude::tensor::Mips(model.item_embeddings(), encoded, config.top_k);
    end = NowNs();
    spans->Add("tensor.mips", start, end, -1, id);
    mips_us.push_back(static_cast<double>(end - start) / 1e3);
  }
  ModelProbe probe;
  probe.recommend_us_p50 = Median(recommend_us);
  probe.encode_us_p50 = Median(encode_us);
  probe.mips_us_p50 = Median(mips_us);
  const double table_bytes =
      4.0 * static_cast<double>(config.catalog_size * config.embedding_dim);
  probe.mips_gbps =
      probe.mips_us_p50 > 0 ? table_bytes / (probe.mips_us_p50 * 1e3) : 0;
  probe.heap_allocs_per_request =
      requests > 0 ? static_cast<double>(allocs) / requests : 0;
  return probe;
}

double ProbeParseNs(const std::vector<std::string>& requests) {
  if (requests.empty()) return 0;
  int64_t complete = 0;
  const double ns = MedianPerCallNs(64, 256, [&](int i) {
    etude::net::HttpRequestParser parser;
    const std::string& bytes =
        requests[static_cast<size_t>(i) % requests.size()];
    complete += parser.Consume(bytes) ==
                etude::net::HttpRequestParser::State::kComplete;
  });
  return complete == 64 * 256 ? ns : 0;
}

double ProbeSloRecordNs() {
  etude::obs::SloMonitor monitor(etude::obs::SloMonitorConfig{});
  constexpr int kCalls = 256;
  std::vector<double> per_call;
  for (int b = 0; b < 64; ++b) {
    std::vector<etude::obs::RequestSample> samples(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      etude::obs::RequestSample& s = samples[static_cast<size_t>(i)];
      s.trace_id = "req-" + std::to_string(b * kCalls + i);
      s.total_us = 150 + (i * 37) % 400;
      s.phases = {{"queue", 0, 30}, {"parse", 30, 8}, {"inference", 38, 70},
                  {"serialize", 108, 33}};
    }
    const int64_t start = NowNs();
    for (etude::obs::RequestSample& s : samples) monitor.Record(std::move(s));
    per_call.push_back(static_cast<double>(NowNs() - start) / kCalls);
  }
  return Median(per_call);
}

double ProbeHistogramRecordNs() {
  etude::obs::MetricRegistry registry;
  etude::obs::Histogram* histogram =
      registry.GetHistogram("perfbench_probe_us", "probe histogram");
  return MedianPerCallNs(64, 1024, [&](int i) {
    histogram->Record(50 + (static_cast<int64_t>(i) * 7919) % 20000);
  });
}

}  // namespace perfbench
