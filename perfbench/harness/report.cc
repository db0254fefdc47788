#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

/// Shortest round-trip decimal form of `value`, valid as a JSON number.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::AddMismatch(int64_t n) {
  mismatches_ += n;
  failed_ += n;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

bool Report::Print(const std::vector<std::string>& keys) const {
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("-- metrics --\n");
  for (const auto& [name, metric] : metrics_) {
    std::printf("%-36s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld (of which wrong outputs %lld)\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              static_cast<long long>(mismatches_));

  std::string json = "{\"correct\": ";
  json += mismatches_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool complete = true;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = metrics_.find(keys[i]);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   keys[i].c_str());
      complete = false;
      continue;
    }
    if (i > 0) json += ", ";
    json += "\"" + keys[i] + "\": {\"value\": " +
            JsonNumber(it->second.value) + ", \"unit\": \"" +
            it->second.unit + "\"}";
  }
  json += "}}";
  if (!complete) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

int SpanRecorder::Begin(const char* name, int parent, int64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int index) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                      int parent, int64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  // Children never overlap each other in this recorder's use (each layer
  // call is sequential within its parent), so covered time is their sum,
  // clipped to the parent.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) child_ns[static_cast<size_t>(span.parent)] += hi - lo;
  }
  std::map<std::string, std::vector<double>> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self_us[spans_[i].name].push_back(
        static_cast<double>(std::max<int64_t>(0, dur - child_ns[i])) / 1e3);
  }
  std::map<std::string, SelfTime> out;
  for (const auto& [name, values] : self_us) {
    SelfTime entry;
    entry.count = static_cast<int64_t>(values.size());
    for (double v : values) entry.total_ms += v / 1e3;
    entry.p50_us = Median(values);
    out[name] = entry;
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << JsonNumber((span.start_ns - base) / 1e3)
        << ",\"dur\":" << JsonNumber((span.end_ns - span.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request_id << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void ReportSpans(const SpanRecorder& spans, const std::string& trace_path,
                 Report* report) {
  char line[256];
  for (const auto& [name, self] : spans.SelfTimes()) {
    std::snprintf(line, sizeof(line),
                  "span %-26s n=%-7lld self total %.3f ms, self p50 %.2f us",
                  name.c_str(), static_cast<long long>(self.count),
                  self.total_ms, self.p50_us);
    report->Note(line);
  }
  if (trace_path.empty()) return;
  if (spans.WriteChromeTrace(trace_path)) {
    report->Note("trace: " + trace_path);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }
}

std::string FormatSeries(const std::vector<double>& values, int digits) {
  std::string out;
  char item[32];
  for (double v : values) {
    std::snprintf(item, sizeof(item), " %.*f", digits, v);
    out += item;
  }
  return out;
}

}  // namespace perfbench
