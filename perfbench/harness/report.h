#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
/// Sorts a copy.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// The result of one benchmark run: what was attempted and failed, whether
/// every output check passed, and the metrics the run reports. Prints the
/// human-readable table and the final one-line JSON object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  /// A wrong output: counted as failed and makes the run incorrect.
  void AddMismatch(int64_t n);
  /// A free-form line of the run record (environment, checks, closure).
  void Note(const std::string& line);

  /// Prints the notes and every metric with its unit, then the result line
  /// restricted to `keys` (all of which must have been Set; missing ones
  /// are reported on stderr and make the function return false).
  bool Print(const std::vector<std::string>& keys) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t mismatches_ = 0;
};

/// In-memory span recorder for traced runs: the benchmark wraps each call
/// into a layer in a span (name, start, end, parent, request id) and keeps
/// them all until the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  int Begin(const char* name, int parent = -1, int64_t request_id = -1);
  void End(int index);
  /// Records an already-timed span.
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t request_id);

  /// Per span name: count, summed self time and median self time, where a
  /// span's self time is its duration minus the part its children cover.
  struct SelfTime {
    int64_t count = 0;
    double total_ms = 0;
    double p50_us = 0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request_id;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Adds one note per span name with its self times, and writes the spans
/// to `trace_path` when it is not empty.
void ReportSpans(const SpanRecorder& spans, const std::string& trace_path,
                 Report* report);

/// " v1 v2 ..." with `digits` decimals, for the per-window notes.
std::string FormatSeries(const std::vector<double>& values, int digits);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
