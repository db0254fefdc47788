#ifndef PERFBENCH_HARNESS_ENV_H_
#define PERFBENCH_HARNESS_ENV_H_

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Where the benchmark's own load generator and the server under test run:
/// the generator gets one CPU, the server the rest. With a single usable
/// CPU both share it.
struct CpuPlacement {
  std::vector<int> usable;
  int generator_cpu = -1;
  std::vector<int> server_cpus;
};

CpuPlacement PlanPlacement();

/// Restricts the calling thread (and threads it creates later) to `cpus`.
bool PinCurrentThread(const std::vector<int>& cpus);

/// Aggregate CPU tick counters from /proc/stat.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t idle = 0;  // idle + iowait
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks();

/// The run-validity record: CPU model, usable CPU count, dispatched kernel
/// ISA, kernel threads, placement, and the steal share of all and of
/// non-idle ticks between `start` and now.
std::string RunRecord(const CpuPlacement& placement, const CpuTicks& start,
                      const std::string& kernel_threads);

/// CPU time of the calling thread in ns (CLOCK_THREAD_CPUTIME_ID). Under
/// paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING, as on KVM
/// guests) it leaves out the time the hypervisor ran other guests on this
/// vCPU, which wall time includes.
int64_t ThreadCpuNs();

/// Samples, from a background thread, the stolen and the non-idle ticks of
/// a set of CPUs (/proc/stat, one line per CPU), so that a workload can tell
/// which of its windows the hypervisor took time from.
class StealSampler {
 public:
  StealSampler(std::vector<int> cpus, int64_t period_ns);
  ~StealSampler();

  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops and joins the sampling thread; idempotent.
  void Stop();

  /// Stolen ticks as a share of non-idle ticks on the sampled CPUs between
  /// the last sample at or before `start_ns` and the first at or after
  /// `end_ns`; 0 when those CPUs did not run.
  double StolenShare(int64_t start_ns, int64_t end_ns) const;

 private:
  struct Sample {
    int64_t time_ns;
    uint64_t steal;
    uint64_t busy;  // non-idle ticks, steal included
  };
  Sample Take() const;
  void Loop(int64_t period_ns);

  std::vector<int> cpus_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// Peak resident set (VmHWM) of process `pid` (0 = this process) in MiB;
/// 0 when unreadable.
double PeakRssMb(pid_t pid);

/// Count of operator new calls made by the calling thread so far (the
/// harness replaces the global allocation functions to count them).
int64_t ThreadAllocCount();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ENV_H_
