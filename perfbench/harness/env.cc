#include "env.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "report.h"
#include "tensor/kernels.h"

namespace perfbench {

CpuPlacement PlanPlacement() {
  CpuPlacement placement;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) placement.usable.push_back(cpu);
    }
  }
  if (placement.usable.empty()) placement.usable.push_back(0);
  placement.generator_cpu = placement.usable.back();
  placement.server_cpus = placement.usable;
  if (placement.server_cpus.size() > 1) placement.server_cpus.pop_back();
  return placement;
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return ticks;
  uint64_t field[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (uint64_t& f : field) in >> f;
  // user nice system idle iowait irq softirq steal
  for (uint64_t f : field) ticks.total += f;
  ticks.idle = field[3] + field[4];
  ticks.steal = field[7];
  return ticks;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

StealSampler::StealSampler(std::vector<int> cpus, int64_t period_ns)
    : cpus_(std::move(cpus)) {
  samples_.push_back(Take());
  thread_ = std::thread([this, period_ns] { Loop(period_ns); });
}

StealSampler::~StealSampler() { Stop(); }

void StealSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

StealSampler::Sample StealSampler::Take() const {
  Sample sample{NowNs(), 0, 0};
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    fields >> cpu;
    if (std::find(cpus_.begin(), cpus_.end(), cpu) == cpus_.end()) continue;
    uint64_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (uint64_t& v : f) fields >> v;
    // user nice system idle iowait irq softirq steal
    sample.busy += f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
    sample.steal += f[7];
  }
  return sample;
}

void StealSampler::Loop(int64_t period_ns) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::nanoseconds(period_ns),
                         [this] { return stop_; })) {
    lock.unlock();
    const Sample sample = Take();
    lock.lock();
    samples_.push_back(sample);
  }
  lock.unlock();
  const Sample last = Take();
  lock.lock();
  samples_.push_back(last);
}

double StealSampler::StolenShare(int64_t start_ns, int64_t end_ns) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t a = 0;
  while (a + 1 < samples_.size() && samples_[a + 1].time_ns <= start_ns) ++a;
  size_t b = a;
  while (b + 1 < samples_.size() && samples_[b].time_ns < end_ns) ++b;
  const double busy =
      static_cast<double>(samples_[b].busy - samples_[a].busy);
  return busy > 0
             ? static_cast<double>(samples_[b].steal - samples_[a].steal) / busy
             : 0.0;
}

namespace {

/// "0-2" / "3" style list.
std::string FormatCpus(const std::vector<int>& cpus) {
  std::string out;
  size_t i = 0;
  while (i < cpus.size()) {
    size_t j = i;
    while (j + 1 < cpus.size() && cpus[j + 1] == cpus[j] + 1) ++j;
    char range[32];
    if (j > i) {
      std::snprintf(range, sizeof(range), "%s%d-%d", out.empty() ? "" : ",",
                    cpus[i], cpus[j]);
    } else {
      std::snprintf(range, sizeof(range), "%s%d", out.empty() ? "" : ",",
                    cpus[i]);
    }
    out += range;
    i = j + 1;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string RunRecord(const CpuPlacement& placement, const CpuTicks& start,
                      const std::string& kernel_threads) {
  const CpuTicks end = ReadCpuTicks();
  const double total = static_cast<double>(end.total - start.total);
  const double steal = static_cast<double>(end.steal - start.steal);
  const double busy = total - static_cast<double>(end.idle - start.idle);
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "run: cpu=\"%s\" nproc=%zu isa=%s kernel_threads=%s generator_cpu=%d "
      "server_cpus=%s steal=%.2f%% of ticks, %.2f%% of non-idle ticks",
      CpuModel().c_str(), placement.usable.size(),
      etude::tensor::kernels::HasAvx2Fma() ? "avx2+fma" : "portable",
      kernel_threads.c_str(), placement.generator_cpu,
      FormatCpus(placement.server_cpus).c_str(),
      total > 0 ? 100.0 * steal / total : 0.0,
      busy > 0 ? 100.0 * steal / busy : 0.0);
  return line;
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
