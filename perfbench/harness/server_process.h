#ifndef PERFBENCH_HARNESS_SERVER_PROCESS_H_
#define PERFBENCH_HARNESS_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The model every serve workload deploys: GRU4Rec in jit mode with one
/// kernel thread per request (`etude serve --mode jit --threads 1`).
inline constexpr char kServedModel[] = "GRU4Rec";

/// How to launch `etude serve`.
struct ServerOptions {
  int64_t catalog = 10000;
  /// /slo window; sized to one load phase so /slo covers only that phase.
  int slo_window_s = 60;
  std::vector<int> cpus;  // CPU affinity of the server process
};

/// One `etude serve` child process, pinned to its CPUs and killed (with
/// its exit awaited) on Stop() or destruction. The child also dies with
/// the harness.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches the server and waits for the first 200 on /healthz. On
  /// success setup_s() is the time from exec to that response.
  bool Start(const ServerOptions& options, std::string* error);

  /// SIGTERM, then SIGKILL after 5 s; waits for the exit.
  void Stop();

  uint16_t port() const { return port_; }
  double setup_s() const { return setup_s_; }
  /// The server's peak resident set so far (VmHWM), MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
  double setup_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVER_PROCESS_H_
