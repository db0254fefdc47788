#include "server_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <thread>

#include "env.h"
#include "http_load.h"
#include "report.h"

namespace perfbench {

namespace {

/// A port the kernel just handed out as free on the loopback interface.
uint16_t PickFreePort() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  close(fd);
  return port;
}

}  // namespace

bool ServerProcess::Start(const ServerOptions& options, std::string* error) {
  Stop();
  port_ = PickFreePort();
  if (port_ == 0) {
    *error = "no free loopback port";
    return false;
  }
  const std::vector<std::string> args = {
      PERFBENCH_ETUDE_CLI, "serve",
      "--model", kServedModel,
      "--catalog", std::to_string(options.catalog),
      "--port", std::to_string(port_),
      "--mode", "jit",
      "--threads", "1",
      "--slo-window-s", std::to_string(options.slo_window_s)};
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const int64_t start_ns = NowNs();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : options.cpus) CPU_SET(cpu, &set);
    if (!options.cpus.empty()) sched_setaffinity(0, sizeof(set), &set);
    const int devnull = open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      dup2(devnull, STDIN_FILENO);
      dup2(devnull, STDOUT_FILENO);
      dup2(devnull, STDERR_FILENO);
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  pid_ = pid;

  const int64_t deadline = start_ns + 120'000'000'000LL;
  while (NowNs() < deadline) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "etude serve exited before becoming ready";
      return false;
    }
    if (HttpGet(port_, "/healthz", nullptr) == 200) {
      setup_s_ = static_cast<double>(NowNs() - start_ns) / 1e9;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *error = "etude serve not ready after 120 s";
  Stop();
  return false;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + 5'000'000'000LL;
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (NowNs() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  return pid_ > 0 ? perfbench::PeakRssMb(pid_) : 0;
}

}  // namespace perfbench
