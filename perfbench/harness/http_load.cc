#include "http_load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "report.h"

namespace perfbench {

namespace {

constexpr int64_t kMs = 1'000'000;
// A phase that has not heard back this long after its last send gives up
// on what is still outstanding and counts it as failed.
constexpr int64_t kDrainLimitNs = 30'000 * kMs;

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Case-insensitive value of header `name` (lower-case) in `head`, the
/// response's status line plus headers; empty when absent.
std::string HeaderValue(const std::string& head, const char* name) {
  const size_t name_len = std::strlen(name);
  size_t line = head.find("\r\n");
  while (line != std::string::npos && line + 2 < head.size()) {
    const size_t start = line + 2;
    const size_t end = head.find("\r\n", start);
    const size_t stop = end == std::string::npos ? head.size() : end;
    if (stop - start > name_len && head[start + name_len] == ':' &&
        strncasecmp(head.data() + start, name, name_len) == 0) {
      size_t v = start + name_len + 1;
      while (v < stop && head[v] == ' ') ++v;
      return head.substr(v, stop - v);
    }
    line = end;
  }
  return "";
}

}  // namespace

int HttpGet(uint16_t port, const std::string& path, std::string* body) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return 0;
  timeval timeout{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    close(fd);
    return 0;
  }
  std::string response;
  char buffer[65536];
  while (true) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  const size_t head_end = response.find("\r\n\r\n");
  if (response.size() < 12 || head_end == std::string::npos) return 0;
  if (body != nullptr) *body = response.substr(head_end + 4);
  return std::atoi(response.c_str() + 9);
}

struct LoadClient::Conn {
  int fd = -1;
  int64_t request = -1;  // index of the request in flight; -1 = idle
  std::string out;
  size_t out_offset = 0;
  std::string in;
};

LoadClient::LoadClient(uint16_t port, int keep_every)
    : port_(port),
      keep_every_(keep_every),
      epoll_fd_(epoll_create1(EPOLL_CLOEXEC)) {}

LoadClient::~LoadClient() {
  for (size_t c = 0; c < conns_.size(); ++c) {
    CloseConnection(static_cast<int>(c));
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

int LoadClient::OpenConnection() {
  const int fd = ConnectLoopback(port_);
  if (fd < 0) return -1;
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  const int index = static_cast<int>(conns_.size());
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u32 = static_cast<uint32_t>(index);
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    close(fd);
    return -1;
  }
  conns_.push_back(std::move(conn));
  ++open_connections_;
  return index;
}

void LoadClient::CloseConnection(int conn) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  if (c.fd < 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
  close(c.fd);
  c.fd = -1;
  --open_connections_;
}

bool LoadClient::Send(int conn, int64_t index, const RequestWriter& writer,
                      LoadResult* result) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  c.request = index;
  c.in.clear();
  writer(index, &c.out);
  RequestRecord& record = result->records[static_cast<size_t>(index)];
  record.send_ns = NowNs();
  if (result->first_send_ns == 0) result->first_send_ns = record.send_ns;
  const ssize_t n = send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
  if (n == static_cast<ssize_t>(c.out.size())) return true;
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
    Fail(conn, result);
    return false;
  }
  c.out_offset = n < 0 ? 0 : static_cast<size_t>(n);
  epoll_event event{};
  event.events = EPOLLIN | EPOLLOUT;
  event.data.u32 = static_cast<uint32_t>(conn);
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &event);
  return true;
}

void LoadClient::OnWritable(int conn, LoadResult* result) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  if (c.fd < 0 || c.request < 0) return;
  const ssize_t n = send(c.fd, c.out.data() + c.out_offset,
                         c.out.size() - c.out_offset, MSG_NOSIGNAL);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) Fail(conn, result);
    return;
  }
  c.out_offset += static_cast<size_t>(n);
  if (c.out_offset == c.out.size()) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u32 = static_cast<uint32_t>(conn);
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &event);
  }
}

void LoadClient::Fail(int conn, LoadResult* result) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  if (c.request >= 0) {
    RequestRecord& record = result->records[static_cast<size_t>(c.request)];
    record.status = 0;
    record.done_ns = NowNs();
    c.request = -1;
  }
  CloseConnection(conn);
}

void LoadClient::Finish(int conn, LoadResult* result, int status,
                        int64_t inference_us, const std::string& body) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  RequestRecord& record = result->records[static_cast<size_t>(c.request)];
  record.done_ns = NowNs();
  record.status = status;
  record.inference_us = inference_us;
  result->last_done_ns = record.done_ns;
  if (keep_every_ > 0 && c.request % keep_every_ == 0) {
    result->kept_bodies.emplace_back(c.request, body);
  }
  c.request = -1;
}

bool LoadClient::OnReadable(int conn, LoadResult* result) {
  Conn& c = *conns_[static_cast<size_t>(conn)];
  if (c.fd < 0) return false;
  char buffer[65536];
  while (true) {
    const ssize_t n = recv(c.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      c.in.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or error: whatever was in flight on this connection failed.
    const bool had_request = c.request >= 0;
    Fail(conn, result);
    return had_request;
  }
  if (c.request < 0) return false;
  const size_t head_end = c.in.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  const std::string head = c.in.substr(0, head_end);
  const size_t length =
      static_cast<size_t>(std::atoll(HeaderValue(head, "content-length").c_str()));
  if (c.in.size() < head_end + 4 + length) return false;
  const std::string inference = HeaderValue(head, "x-inference-us");
  const int status = head.size() >= 12 ? std::atoi(head.c_str() + 9) : 0;
  Finish(conn, result, status, inference.empty() ? -1 : std::atoll(inference.c_str()),
         c.in.substr(head_end + 4, length));
  c.in.erase(0, head_end + 4 + length);
  return true;
}

LoadResult LoadClient::OpenLoop(const std::vector<int64_t>& offsets_ns,
                                int max_connections,
                                const RequestWriter& writer) {
  LoadResult result;
  const int64_t n = static_cast<int64_t>(offsets_ns.size());
  result.records.resize(offsets_ns.size());
  const int64_t start = NowNs() + kMs;
  for (int64_t i = 0; i < n; ++i) {
    result.records[static_cast<size_t>(i)].sched_ns =
        start + offsets_ns[static_cast<size_t>(i)];
  }
  const int64_t give_up =
      (n > 0 ? result.records.back().sched_ns : start) + kDrainLimitNs;
  std::vector<int> idle;
  std::deque<int64_t> pending;
  int64_t next = 0;
  int64_t done = 0;
  epoll_event events[64];
  while (done < n) {
    const int64_t now = NowNs();
    while (next < n && result.records[static_cast<size_t>(next)].sched_ns <= now) {
      pending.push_back(next++);
    }
    while (!pending.empty()) {
      int conn = -1;
      while (!idle.empty() && conn < 0) {
        conn = idle.back();
        idle.pop_back();
        if (conns_[static_cast<size_t>(conn)]->fd < 0) conn = -1;
      }
      if (conn < 0 && open_connections_ < max_connections) {
        conn = OpenConnection();
        if (conn < 0) {  // cannot connect: the request fails
          RequestRecord& record =
              result.records[static_cast<size_t>(pending.front())];
          record.send_ns = record.done_ns = NowNs();
          pending.pop_front();
          ++done;
          continue;
        }
      }
      if (conn < 0) break;  // every connection is busy: wait
      const int64_t index = pending.front();
      pending.pop_front();
      if (!Send(conn, index, writer, &result)) ++done;
    }
    if (now > give_up) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (conns_[c]->request >= 0) Fail(static_cast<int>(c), &result);
      }
      break;
    }
    // Spin while sends are due: the generator owns its CPU, and sleeping
    // lets a virtual CPU halt, whose wake-up can make sends milliseconds
    // late. Once everything is sent, block.
    const int timeout_ms = next < n || !pending.empty() ? 0 : 1;
    const int ready = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    for (int e = 0; e < ready; ++e) {
      const int conn = static_cast<int>(events[e].data.u32);
      if (events[e].events & EPOLLOUT) OnWritable(conn, &result);
      if (OnReadable(conn, &result)) {
        ++done;
        if (conns_[static_cast<size_t>(conn)]->fd >= 0) idle.push_back(conn);
      }
    }
  }
  result.connections_opened = static_cast<int>(conns_.size());
  return result;
}

LoadResult LoadClient::ClosedLoop(int connections, int64_t duration_ns,
                                  const RequestWriter& writer) {
  LoadResult result;
  const int64_t end = NowNs() + duration_ns;
  int in_flight = 0;
  const auto send_next = [&](int conn) {
    const int64_t index = static_cast<int64_t>(result.records.size());
    result.records.emplace_back();
    result.records.back().sched_ns = NowNs();
    if (Send(conn, index, writer, &result)) ++in_flight;
  };
  for (int i = 0; i < connections; ++i) {
    const int conn = OpenConnection();
    if (conn >= 0) send_next(conn);
  }
  epoll_event events[64];
  while (in_flight > 0) {
    if (NowNs() > end + kDrainLimitNs) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        if (conns_[c]->request >= 0) Fail(static_cast<int>(c), &result);
      }
      break;
    }
    // Spin, as in OpenLoop: a halted generator CPU would slow the loop.
    const int ready = epoll_wait(epoll_fd_, events, 64, 0);
    for (int e = 0; e < ready; ++e) {
      int conn = static_cast<int>(events[e].data.u32);
      if (events[e].events & EPOLLOUT) OnWritable(conn, &result);
      if (!OnReadable(conn, &result)) continue;
      --in_flight;
      if (NowNs() >= end) continue;
      if (conns_[static_cast<size_t>(conn)]->fd < 0) conn = OpenConnection();
      if (conn >= 0) send_next(conn);
    }
  }
  result.connections_opened = static_cast<int>(conns_.size());
  return result;
}

}  // namespace perfbench
