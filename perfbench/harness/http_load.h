#ifndef PERFBENCH_HARNESS_HTTP_LOAD_H_
#define PERFBENCH_HARNESS_HTTP_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Blocking one-shot GET on 127.0.0.1:`port` (Connection: close). Returns
/// the HTTP status (0 on a transport error) and fills `body`.
int HttpGet(uint16_t port, const std::string& path, std::string* body);

/// One request as the generator saw it.
struct RequestRecord {
  int64_t sched_ns = 0;  // when it was due (open loop) or sent (closed)
  int64_t send_ns = 0;   // when its bytes were handed to the socket
  int64_t done_ns = 0;   // when the full response had arrived
  int status = 0;        // HTTP status; 0 = transport failure
  int64_t inference_us = -1;  // the server's x-inference-us header
};

/// What one load phase produced.
struct LoadResult {
  std::vector<RequestRecord> records;
  /// Response bodies of every `keep_every`-th request, by request index.
  std::vector<std::pair<int64_t, std::string>> kept_bodies;
  int64_t first_send_ns = 0;
  int64_t last_done_ns = 0;
  int connections_opened = 0;
};

/// Writes the complete HTTP request bytes for request `index`.
using RequestWriter = std::function<void(int64_t index, std::string* out)>;

/// The benchmark's own HTTP/1.1 load generator: one thread, one epoll set,
/// non-blocking keep-alive connections to 127.0.0.1:`port`. It never
/// pipelines; a connection carries one request at a time.
class LoadClient {
 public:
  LoadClient(uint16_t port, int keep_every);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Open loop: request i is due `offsets_ns[i]` after the phase starts and
  /// is sent then regardless of outstanding responses, on an idle
  /// connection (a new one is opened while fewer than `max_connections`
  /// exist; otherwise it waits, and the wait counts as latency).
  LoadResult OpenLoop(const std::vector<int64_t>& offsets_ns,
                      int max_connections, const RequestWriter& writer);

  /// Closed loop: `connections` callers, each sending its next request as
  /// soon as the previous response arrived, for `duration_ns`; requests in
  /// flight at the deadline are completed and counted.
  LoadResult ClosedLoop(int connections, int64_t duration_ns,
                        const RequestWriter& writer);

 private:
  struct Conn;
  int OpenConnection();
  void CloseConnection(int conn);
  bool Send(int conn, int64_t index, const RequestWriter& writer,
            LoadResult* result);
  /// Drains readable bytes; returns true when `conn`'s response completed
  /// or failed (the request then has a final status).
  bool OnReadable(int conn, LoadResult* result);
  void OnWritable(int conn, LoadResult* result);
  void Fail(int conn, LoadResult* result);
  void Finish(int conn, LoadResult* result, int status,
              int64_t inference_us, const std::string& body);

  uint16_t port_;
  int keep_every_;
  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Conn>> conns_;
  int open_connections_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HTTP_LOAD_H_
