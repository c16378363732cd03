#include "server/covest_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/json.h"
#include "engine/result_json.h"
#include "engine/session_cache.h"
#include "util/time.h"

namespace covest::server {

namespace {

using engine::NdjsonDispatcher;
using engine::ParsedLine;
using engine::SuiteResult;
using util::Clock;
using util::ms_since;

/// Robust full-buffer send. MSG_NOSIGNAL: a vanished client must come
/// back as an error return, not a process-wide SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The `{"op": ...}` sniff: cheap substring prefilter, then a real
/// parse. Returns true when `line` is a well-formed JSON object with a
/// string `op` member (`*op` receives it) — anything else is a regular
/// request line.
bool parse_op_line(const std::string& line, std::string* op) {
  if (line.find("\"op\"") == std::string::npos) return false;
  try {
    const engine::json::Value v = engine::json::parse(line);
    if (v.type != engine::json::Value::Type::kObject) return false;
    for (const auto& [key, value] : v.object) {
      if (key == "op" && value.type == engine::json::Value::Type::kString) {
        *op = value.string;
        return true;
      }
    }
  } catch (const std::exception&) {
    // Malformed JSON takes the regular request path, whose parse error
    // message is the documented one.
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct CovestServer::Impl {
  ServerOptions options;

  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  /// Self-pipe: `request_shutdown` writes one byte (async-signal-safe);
  /// the accept loop and every connection reader poll the read end.
  int wake_rd = -1;
  int wake_wr = -1;
  std::atomic<bool> shutting_down{false};

  std::shared_ptr<engine::SessionCache> cache;
  std::unique_ptr<engine::Executor> executor;
  std::size_t window = 2;

  // -- Connection registry --------------------------------------------------
  std::mutex conn_mu;
  std::uint64_t next_conn_id = 1;
  std::unordered_map<std::uint64_t, std::thread> conns;
  std::vector<std::uint64_t> finished;  ///< Ready to join (reaped lazily).
  /// Signalled by each reader as it lands in `finished`; `serve` waits
  /// on it to join the last readers after shutdown.
  std::condition_variable conn_cv;

  // -- Metrics + exit aggregation -------------------------------------------
  Clock::time_point started_at{};
  std::atomic<std::uint64_t> n_ok{0}, n_cancelled{0}, n_deadline{0},
      n_exhausted{0}, n_admission{0}, n_error{0};
  std::atomic<std::uint64_t> conn_total{0}, conn_rejected{0};
  std::atomic<std::size_t> conn_active{0};
  std::atomic<bool> any_error{false}, any_failure{false}, any_limited{false};

  // -- Maintenance window (gc_interval > 0) ---------------------------------
  /// Background thread: every `gc_interval` completed suites it takes
  /// the executor's stop-the-world window and GCs the parked sessions.
  /// Started by `start`, woken by `record`, joined by the destructor
  /// (request_shutdown stays async-signal-safe — it never notifies).
  std::thread gc_thread;
  std::mutex gc_mu;
  std::condition_variable gc_cv;
  std::uint64_t last_maintained = 0;  ///< Suite total at the last pass.
  std::atomic<std::uint64_t> maintenance_runs{0};
  std::atomic<std::size_t> maintenance_sessions{0};
  std::atomic<std::size_t> maintenance_live_before{0};
  std::atomic<std::size_t> maintenance_live_after{0};

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
  }

  /// Folds one emitted result line into the per-status counters and the
  /// exit-code flags — every line that reaches a client goes through
  /// here, connection-level rejections included.
  void record(const SuiteResult& r) {
    switch (r.status) {
      case engine::ResultStatus::kOk:
        ++n_ok;
        break;
      case engine::ResultStatus::kCancelled:
        ++n_cancelled;
        break;
      case engine::ResultStatus::kDeadlineExceeded:
        ++n_deadline;
        break;
      case engine::ResultStatus::kResourceExhausted:
        ++n_exhausted;
        break;
      case engine::ResultStatus::kAdmissionRejected:
        ++n_admission;
        break;
      case engine::ResultStatus::kError:
        ++n_error;
        break;
    }
    if (!r.error.empty()) any_error = true;
    if (r.failures > 0) any_failure = true;
    if (r.status == engine::ResultStatus::kDeadlineExceeded ||
        r.status == engine::ResultStatus::kResourceExhausted ||
        r.status == engine::ResultStatus::kAdmissionRejected) {
      any_limited = true;
    }
    if (options.gc_interval > 0) gc_cv.notify_one();
  }

  std::uint64_t suites_total() const {
    return n_ok + n_cancelled + n_deadline + n_exhausted + n_admission +
           n_error;
  }

  void maintenance_loop() {
    std::unique_lock<std::mutex> lock(gc_mu);
    for (;;) {
      // The timed backstop covers the signal-handler shutdown path:
      // request_shutdown only stores + writes the pipe (it must stay
      // async-signal-safe, and notifying a condition variable is not),
      // so this thread re-checks on a coarse tick. It sits on neither
      // the reply path nor the drain: it only keeps a window from
      // opening after a signal, and the destructor notifies directly.
      gc_cv.wait_for(lock, std::chrono::milliseconds(200), [this] {
        return shutting_down.load(std::memory_order_relaxed) ||
               suites_total() - last_maintained >= options.gc_interval;
      });
      if (shutting_down.load(std::memory_order_relaxed)) return;
      if (suites_total() - last_maintained < options.gc_interval) continue;
      last_maintained = suites_total();
      lock.unlock();
      const engine::MaintenanceStats ms =
          executor->maintenance(options.gc_sift);
      ++maintenance_runs;
      maintenance_sessions.store(ms.sessions, std::memory_order_relaxed);
      maintenance_live_before.store(ms.live_nodes_before,
                                    std::memory_order_relaxed);
      maintenance_live_after.store(ms.live_nodes_after,
                                   std::memory_order_relaxed);
      lock.lock();
    }
  }

  std::string metrics_line() const {
    // uptime_ms is an integer and per_sec fixed-precision: the default
    // 6-significant-digit ostringstream formatting flips a double
    // uptime into scientific notation after ~16.7 minutes (1e+06 ms),
    // corrupting the metrics line for any numeric consumer.
    const std::uint64_t uptime =
        static_cast<std::uint64_t>(ms_since(started_at));
    const std::uint64_t total = n_ok + n_cancelled + n_deadline + n_exhausted +
                                n_admission + n_error;
    const double per_sec =
        uptime > 0 ? 1000.0 * static_cast<double>(total) /
                         static_cast<double>(uptime)
                   : 0.0;
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "{\"metrics\":{";
    os << "\"uptime_ms\":" << uptime;
    os << ",\"queue_depth\":" << executor->queue_depth();
    os << ",\"suites\":{\"total\":" << total << ",\"per_sec\":" << per_sec
       << ",\"ok\":" << n_ok << ",\"cancelled\":" << n_cancelled
       << ",\"deadline_exceeded\":" << n_deadline
       << ",\"resource_exhausted\":" << n_exhausted
       << ",\"admission_rejected\":" << n_admission
       << ",\"error\":" << n_error << "}";
    os << ",\"connections\":{\"active\":" << conn_active
       << ",\"total\":" << conn_total << ",\"rejected\":" << conn_rejected
       << "}";
    if (cache) {
      const engine::SessionCacheStats cs = cache->stats();
      os << ",\"cache\":{\"capacity\":" << cache->capacity()
         << ",\"entries\":" << cs.entries << ",\"hits\":" << cs.hits
         << ",\"misses\":" << cs.misses << ",\"insertions\":" << cs.insertions
         << ",\"evictions\":" << cs.evictions << ",\"discards\":" << cs.discards
         << ",\"live_nodes\":" << cs.live_nodes << "}";
    }
    if (options.gc_interval > 0) {
      os << ",\"maintenance\":{\"interval\":" << options.gc_interval
         << ",\"runs\":" << maintenance_runs
         << ",\"sessions\":" << maintenance_sessions
         << ",\"live_nodes_before\":" << maintenance_live_before
         << ",\"live_nodes_after\":" << maintenance_live_after << "}";
    }
    os << "}}\n";
    return os.str();
  }

  /// One status-only line outside the dispatcher: connection-level
  /// admission rejections and oversize request lines.
  SuiteResult status_line(engine::ResultStatus status, std::string detail) {
    SuiteResult r;
    r.status = status;
    r.status_detail = std::move(detail);
    record(r);
    return r;
  }

  void handle_connection(std::uint64_t id, int fd);
  void reap_finished();
};

// ---------------------------------------------------------------------------
// Connection loop
// ---------------------------------------------------------------------------

void CovestServer::Impl::handle_connection(std::uint64_t id, int fd) {
  engine::JsonOptions json;
  json.pretty = false;
  json.include_stats = options.stats;

  bool client_alive = true;
  NdjsonDispatcher dispatch(
      *executor, window, [this, fd, &json, &client_alive](const SuiteResult& r) {
        record(r);
        if (client_alive && !send_all(fd, engine::to_json(r, json))) {
          client_alive = false;
        }
      });

  const auto handle_line = [&](const std::string& raw) {
    const std::string line = engine::ndjson_trimmed(raw);
    if (line.empty()) return;
    std::string op;
    if (parse_op_line(line, &op)) {
      if (op == "metrics") {
        if (client_alive && !send_all(fd, metrics_line())) {
          client_alive = false;
        }
      } else {
        ParsedLine bad;
        bad.input_error = "unknown op '" + op + "'";
        dispatch.push(std::move(bad));
      }
      return;
    }
    dispatch.push(
        engine::parse_request_line(line, options.defaults, "", false));
  };

  // Created before the first push, so every job of this connection
  // signals it.
  const int ready_fd = dispatch.ready_fd();
  if (ready_fd < 0) {
    // Without its readiness fd the loop below could never learn that a
    // job finished; refuse the connection rather than hang its replies.
    const SuiteResult r =
        status_line(engine::ResultStatus::kAdmissionRejected,
                    "could not create the connection's readiness eventfd");
    send_all(fd, engine::to_json(r, json));
    client_alive = false;
  }

  std::string buffer;
  bool discarding = false;  ///< Oversize line: drop bytes to next '\n'.
  char chunk[4096];
  // Event-driven: the loop sleeps until the client sends, a job of this
  // connection finishes (the dispatcher's readiness fd), or shutdown.
  // There is no timeout — a reply never waits for a tick.
  pollfd fds[3];
  fds[0] = {fd, POLLIN, 0};
  fds[1] = {wake_rd, POLLIN, 0};
  fds[2] = {ready_fd, POLLIN, 0};
  while (client_alive) {
    if (::poll(fds, 3, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Shutdown wake: stop reading — buffered-but-unread requests are
    // not accepted during a drain — and fall through to the drain.
    if ((fds[1].revents & POLLIN) != 0 ||
        shutting_down.load(std::memory_order_relaxed)) {
      break;
    }
    if (fds[0].revents != 0) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // EOF or error: drain what was submitted, then hang up.
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        if (discarding) {
          discarding = false;  // The runt tail of an oversize line.
          continue;
        }
        handle_line(line);
      }
      if (!discarding && buffer.size() > options.max_line_bytes) {
        // Emitted immediately (nothing of this line was ever submitted);
        // the stream resynchronizes at the next newline.
        const SuiteResult r = status_line(
            engine::ResultStatus::kAdmissionRejected,
            "request line exceeds max_line_bytes (" +
                std::to_string(options.max_line_bytes) + ")");
        if (client_alive && !send_all(fd, engine::to_json(r, json))) {
          client_alive = false;
        }
        buffer.clear();
        discarding = true;
      }
    }
    // Finished jobs (the readiness fd) and input-error lines just pushed
    // (which never signal it) leave now, in order.
    dispatch.flush_ready();
  }

  // Drain: every submitted job still gets its result line (shutdown
  // grants `drain_ms` per job, then cancels; the dispatcher destructor
  // reaps whatever remains without emitting).
  if (shutting_down.load(std::memory_order_relaxed)) {
    if (!dispatch.drain_for(std::chrono::milliseconds(options.drain_ms))) {
      // Grace expired: results computed so far were flushed; cancel the
      // rest (cooperative, so the executor drains promptly).
    }
  } else if (client_alive) {
    dispatch.drain();
  }
  // A dead client (or an expired drain) leaves jobs in flight; the
  // dispatcher destructor cancels and absorbs them here.

  ::close(fd);
  conn_active.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conn_mu);
  finished.push_back(id);
  conn_cv.notify_one();  // A draining `serve` may be waiting to join us.
}

void CovestServer::Impl::reap_finished() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (const std::uint64_t id : finished) {
      const auto it = conns.find(id);
      if (it != conns.end()) {
        done.push_back(std::move(it->second));
        conns.erase(it);
      }
    }
    finished.clear();
  }
  for (std::thread& t : done) t.join();
}

// ---------------------------------------------------------------------------
// CovestServer
// ---------------------------------------------------------------------------

CovestServer::CovestServer(ServerOptions options) : impl_(new Impl) {
  options.defaults.flags_override = false;  // Server flags are defaults.
  impl_->options = std::move(options);
}

CovestServer::~CovestServer() {
  if (impl_->gc_thread.joinable()) {
    impl_->shutting_down.store(true, std::memory_order_relaxed);
    impl_->gc_cv.notify_all();  // Normal context here: notify is safe.
    impl_->gc_thread.join();
  }
}

bool CovestServer::start(std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return fail("pipe");
  impl_->wake_rd = pipe_fds[0];
  impl_->wake_wr = pipe_fds[1];

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->options.port);
  if (::inet_pton(AF_INET, impl_->options.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) {
      *error = "invalid host '" + impl_->options.host + "'";
    }
    return false;
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0) {
    return fail("bind " + impl_->options.host + ":" +
                std::to_string(impl_->options.port));
  }
  if (::listen(impl_->listen_fd, 64) != 0) return fail("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
  impl_->bound_port = ntohs(bound.sin_port);

  if (impl_->options.cache_sessions > 0) {
    impl_->cache =
        std::make_shared<engine::SessionCache>(impl_->options.cache_sessions);
  }
  engine::ExecutorOptions executor_options;
  executor_options.workers = impl_->options.jobs;
  executor_options.max_queue_depth = impl_->options.max_queue;
  // Rejecting admission (not blocking): a reader thread stuck in
  // `submit` could not poll its client or the shutdown pipe.
  executor_options.admission = engine::AdmissionPolicy::kReject;
  executor_options.session_cache = impl_->cache;
  impl_->executor =
      std::make_unique<engine::Executor>(std::move(executor_options));
  impl_->window = 2 * impl_->executor->worker_count();
  impl_->started_at = Clock::now();
  if (impl_->options.gc_interval > 0) {
    impl_->gc_thread = std::thread([this] { impl_->maintenance_loop(); });
  }
  return true;
}

std::uint16_t CovestServer::port() const { return impl_->bound_port; }

void CovestServer::serve() {
  pollfd fds[2];
  fds[0] = {impl_->listen_fd, POLLIN, 0};
  fds[1] = {impl_->wake_rd, POLLIN, 0};
  while (!impl_->shutting_down.load(std::memory_order_relaxed)) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // Shutdown wake.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    impl_->reap_finished();
    const std::size_t cap = impl_->options.max_connections;
    // Tentative active-count claim: the cap must hold even against
    // concurrent hangups (the decrement is the reader's last act).
    if (cap != 0 &&
        impl_->conn_active.fetch_add(1, std::memory_order_relaxed) >= cap) {
      impl_->conn_active.fetch_sub(1, std::memory_order_relaxed);
      ++impl_->conn_rejected;
      engine::JsonOptions json;
      json.pretty = false;
      json.include_stats = impl_->options.stats;
      const SuiteResult r = impl_->status_line(
          engine::ResultStatus::kAdmissionRejected,
          "connection limit (max_connections=" + std::to_string(cap) + ")");
      send_all(fd, engine::to_json(r, json));
      ::close(fd);
      continue;
    }
    if (cap == 0) impl_->conn_active.fetch_add(1, std::memory_order_relaxed);
    ++impl_->conn_total;
    std::lock_guard<std::mutex> lock(impl_->conn_mu);
    const std::uint64_t id = impl_->next_conn_id++;
    impl_->conns.emplace(
        id, std::thread([this, id, fd] { impl_->handle_connection(id, fd); }));
  }
  // Reject new connections at the socket level, then let every reader
  // finish its drain and join it as soon as it says it is done.
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  for (;;) {
    impl_->reap_finished();
    std::unique_lock<std::mutex> lock(impl_->conn_mu);
    if (impl_->conns.empty()) break;
    impl_->conn_cv.wait(lock, [this] { return !impl_->finished.empty(); });
  }
}

void CovestServer::request_shutdown() noexcept {
  impl_->shutting_down.store(true, std::memory_order_relaxed);
  const char byte = 1;
  // The self-pipe stays open (and readable) for the server's lifetime,
  // so every poller wakes; EAGAIN on a full pipe is fine — it already
  // has a wake byte in it.
  [[maybe_unused]] const ssize_t n = ::write(impl_->wake_wr, &byte, 1);
}

int CovestServer::exit_code() const {
  if (impl_->any_limited.load()) return 3;
  return (impl_->any_error.load() || impl_->any_failure.load()) ? 1 : 0;
}

}  // namespace covest::server
