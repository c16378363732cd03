#include "engine/ndjson_driver.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <utility>

#include "engine/request_json.h"

namespace covest::engine {

std::string ndjson_trimmed(const std::string& line) {
  std::size_t b = 0, e = line.size();
  while (b < e && std::isspace(static_cast<unsigned char>(line[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
  return line.substr(b, e - b);
}

bool ndjson_comment_or_blank(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() &&
         std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i == line.size()) return true;
  if (line[i] == '#') return true;
  return line.compare(i, 2, "--") == 0;
}

std::string ndjson_dirname(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

ParsedLine parse_request_line(const std::string& raw,
                              const RequestDefaults& defaults,
                              const std::string& base_dir, bool allow_paths) {
  ParsedLine job;
  const std::string line = ndjson_trimmed(raw);
  // Prefixing in place (rather than move-through-a-helper) sidesteps a
  // GCC maybe-uninitialized false positive on the moved-from string.
  const auto resolve = [&base_dir](std::string* path) {
    if (!base_dir.empty() && !path->empty() && (*path)[0] != '/') {
      path->insert(0, base_dir);
    }
  };
  if (!line.empty() && line[0] == '{') {
    std::string error;
    if (!parse_request(line, &job.request, &error)) {
      job.input_error = error;
    } else {
      resolve(&job.request.model_path);
    }
  } else if (allow_paths) {
    job.request.model_path = line;
    resolve(&job.request.model_path);
    job.request.want_traces = defaults.want_traces;
  } else {
    job.input_error = "stdin lines must be JSON requests (start with '{')";
  }
  if (!job.input_error.empty()) return job;
  const bool flags_win = defaults.flags_override;
  if (defaults.deadline_ms > 0 &&
      (flags_win || job.request.deadline_ms == 0)) {
    job.request.deadline_ms = defaults.deadline_ms;
  }
  if (defaults.max_nodes > 0 &&
      (flags_win || job.request.max_live_nodes == 0)) {
    job.request.max_live_nodes = defaults.max_nodes;
  }
  return job;
}

// ---------------------------------------------------------------------------
// NdjsonDispatcher
// ---------------------------------------------------------------------------

/// The eventfd behind `ready_fd()`. Writes add to its counter, one read
/// resets it to zero; both are nonblocking, and a failed write can only
/// mean the counter is already nonzero (readable) or the fd is missing.
struct NdjsonDispatcher::ReadySignal {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);

  ReadySignal() = default;
  ReadySignal(const ReadySignal&) = delete;
  ReadySignal& operator=(const ReadySignal&) = delete;
  ~ReadySignal() {
    if (fd >= 0) ::close(fd);
  }

  void notify() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof one);
  }
  void consume() const {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n = ::read(fd, &count, sizeof count);
  }
};

NdjsonDispatcher::NdjsonDispatcher(Executor& executor, std::size_t window,
                                   EmitFn emit)
    : executor_(executor),
      window_(window == 0 ? 1 : window),
      emit_(std::move(emit)) {}

NdjsonDispatcher::~NdjsonDispatcher() {
  // An abandoned dispatcher (a server connection that died mid-stream)
  // must not leave workers computing results nobody will take — and a
  // taken result's managers must be rebound *somewhere*. Cancel, then
  // take-and-drop on this thread.
  for (Pending& p : pending_) {
    if (p.handle.valid()) p.handle.cancel();
  }
  while (!pending_.empty()) {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    if (p.handle.valid()) p.handle.take();
  }
}

void NdjsonDispatcher::push(ParsedLine line) {
  Pending p;
  if (!line.input_error.empty()) {
    p.input_error = std::move(line.input_error);
  } else {
    // Only an event loop that asked for `ready_fd()` gets signalled; the
    // batch path (push, then drain) makes no system call per job.
    std::function<void()> on_ready;
    if (ready_) on_ready = [signal = ready_] { signal->notify(); };
    p.handle = executor_.submit(std::move(line.request), std::move(on_ready));
  }
  pending_.push_back(std::move(p));
  while (pending_.size() > window_) emit_front();
}

std::size_t NdjsonDispatcher::flush_ready() {
  // Consume first: a job that becomes ready after this read writes the
  // eventfd again (its hook runs after `ready`), and one that became
  // ready before it is seen by the probes below.
  if (ready_) ready_->consume();
  std::size_t emitted = 0;
  while (!pending_.empty()) {
    const Pending& front = pending_.front();
    // A zero-timeout wait is a completion probe; input-error lines
    // (invalid handle) are always ready.
    if (front.handle.valid() &&
        !front.handle.wait_for(std::chrono::milliseconds(0))) {
      break;
    }
    emit_front();
    ++emitted;
  }
  return emitted;
}

void NdjsonDispatcher::drain() {
  while (!pending_.empty()) emit_front();
}

void NdjsonDispatcher::drain_for(std::chrono::milliseconds per_job) {
  while (!pending_.empty()) {
    const Pending& front = pending_.front();
    if (front.handle.valid() && !front.handle.wait_for(per_job)) return;
    emit_front();
  }
}

void NdjsonDispatcher::emit_front() {
  Pending p = std::move(pending_.front());
  pending_.pop_front();
  SuiteResult result;
  if (!p.input_error.empty()) {
    result.error = std::move(p.input_error);
    result.status = ResultStatus::kError;
  } else {
    result = p.handle.take();
  }
  any_error_ = any_error_ || !result.error.empty();
  any_failure_ = any_failure_ || result.failures > 0;
  any_limited_ = any_limited_ ||
                 result.status == ResultStatus::kDeadlineExceeded ||
                 result.status == ResultStatus::kResourceExhausted ||
                 result.status == ResultStatus::kAdmissionRejected;
  if (emit_) emit_(result);
}

int NdjsonDispatcher::ready_fd() {
  if (!ready_) ready_ = std::make_shared<const ReadySignal>();
  return ready_->fd;
}

int NdjsonDispatcher::exit_code() const {
  if (any_limited_) return 3;  // Resource limits trump property failures.
  return (any_error_ || any_failure_) ? 1 : 0;
}

}  // namespace covest::engine
