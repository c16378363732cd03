#include "engine/result_json.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "engine/json.h"

namespace covest::engine {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Streaming writer producing deterministic, optionally pretty output.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty) : pretty_(pretty) {}

  std::string str() const { return os_.str(); }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Starts a member inside an object; follow with a value call.
  void key(const std::string& name) {
    separate();
    raw_string(name);
    os_ << (pretty_ ? ": " : ":");
    just_keyed_ = true;
  }

  void string(const std::string& s) {
    value_separator();
    raw_string(s);
  }
  void boolean(bool v) {
    value_separator();
    os_ << (v ? "true" : "false");
  }

  void number(double v) {
    value_separator();
    if (!std::isfinite(v)) {  // JSON has no Inf/NaN.
      os_ << "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    os_ << buf;
  }

  void number(std::uint64_t v) {
    value_separator();
    os_ << v;
  }

  /// An integral state count held in a double: an exact integer token
  /// (`%.0f` prints every digit), where `%.10g` would round anything
  /// above ten digits to an exponent form.
  void count(double v) {
    value_separator();
    if (!std::isfinite(v)) {
      os_ << "null";
      return;
    }
    char buf[320];  // DBL_MAX has 309 integer digits.
    std::snprintf(buf, sizeof buf, "%.0f", v);
    os_ << buf;
  }

 private:
  void raw_string(const std::string& s) { json::write_escaped(os_, s); }

  void open(char c) {
    value_separator();
    os_ << c;
    depth_++;
    first_.push_back(true);
  }

  void close(char c) {
    depth_--;
    const bool empty = first_.back();
    first_.pop_back();
    if (pretty_ && !empty) newline();
    os_ << c;
  }

  /// Comma/newline before an array element or object key.
  void separate() {
    if (!first_.empty()) {
      if (!first_.back()) os_ << ',';
      first_.back() = false;
    }
    if (pretty_) newline();
  }

  /// Array elements separate themselves; values after `key` must not.
  void value_separator() {
    if (just_keyed_) {
      just_keyed_ = false;
      return;
    }
    if (!first_.empty()) separate();
  }

  void newline() {
    os_ << '\n';
    for (int i = 0; i < depth_; ++i) os_ << "  ";
  }

  std::ostringstream os_;
  bool pretty_;
  bool just_keyed_ = false;
  int depth_ = 0;
  std::vector<bool> first_;
};

void write_trace(JsonWriter& w, const TraceResult& trace) {
  w.begin_object();
  w.key("steps");
  w.begin_array();
  for (const TraceResult::Step& step : trace.steps) {
    w.begin_object();
    for (const auto& [name, value] : step) {
      w.key(name);
      w.number(static_cast<std::uint64_t>(value));
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// `front_end` marks the elaborate phase, the one that carries parse_ms.
void write_phase(JsonWriter& w, const PhaseStats& phase,
                 bool front_end = false) {
  w.begin_object();
  w.key("ms");
  w.number(phase.ms);
  if (front_end) {
    w.key("parse_ms");
    w.number(phase.parse_ms);
  }
  w.key("live_nodes");
  w.number(static_cast<std::uint64_t>(phase.live_nodes));
  w.key("peak_live_nodes");
  w.number(static_cast<std::uint64_t>(phase.peak_live_nodes));
  w.key("cache_hit_rate");
  w.number(phase.cache_hit_rate);
  w.key("gc_runs");
  w.number(static_cast<std::uint64_t>(phase.gc_runs));
  w.key("passes");
  w.number(static_cast<std::uint64_t>(phase.passes));
  if (phase.node_budget != 0) {  // Only budgeted runs carry one.
    w.key("node_budget");
    w.number(static_cast<std::uint64_t>(phase.node_budget));
  }
  if (phase.partial_relations != 0) {  // Only elaborated sessions carry them.
    w.key("partial_relations");
    w.number(static_cast<std::uint64_t>(phase.partial_relations));
    w.key("clusters");
    w.number(static_cast<std::uint64_t>(phase.clusters));
    w.key("largest_cluster");
    w.number(static_cast<std::uint64_t>(phase.largest_cluster));
  }
  w.end_object();
}

}  // namespace

std::string to_json(const SuiteResult& r, const JsonOptions& options) {
  JsonWriter w(options.pretty);
  w.begin_object();

  w.key("model");
  w.begin_object();
  w.key("name");
  w.string(r.model_name);
  w.key("state_bits");
  w.number(static_cast<std::uint64_t>(r.state_bits));
  w.key("reachable_states");
  w.count(r.reachable_states);
  w.key("coverage_space_states");
  w.count(r.space_count);
  w.end_object();

  w.key("summary");
  w.begin_object();
  w.key("properties");
  w.number(static_cast<std::uint64_t>(r.properties.size()));
  w.key("failures");
  w.number(static_cast<std::uint64_t>(r.failures));
  w.key("signals");
  w.number(static_cast<std::uint64_t>(r.signals.size()));
  w.key("all_passed");
  w.boolean(r.all_passed());
  w.key("cancelled");
  w.boolean(r.status == ResultStatus::kCancelled);
  if (r.status != ResultStatus::kOk) {  // Successful runs stay byte-stable.
    w.key("status");
    w.string(to_string(r.status));
    if (!r.status_detail.empty()) {
      w.key("status_detail");
      w.string(r.status_detail);
    }
  }
  if (!r.error.empty()) {  // Only batch/executor failures carry one.
    w.key("error");
    w.string(r.error);
  }
  w.end_object();

  w.key("properties");
  w.begin_array();
  for (const PropertyResult& p : r.properties) {
    w.begin_object();
    w.key("ctl");
    w.string(p.ctl_text);
    if (!p.comment.empty()) {
      w.key("comment");
      w.string(p.comment);
    }
    w.key("observe");
    w.begin_array();
    for (const std::string& s : p.observe) w.string(s);
    w.end_array();
    w.key("holds");
    w.boolean(p.holds);
    w.key("skipped");
    w.boolean(p.skipped);
    if (p.counterexample) {
      w.key("counterexample");
      write_trace(w, *p.counterexample);
    }
    if (options.include_stats) {
      w.key("check_ms");
      w.number(p.check_ms);
    }
    w.end_object();
  }
  w.end_array();

  w.key("signals");
  w.begin_array();
  for (const SignalRow& s : r.signals) {
    w.begin_object();
    w.key("name");
    w.string(s.name);
    w.key("properties");
    w.number(static_cast<std::uint64_t>(s.num_properties));
    w.key("covered_states");
    w.count(s.covered_count);
    w.key("percent");
    w.number(s.percent);
    w.key("uncovered");
    w.begin_array();
    for (const std::string& u : s.uncovered) w.string(u);
    w.end_array();
    if (s.trace) {
      w.key("trace");
      write_trace(w, *s.trace);
    }
    if (options.include_stats) {
      w.key("estimate_ms");
      w.number(s.estimate_ms);
    }
    w.end_object();
  }
  w.end_array();

  if (options.include_stats) {
    w.key("stats");
    w.begin_object();
    w.key("elaborate");
    write_phase(w, r.elaborate, /*front_end=*/true);
    w.key("verify");
    write_phase(w, r.verify);
    w.key("estimate");
    write_phase(w, r.estimate);
    w.key("total_ms");
    w.number(r.total_ms);
    w.end_object();
  }

  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

// ---------------------------------------------------------------------------
// Validation (the shared RFC 8259 parser in engine/json.h, value
// discarded)
// ---------------------------------------------------------------------------

bool validate_json(const std::string& text, std::string* error) {
  try {
    (void)json::parse(text);
    return true;
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace covest::engine
