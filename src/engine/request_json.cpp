#include "engine/request_json.h"

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ctl/ctl.h"
#include "engine/json.h"

namespace covest::engine {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

/// Tiny struct-shaped writer: the request schema is flat enough that a
/// purpose-built emitter is clearer than a generic one.
class RequestWriter {
 public:
  explicit RequestWriter(bool pretty) : pretty_(pretty) {}

  void field_string(const char* key, const std::string& value) {
    begin_field(key);
    json::write_escaped(os_, value);
  }
  void field_bool(const char* key, bool value) {
    begin_field(key);
    os_ << (value ? "true" : "false");
  }
  void field_count(const char* key, std::size_t value) {
    begin_field(key);
    os_ << value;
  }
  void field_raw(const char* key, const std::string& rendered) {
    begin_field(key);
    os_ << rendered;
  }

  std::string finish() {
    os_ << (pretty_ ? "\n}" : "}");
    os_ << '\n';
    return os_.str();
  }

 private:
  void begin_field(const char* key) {
    os_ << (first_ ? "{" : ",");
    first_ = false;
    if (pretty_) os_ << "\n  ";
    json::write_escaped(os_, key);
    os_ << (pretty_ ? ": " : ":");
  }

  std::ostringstream os_;
  bool pretty_;
  bool first_ = true;
};

std::string render_string_array(const std::vector<std::string>& items) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) os << ',';
    json::write_escaped(os, items[i]);
  }
  os << ']';
  return os.str();
}

std::string render_properties(const std::vector<PropertySpec>& props,
                              bool pretty) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < props.size(); ++i) {
    const PropertySpec& p = props[i];
    if (i != 0) os << ',';
    if (pretty) os << "\n    ";
    os << '{';
    os << "\"ctl\":";
    if (pretty) os << ' ';
    // A programmatic formula serializes through its canonical rendering;
    // explicit text wins so round-trips preserve the author's form.
    json::write_escaped(
        os, !p.ctl_text.empty()
                ? p.ctl_text
                : (p.formula.valid() ? ctl::to_string(p.formula)
                                     : std::string()));
    os << ",\"observe\":";
    if (pretty) os << ' ';
    os << render_string_array(p.observe);
    if (!p.comment.empty()) {
      os << ",\"comment\":";
      if (pretty) os << ' ';
      json::write_escaped(os, p.comment);
    }
    os << '}';
  }
  if (pretty && !props.empty()) os << "\n  ";
  os << ']';
  return os.str();
}

}  // namespace

std::string to_json(const CoverageRequest& request,
                    const JsonOptions& options) {
  if (request.model.has_value()) {
    throw std::invalid_argument(
        "CoverageRequest with an in-memory model cannot be serialized; use "
        "model_source or model_path");
  }
  RequestWriter w(options.pretty);
  if (!request.model_path.empty()) {
    w.field_string("model_path", request.model_path);
  }
  if (!request.model_source.empty()) {
    w.field_string("model", request.model_source);
  }
  w.field_raw("properties", render_properties(request.properties,
                                              options.pretty));
  w.field_raw("signals", render_string_array(request.signals));
  {
    std::ostringstream os;
    os << "{\"restrict_to_fair\":";
    if (options.pretty) os << ' ';
    os << (request.options.restrict_to_fair ? "true" : "false");
    os << ",\"exclude_dontcares\":";
    if (options.pretty) os << ' ';
    os << (request.options.exclude_dontcares ? "true" : "false");
    os << '}';
    w.field_raw("options", os.str());
  }
  w.field_bool("skip_failing", request.skip_failing);
  w.field_count("uncovered_limit", request.uncovered_limit);
  w.field_bool("want_traces", request.want_traces);
  // Governance limits are omitted when unset, so pre-governance
  // documents (and their goldens) stay byte-identical.
  if (request.deadline_ms != 0) {
    w.field_count("deadline_ms",
                  static_cast<std::size_t>(request.deadline_ms));
  }
  if (request.max_live_nodes != 0) {
    w.field_count("max_live_nodes", request.max_live_nodes);
  }
  return w.finish();
}

// ---------------------------------------------------------------------------
// Parser: schema mapping over the shared JSON DOM (engine/json.h).
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void schema_fail(const std::string& what) {
  throw std::runtime_error("request JSON: " + what);
}

/// RFC 8259 leaves duplicate member names to the implementation; here a
/// duplicate means the document describes two different jobs at once, so
/// it is rejected rather than silently last-wins.
class DuplicateKeyGuard {
 public:
  void check(const std::string& key, const char* where) {
    if (!seen_.insert(key).second) {
      schema_fail("duplicate key '" + key + "'" + where);
    }
  }

 private:
  std::set<std::string> seen_;
};

const char* type_name(json::Value::Type t) {
  switch (t) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return "bool";
    case json::Value::Type::kNumber: return "number";
    case json::Value::Type::kString: return "string";
    case json::Value::Type::kArray: return "array";
    case json::Value::Type::kObject: return "object";
  }
  return "?";
}

const std::string& as_string(const json::Value& v, const char* key) {
  if (v.type != json::Value::Type::kString) {
    schema_fail(std::string("'") + key + "' must be a string, got " +
                type_name(v.type));
  }
  return v.string;
}

bool as_bool(const json::Value& v, const char* key) {
  if (v.type != json::Value::Type::kBool) {
    schema_fail(std::string("'") + key + "' must be a boolean, got " +
                type_name(v.type));
  }
  return v.boolean;
}

std::size_t as_count(const json::Value& v, const char* key) {
  if (v.type != json::Value::Type::kNumber || v.number < 0.0 ||
      v.number != std::floor(v.number) || v.number > 1e15) {
    schema_fail(std::string("'") + key +
                "' must be a non-negative integer");
  }
  return static_cast<std::size_t>(v.number);
}

std::vector<std::string> as_string_array(const json::Value& v,
                                         const char* key) {
  if (v.type != json::Value::Type::kArray) {
    schema_fail(std::string("'") + key + "' must be an array, got " +
                type_name(v.type));
  }
  std::vector<std::string> out;
  out.reserve(v.array.size());
  for (const json::Value& e : v.array) out.push_back(as_string(e, key));
  return out;
}

PropertySpec parse_property(const json::Value& v) {
  if (v.type != json::Value::Type::kObject) {
    schema_fail("'properties' entries must be objects");
  }
  PropertySpec spec;
  bool have_ctl = false;
  DuplicateKeyGuard dup;
  for (const auto& [key, value] : v.object) {
    dup.check(key, " in a property");
    if (key == "ctl") {
      spec.ctl_text = as_string(value, "ctl");
      have_ctl = true;
    } else if (key == "observe") {
      spec.observe = as_string_array(value, "observe");
    } else if (key == "comment") {
      spec.comment = as_string(value, "comment");
    } else {
      schema_fail("unknown key '" + key + "' in a property");
    }
  }
  if (!have_ctl) schema_fail("a property needs a 'ctl' formula");
  return spec;
}

core::CoverageOptions parse_options(const json::Value& v) {
  if (v.type != json::Value::Type::kObject) {
    schema_fail("'options' must be an object");
  }
  core::CoverageOptions options;
  DuplicateKeyGuard dup;
  for (const auto& [key, value] : v.object) {
    dup.check(key, " in 'options'");
    if (key == "restrict_to_fair") {
      options.restrict_to_fair = as_bool(value, "restrict_to_fair");
    } else if (key == "exclude_dontcares") {
      options.exclude_dontcares = as_bool(value, "exclude_dontcares");
    } else {
      schema_fail("unknown key '" + key + "' in 'options'");
    }
  }
  return options;
}

}  // namespace

CoverageRequest request_from_json(const std::string& text) {
  const json::Value root = json::parse(text);
  if (root.type != json::Value::Type::kObject) {
    schema_fail("a request must be a JSON object");
  }
  CoverageRequest request;
  DuplicateKeyGuard dup;
  for (const auto& [key, value] : root.object) {
    dup.check(key, "");
    if (key == "model_path") {
      request.model_path = as_string(value, "model_path");
    } else if (key == "model") {
      request.model_source = as_string(value, "model");
    } else if (key == "properties") {
      if (value.type != json::Value::Type::kArray) {
        schema_fail("'properties' must be an array");
      }
      for (const json::Value& e : value.array) {
        request.properties.push_back(parse_property(e));
      }
    } else if (key == "signals") {
      request.signals = as_string_array(value, "signals");
    } else if (key == "options") {
      request.options = parse_options(value);
    } else if (key == "skip_failing") {
      request.skip_failing = as_bool(value, "skip_failing");
    } else if (key == "uncovered_limit") {
      request.uncovered_limit = as_count(value, "uncovered_limit");
    } else if (key == "want_traces") {
      request.want_traces = as_bool(value, "want_traces");
    } else if (key == "deadline_ms") {
      request.deadline_ms = as_count(value, "deadline_ms");
      if (request.deadline_ms == 0) schema_fail("'deadline_ms' must be >= 1");
    } else if (key == "max_live_nodes") {
      request.max_live_nodes = as_count(value, "max_live_nodes");
      if (request.max_live_nodes == 0) {
        schema_fail("'max_live_nodes' must be >= 1");
      }
    } else {
      schema_fail("unknown key '" + key + "'");
    }
  }
  return request;
}

bool parse_request(const std::string& text, CoverageRequest* out,
                   std::string* error) {
  try {
    *out = request_from_json(text);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace covest::engine
