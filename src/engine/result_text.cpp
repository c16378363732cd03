#include "engine/result_text.h"

#include <cstdio>
#include <sstream>

namespace covest::engine {

namespace {

void indent_lines(std::ostringstream& os, const std::string& block,
                  const char* prefix) {
  std::istringstream in(block);
  std::string line;
  while (std::getline(in, line)) os << prefix << line << "\n";
}

}  // namespace

std::string render_text(const SuiteResult& r, const TextOptions& options) {
  std::ostringstream os;
  char buf[160];

  if (!r.error.empty()) {
    os << "error: " << r.error << "\n";
    return os.str();
  }

  std::snprintf(buf, sizeof buf, "model %s: %u state bits, %.0f reachable states\n",
                r.model_name.c_str(), r.state_bits, r.reachable_states);
  os << buf;

  for (const PropertyResult& p : r.properties) {
    os << "[" << (p.holds ? "PASS" : "FAIL") << "] " << p.ctl_text;
    if (!p.comment.empty()) os << "  -- " << p.comment;
    os << "\n";
    if (!p.holds && p.counterexample) {
      os << "  counterexample:\n";
      indent_lines(os, p.counterexample->text, "");
    }
  }
  bool any_skipped = false;
  for (const PropertyResult& p : r.properties) any_skipped |= p.skipped;
  if (any_skipped) {
    std::snprintf(buf, sizeof buf,
                  "\n%zu SPEC(s) failed; their coverage is skipped",
                  r.failures);
    os << buf;
    if (options.cli_hints) os << " (use --skip-failing to include the rest)";
    os << ".\n";
  }
  if (r.status == ResultStatus::kCancelled) {
    os << "\nrun cancelled; partial results follow.\n";
  }

  std::snprintf(buf, sizeof buf,
                "\ncoverage space: %.0f states "
                "(reachable, fair, excluding DONTCAREs)\n\n",
                r.space_count);
  os << buf;

  std::snprintf(buf, sizeof buf, "%-16s %6s %9s\n", "signal", "#prop", "%cov");
  os << buf;
  for (const SignalRow& s : r.signals) {
    std::snprintf(buf, sizeof buf, "%-16s %6zu %8.2f%%\n", s.name.c_str(),
                  s.num_properties, s.percent);
    os << buf;
    for (const std::string& hole : s.uncovered) {
      os << "    uncovered: " << hole << "\n";
    }
    if (s.trace) {
      os << "    trace:\n";
      indent_lines(os, s.trace->text, "");
    }
  }
  return os.str();
}

}  // namespace covest::engine
