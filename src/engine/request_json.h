// JSON serialization of `CoverageRequest` — the missing half of the
// request/result round-trip. Results have serialized since the facade
// landed (result_json.h); this header lets requests travel the same
// way, so a suite job can be described in a file, shipped over a queue,
// and fanned out by the executor (`covest_batch` reads NDJSON requests
// built from exactly this schema).
//
// Canonical schema (writer field order; all fields optional on input):
//
//   {
//     "model_path": "examples/models/counter.cov",
//     "model": "MODULE m; VAR x : bool; ...",   // inline .cov source
//     "properties": [
//       {"ctl": "AG (x)", "observe": ["x"], "comment": "..."}
//     ],
//     "signals": ["x"],
//     "options": {"restrict_to_fair": true, "exclude_dontcares": true},
//     "skip_failing": false,
//     "uncovered_limit": 4,
//     "want_traces": false,
//     "deadline_ms": 500,               // wall-clock budget (>= 1);
//                                       //     omitted when unlimited
//     "max_live_nodes": 100000          // BDD node budget (>= 1);
//   }                                   //     omitted when unlimited
//
// The writer emits the canonical form: fixed field order, every policy
// field present, empty model sources omitted. Parsing a canonical
// document and re-serializing it is byte-identical (the golden-file
// contract). The parser accepts any field order, rejects unknown keys
// and type mismatches with positional messages, and never accepts
// values the execution layer would misinterpret (negative or fractional
// counts, zero budgets).
#pragma once

#include <string>

#include "engine/engine.h"
#include "engine/result_json.h"  // JsonOptions

namespace covest::engine {

/// Serializes a request in canonical form. `options.pretty = false`
/// yields one NDJSON-ready line (single trailing newline, none inside).
/// A request carrying an in-memory `model` cannot be serialized (there
/// is no source text to write) — that throws std::invalid_argument.
std::string to_json(const CoverageRequest& request,
                    const JsonOptions& options = {});

/// Parses a request document. Throws std::runtime_error with a byte
/// offset on malformed JSON, unknown keys or type mismatches.
CoverageRequest request_from_json(const std::string& text);

/// Non-throwing wrapper: returns false and fills `error` instead.
bool parse_request(const std::string& text, CoverageRequest* out,
                   std::string* error);

}  // namespace covest::engine
