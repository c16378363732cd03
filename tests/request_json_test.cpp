// The CoverageRequest JSON round-trip: canonical-form golden files
// (parse -> serialize -> byte-identical), programmatic field round-trips,
// and the malformed-input rejection table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/request_json.h"
#include "engine/result_json.h"
#include "model/model.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::JsonOptions;
using engine::PropertySpec;

// --------------------------------------------------------------------------
// Programmatic round-trips
// --------------------------------------------------------------------------

CoverageRequest sample_request() {
  CoverageRequest req;
  req.model_path = "examples/models/arbiter.cov";
  req.properties.push_back(
      PropertySpec::text("AG (!(g0 & g1))", {"g0", "g1"}));
  req.properties.back().comment = "mutual exclusion";
  req.properties.push_back(PropertySpec::text("AG (r0 & !r1 -> AX g0)"));
  req.signals = {"g0", "g1"};
  req.options.restrict_to_fair = false;
  req.skip_failing = true;
  req.uncovered_limit = 7;
  req.want_traces = true;
  req.deadline_ms = 1500;
  req.max_live_nodes = 250000;
  return req;
}

void expect_same_request(const CoverageRequest& a, const CoverageRequest& b) {
  EXPECT_EQ(a.model_path, b.model_path);
  EXPECT_EQ(a.model_source, b.model_source);
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (std::size_t i = 0; i < a.properties.size(); ++i) {
    EXPECT_EQ(a.properties[i].ctl_text, b.properties[i].ctl_text);
    EXPECT_EQ(a.properties[i].observe, b.properties[i].observe);
    EXPECT_EQ(a.properties[i].comment, b.properties[i].comment);
  }
  EXPECT_EQ(a.signals, b.signals);
  EXPECT_EQ(a.options.restrict_to_fair, b.options.restrict_to_fair);
  EXPECT_EQ(a.options.exclude_dontcares, b.options.exclude_dontcares);
  EXPECT_EQ(a.skip_failing, b.skip_failing);
  EXPECT_EQ(a.uncovered_limit, b.uncovered_limit);
  EXPECT_EQ(a.want_traces, b.want_traces);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.max_live_nodes, b.max_live_nodes);
}

TEST(RequestJsonTest, FieldsSurviveTheRoundTrip) {
  const CoverageRequest original = sample_request();
  for (const bool pretty : {true, false}) {
    JsonOptions opts;
    opts.pretty = pretty;
    const std::string json = engine::to_json(original, opts);
    std::string err;
    ASSERT_TRUE(engine::validate_json(json, &err)) << err << "\n" << json;
    expect_same_request(engine::request_from_json(json), original);
  }
}

TEST(RequestJsonTest, CompactFormIsOneNdjsonLine) {
  JsonOptions opts;
  opts.pretty = false;
  const std::string json = engine::to_json(sample_request(), opts);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json.find('\n'), json.size() - 1);  // No interior newlines.
}

TEST(RequestJsonTest, SerializeThenParseIsIdempotent) {
  // Canonical form is a fixed point: parse(serialize(r)) serializes to
  // the same bytes.
  const std::string once = engine::to_json(sample_request());
  const std::string twice =
      engine::to_json(engine::request_from_json(once));
  EXPECT_EQ(once, twice);
}

TEST(RequestJsonTest, InlineModelSourceRoundTrips) {
  CoverageRequest req;
  req.model_source =
      "MODULE m;\nVAR x : bool;\nINIT x := false;\nNEXT x := !x;\n"
      "SPEC AG (x | !x) OBSERVE x;\n";
  req.signals = {"x"};
  const std::string json = engine::to_json(req);
  const CoverageRequest back = engine::request_from_json(json);
  EXPECT_EQ(back.model_source, req.model_source);
  EXPECT_EQ(engine::to_json(back), json);
}

TEST(RequestJsonTest, MinimalInputGetsDefaults) {
  const CoverageRequest req = engine::request_from_json(
      R"({"model_path": "m.cov"})");
  EXPECT_EQ(req.model_path, "m.cov");
  EXPECT_TRUE(req.properties.empty());
  EXPECT_TRUE(req.signals.empty());
  EXPECT_TRUE(req.options.restrict_to_fair);
  EXPECT_TRUE(req.options.exclude_dontcares);
  EXPECT_FALSE(req.skip_failing);
  EXPECT_EQ(req.uncovered_limit, 4u);
  EXPECT_FALSE(req.want_traces);
  EXPECT_EQ(req.deadline_ms, 0u);       // Unlimited, spelled by omission.
  EXPECT_EQ(req.max_live_nodes, 0u);
}

TEST(RequestJsonTest, InMemoryModelRefusesToSerialize) {
  CoverageRequest req;
  req.model.emplace();
  EXPECT_THROW(engine::to_json(req), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Malformed-input corpus (tests/golden/fuzz/): one file per case, shared
// by the request parser and the result-side validate_json. Regenerate
// with tests/golden/fuzz/generate_corpus.py.
//
//   bad_json/     rejected by the RFC 8259 grammar itself (truncated
//                 UTF-8, NaN/Inf spellings, depth limit + 1, lone
//                 surrogates...) — both parsers must refuse.
//   bad_request/  grammar-valid JSON the request schema refuses
//                 (duplicate keys incl. nested objects, wrong types,
//                 unknown keys, bad counts/modes).
//   good_json/    must validate (depth exactly at the limit, huge
//                 numbers, multi-byte UTF-8, surrogate pairs).
//   good_request/ must survive both parsers.
// --------------------------------------------------------------------------

std::vector<std::filesystem::path> corpus_files(const char* subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(COVEST_SOURCE_DIR) / "tests" / "golden" / "fuzz" /
      subdir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(FuzzCorpusTest, BadJsonIsRejectedByBothParsers) {
  const auto files = corpus_files("bad_json");
  ASSERT_GE(files.size(), 25u);  // The corpus is present, not an empty dir.
  for (const auto& path : files) {
    const std::string text = read_file(path);
    std::string error;
    EXPECT_FALSE(engine::validate_json(text, &error))
        << "validate_json accepted " << path.filename();
    EXPECT_FALSE(error.empty()) << path.filename();
    CoverageRequest out;
    error.clear();
    EXPECT_FALSE(engine::parse_request(text, &out, &error))
        << "parse_request accepted " << path.filename();
    EXPECT_FALSE(error.empty()) << path.filename();
  }
}

TEST(FuzzCorpusTest, BadRequestsAreValidJsonButRejectedBySchema) {
  const auto files = corpus_files("bad_request");
  ASSERT_GE(files.size(), 20u);
  for (const auto& path : files) {
    const std::string text = read_file(path);
    std::string error;
    EXPECT_TRUE(engine::validate_json(text, &error))
        << path.filename() << ": " << error;
    CoverageRequest out;
    EXPECT_FALSE(engine::parse_request(text, &out, &error))
        << "parse_request accepted " << path.filename();
    EXPECT_FALSE(error.empty()) << path.filename();
  }
}

TEST(FuzzCorpusTest, GoodJsonValidates) {
  const auto files = corpus_files("good_json");
  ASSERT_GE(files.size(), 5u);
  for (const auto& path : files) {
    std::string error;
    EXPECT_TRUE(engine::validate_json(read_file(path), &error))
        << path.filename() << ": " << error;
  }
}

TEST(FuzzCorpusTest, GoodRequestsSurviveBothParsersAndReserialize) {
  const auto files = corpus_files("good_request");
  ASSERT_GE(files.size(), 3u);
  for (const auto& path : files) {
    const std::string text = read_file(path);
    std::string error;
    EXPECT_TRUE(engine::validate_json(text, &error))
        << path.filename() << ": " << error;
    CoverageRequest out;
    ASSERT_TRUE(engine::parse_request(text, &out, &error))
        << path.filename() << ": " << error;
    // Canonical form is a fixed point from any accepted spelling.
    const std::string once = engine::to_json(out);
    EXPECT_EQ(engine::to_json(engine::request_from_json(once)), once)
        << path.filename();
  }
}

TEST(FuzzCorpusTest, GovernanceLimitsRoundTripThroughTheCorpusForm) {
  const CoverageRequest limited = engine::request_from_json(
      read_file(corpus_files("good_request")[0].parent_path() /
                "deadline_and_budget.json"));
  EXPECT_EQ(limited.deadline_ms, 500u);
  EXPECT_EQ(limited.max_live_nodes, 100000u);
  // Canonical form keeps both keys (they are non-default)...
  const std::string json = engine::to_json(limited);
  EXPECT_NE(json.find("\"deadline_ms\": 500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_live_nodes\": 100000"), std::string::npos)
      << json;
  // ...and an unlimited request serializes neither, so pre-governance
  // goldens stay byte-identical.
  const std::string unlimited =
      engine::to_json(engine::request_from_json(R"({"model_path": "m.cov"})"));
  EXPECT_EQ(unlimited.find("deadline_ms"), std::string::npos) << unlimited;
  EXPECT_EQ(unlimited.find("max_live_nodes"), std::string::npos) << unlimited;
}

/// Parses the bad_request corpus file `name` and returns its error.
std::string bad_request_error(const char* name) {
  const std::string text =
      read_file(corpus_files("bad_request")[0].parent_path() / name);
  CoverageRequest out;
  std::string error;
  EXPECT_FALSE(engine::parse_request(text, &out, &error)) << name;
  return error;
}

// Retired fields get the usual unknown-key schema error, never silent
// acceptance.

TEST(FuzzCorpusTest, RemovedParallelApplyFieldIsAnUnknownKey) {
  // No in-operation parallelism field exists.
  const std::string error = bad_request_error("parallel_apply_removed.json");
  EXPECT_NE(error.find("unknown key 'parallel_apply'"), std::string::npos)
      << error;
}

TEST(FuzzCorpusTest, RemovedTableSelectorFieldIsAnUnknownKey) {
  // No shared-table mode exists.
  const std::string error = bad_request_error("table_mode_removed.json");
  EXPECT_NE(error.find("unknown key 'table_mode'"), std::string::npos)
      << error;
}

TEST(FuzzCorpusTest, RemovedShardSelectorFieldIsAnUnknownKey) {
  // No sharding mode exists.
  const std::string error = bad_request_error("shard_mode_removed.json");
  EXPECT_NE(error.find("unknown key 'shard_mode'"), std::string::npos)
      << error;
}

TEST(FuzzCorpusTest, RemovedShardsFieldIsAnUnknownKey) {
  // A suite's rows are estimated one after another on its worker.
  const std::string error = bad_request_error("shards_removed.json");
  EXPECT_NE(error.find("unknown key 'shards'"), std::string::npos) << error;
}

TEST(FuzzCorpusTest, RemovedImageStrategyFieldIsAnUnknownKey) {
  // Every request runs the partitioned image order.
  const std::string error = bad_request_error("image_strategy_removed.json");
  EXPECT_NE(error.find("unknown key 'image_strategy'"), std::string::npos)
      << error;
}

TEST(RequestJsonTest, HostileNestingDepthIsRejectedNotACrash) {
  // One untrusted NDJSON line of brackets must produce a parse error,
  // not a stack overflow of the whole batch process.
  std::string bomb = "{\"signals\": ";
  bomb.append(50000, '[');
  bomb.append(50000, ']');
  bomb += "}";
  CoverageRequest out;
  std::string err;
  EXPECT_FALSE(engine::parse_request(bomb, &out, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_FALSE(engine::validate_json(bomb, &err));
  // Sane nesting still parses.
  EXPECT_TRUE(engine::validate_json("[[[[[[[[[[1]]]]]]]]]]", &err)) << err;
}

TEST(RequestJsonTest, HugeNumbersValidateWithoutThrowing) {
  // RFC 8259 puts no bound on number magnitude: grammar-valid tokens
  // must saturate, not throw out of the non-throwing validator.
  std::string err;
  EXPECT_TRUE(engine::validate_json("[1e999, -1e999, 1e-999]", &err)) << err;
  // But a saturated magnitude is not a valid count for the schema.
  CoverageRequest out;
  EXPECT_FALSE(engine::parse_request(R"({"uncovered_limit": 1e999})", &out,
                                     &err));
}

TEST(RequestJsonTest, SurrogatePairsDecodeLoneSurrogatesDoNot) {
  // json.dumps(ensure_ascii=True) encodes non-BMP characters as
  // surrogate pairs; those are valid input. Lone surrogates are not.
  const CoverageRequest req = engine::request_from_json(
      "{\"model_path\": \"x\\ud83d\\udca5.cov\"}");
  EXPECT_EQ(req.model_path, "x\xf0\x9f\x92\xa5.cov");

  CoverageRequest out;
  std::string err;
  EXPECT_FALSE(engine::parse_request(R"({"model_path": "\ud83d"})", &out,
                                     &err));
  EXPECT_FALSE(engine::parse_request(R"({"model_path": "\udca5"})", &out,
                                     &err));
}

TEST(RequestJsonTest, AcceptsFieldOrderVariations) {
  const CoverageRequest req = engine::request_from_json(R"json({
    "uncovered_limit": 2,
    "signals": ["count"],
    "model_path": "counter.cov",
    "properties": [{"comment": "c", "observe": ["count"],
                    "ctl": "AG (count == 0 -> AX (count == 1))"}]
  })json");
  EXPECT_EQ(req.uncovered_limit, 2u);
  EXPECT_EQ(req.model_path, "counter.cov");
  ASSERT_EQ(req.properties.size(), 1u);
  EXPECT_EQ(req.properties[0].comment, "c");
}

// --------------------------------------------------------------------------
// Golden files: the canonical serialization is a fixed byte contract.
// Regenerate with COVEST_REGEN_GOLDEN=1 ./request_json_test
// --------------------------------------------------------------------------

class GoldenRequestTest : public ::testing::Test {
 protected:
  static std::string golden_path(const std::string& name) {
    return std::string(COVEST_SOURCE_DIR) + "/tests/golden/" + name;
  }

  static void compare_or_regen(const std::string& name,
                               const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("COVEST_REGEN_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str()) << "golden mismatch for " << name;
  }

  /// The round-trip contract: the golden file parses, and re-serializing
  /// the parsed request reproduces the file byte for byte.
  static void check_round_trip(const std::string& name,
                               const CoverageRequest& request) {
    compare_or_regen(name, engine::to_json(request));
    const std::string path = golden_path(name);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream text;
    text << in.rdbuf();
    const CoverageRequest parsed = engine::request_from_json(text.str());
    EXPECT_EQ(engine::to_json(parsed), text.str())
        << "parse -> serialize is not byte-identical for " << name;
  }
};

TEST_F(GoldenRequestTest, PathRequest) {
  CoverageRequest req;
  req.model_path = "examples/models/counter.cov";
  req.want_traces = true;
  check_round_trip("request_counter.json", req);
}

TEST_F(GoldenRequestTest, FullRequestWithInlineModel) {
  CoverageRequest req;
  req.model_source =
      "MODULE gate;\nVAR q : bool;\nIVAR en : bool;\n"
      "INIT q := false;\nNEXT q := en ? !q : q;\n";
  req.properties.push_back(PropertySpec::text("AG (q & !en -> AX q)", {"q"}));
  req.properties.back().comment = "hold";
  req.properties.push_back(PropertySpec::text("AG (!q & !en -> AX !q)", {"q"}));
  req.signals = {"q"};
  req.options.exclude_dontcares = false;
  req.skip_failing = true;
  req.uncovered_limit = 2;
  check_round_trip("request_inline.json", req);
}

}  // namespace
}  // namespace covest
