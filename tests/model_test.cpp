// Tests for the model layer: builder, validation, DEFINE expansion and the
// .cov model-file parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ctl/ctl_parser.h"
#include "engine/engine.h"
#include "expr/expr_parser.h"
#include "model/model.h"
#include "model/model_parser.h"

namespace covest::model {
namespace {

using expr::Expr;
using expr::Type;

// --------------------------------------------------------------------------
// ModelBuilder
// --------------------------------------------------------------------------

TEST(ModelBuilderTest, BuildsCounterModel) {
  ModelBuilder b("counter");
  auto count = b.state_word("count", 3, 0);
  auto stall = b.input_bool("stall");
  b.next("count", ite(stall, count, count + ModelBuilder::lit(1, 3)));
  const Model m = b.build();

  EXPECT_EQ(m.name(), "counter");
  EXPECT_EQ(m.state_bit_count(), 3u);
  EXPECT_EQ(m.signal("count").kind, SignalKind::kState);
  EXPECT_EQ(m.signal("stall").kind, SignalKind::kInput);
  EXPECT_TRUE(m.signal("count").next.valid());
  EXPECT_TRUE(m.signal("count").init.valid());
  EXPECT_FALSE(m.signal("stall").next.valid());
}

TEST(ModelBuilderTest, RejectsDuplicateSignals) {
  ModelBuilder b;
  b.state_bool("x");
  EXPECT_THROW(b.state_bool("x"), std::runtime_error);
}

TEST(ModelBuilderTest, RejectsNextOnInput) {
  ModelBuilder b;
  auto x = b.input_bool("x");
  EXPECT_THROW(b.next("x", !x), std::runtime_error);
}

TEST(ModelBuilderTest, RejectsTypeMismatchedNext) {
  ModelBuilder b;
  b.state_word("w", 3);
  auto flag = b.input_bool("flag");
  b.next("w", flag);  // bool into a word signal.
  EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(ModelBuilderTest, RejectsWiderNext) {
  ModelBuilder b;
  b.state_word("w", 2);
  auto in = b.input_word("in", 4);
  b.next("w", in);
  EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(ModelBuilderTest, DefinesExpandTransitively) {
  ModelBuilder b;
  auto x = b.state_bool("x");
  auto y = b.state_bool("y");
  auto both = b.define("both", x & y);
  b.define("none", !both);
  const Model m = b.build();

  const Expr expanded = m.expand_defines(Expr::var("none"));
  EXPECT_EQ(expr::to_string(expanded), "!(x & y)");
}

TEST(ModelBuilderTest, DefineReferencingUnknownSignalThrows) {
  ModelBuilder b;
  EXPECT_THROW(b.define("bad", Expr::var("ghost")), std::runtime_error);
}

TEST(ModelBuilderTest, StateBitCountSumsWidths) {
  ModelBuilder b;
  b.state_word("a", 4);
  b.state_bool("f");
  b.input_word("in", 7);  // Inputs do not count.
  b.define("d", Expr::var("f"));
  EXPECT_EQ(b.build().state_bit_count(), 5u);
}

// --------------------------------------------------------------------------
// Model-file parser
// --------------------------------------------------------------------------

constexpr const char* kQueueSource = R"(
MODULE queue;
-- pointers and wrap bit
VAR wptr : uint<3>;
VAR rptr : uint<3>;
VAR wrap : bool;
IVAR push : bool;
IVAR stall : bool;
DEFINE equal := wptr == rptr;
DEFINE full := equal & wrap;
INIT wptr == 0;
INIT rptr := 0;
INIT wrap := false;
NEXT wptr := (push & !stall & !full) ? wptr + 1 : wptr;
NEXT wrap := (push & !stall & !full & wptr == 7) ? !wrap : wrap;
FAIRNESS !stall;
DONTCARE wptr > 5;
SPEC AG (full -> AX !push) OBSERVE full;
SPEC AG (wrap | !wrap) OBSERVE wrap, full;
)";

TEST(ModelParserTest, ParsesQueueModel) {
  const Model m = parse_model(kQueueSource);
  EXPECT_EQ(m.name(), "queue");
  EXPECT_EQ(m.state_bit_count(), 7u);
  EXPECT_EQ(m.signal("push").kind, SignalKind::kInput);
  EXPECT_EQ(m.signal("full").kind, SignalKind::kDefine);
  EXPECT_EQ(m.signal("full").type, Type::boolean());
  EXPECT_EQ(m.init_constraints().size(), 1u);
  EXPECT_TRUE(m.signal("rptr").init.valid());
  EXPECT_TRUE(m.signal("wrap").init.valid());
  EXPECT_EQ(m.fairness().size(), 1u);
  EXPECT_EQ(m.dontcares().size(), 1u);
}

TEST(ModelParserTest, SpecsKeepRawTextAndObservedSignals) {
  const Model m = parse_model(kQueueSource);
  ASSERT_EQ(m.specs().size(), 2u);
  EXPECT_EQ(m.specs()[0].observed, (std::vector<std::string>{"full"}));
  EXPECT_EQ(m.specs()[1].observed,
            (std::vector<std::string>{"wrap", "full"}));
  EXPECT_NE(m.specs()[0].ctl_text.find("AG"), std::string::npos);
  EXPECT_NE(m.specs()[0].ctl_text.find("AX"), std::string::npos);
}

TEST(ModelParserTest, RangeTypeSugar) {
  const Model m = parse_model("VAR x : 0..7; VAR y : 0..4;");
  EXPECT_EQ(m.signal("x").type, Type::word(3));
  EXPECT_EQ(m.signal("y").type, Type::word(3));
}

TEST(ModelParserTest, BooleanKeywordAliases) {
  const Model m = parse_model("VAR a : bool; VAR b : boolean;");
  EXPECT_TRUE(m.signal("a").type.is_bool);
  EXPECT_TRUE(m.signal("b").type.is_bool);
}

TEST(ModelParserTest, RejectsUnknownStatement) {
  EXPECT_THROW(parse_model("FROBNICATE x;"), std::runtime_error);
}

TEST(ModelParserTest, RejectsNextForUndeclaredSignal) {
  EXPECT_THROW(parse_model("NEXT ghost := 1;"), std::runtime_error);
}

TEST(ModelParserTest, RejectsIllTypedNext) {
  EXPECT_THROW(parse_model("VAR x : bool; NEXT x := 3;"),
               std::runtime_error);
}

TEST(ModelParserTest, RejectsRangeNotStartingAtZero) {
  EXPECT_THROW(parse_model("VAR x : 1..5;"), std::runtime_error);
}

TEST(ModelParserTest, RejectsZeroWidth) {
  EXPECT_THROW(parse_model("VAR x : uint<0>;"), std::runtime_error);
}

TEST(ModelParserTest, RejectsNonBooleanFairness) {
  EXPECT_THROW(parse_model("VAR x : uint<2>; FAIRNESS x + 1;"),
               std::runtime_error);
}

TEST(ModelParserTest, ErrorsIncludeLineNumbers) {
  try {
    parse_model("VAR x : bool;\nNEXT x := ;\n");
    FAIL() << "expected syntax error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ModelParserTest, ParseFileReportsMissingFile) {
  EXPECT_THROW(parse_model_file("/nonexistent/model.cov"),
               std::runtime_error);
}

TEST(ModelParserTest, RejectsUnknownObserveTarget) {
  // OBSERVE targets resolve at validate time: a typo is a parse-stage
  // error line, not a mid-suite surprise.
  EXPECT_THROW(
      parse_model("VAR x : bool; NEXT x := !x; SPEC AG (x) OBSERVE ghost;"),
      std::runtime_error);
  try {
    parse_model("VAR x : bool; NEXT x := !x; SPEC AG (x) OBSERVE ghost;");
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

/// A model whose DEFINE d<i> is the negation of d<i-1> (d0 := x), so
/// d<i> expands to a tree i + 1 levels deep. One DEFINE per line.
std::string define_chain(std::size_t n) {
  std::string source = "MODULE chain;\nVAR x : bool;\nDEFINE d0 := x;\n";
  for (std::size_t i = 1; i <= n; ++i) {
    source += "DEFINE d" + std::to_string(i) + " := !d" +
              std::to_string(i - 1) + ";\n";
  }
  return source + "NEXT x := d" + std::to_string(n) + ";\n";
}

TEST(ModelParserTest, DefineChainsExpandOnceAndAreDepthBounded) {
  // Each DEFINE is expanded once, at declaration, from the expansions
  // before it; a chain whose expansion passes the syntax-depth bound is
  // refused at the first DEFINE past it, located at its name.
  const auto t0 = std::chrono::steady_clock::now();
  const Model m = parse_model(define_chain(200));
  EXPECT_EQ(m.expand_defines(Expr::var("d200")).depth(), 201u);
  EXPECT_EQ(m.signal("d200").type, Type::boolean());
  try {
    parse_model(define_chain(1000));
    ADD_FAILURE() << "a 1,000-level DEFINE chain was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "syntax error at line 259, column 8: DEFINE 'd256' expands "
                 "deeper than 256 levels (found 'd256')");
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 1000.0);
}

/// A model whose DEFINE d<i> names d<i-1> twice (d0 := x), so d<i>
/// expands to a DAG of i + 2 nodes that stands for a tree of
/// 2^(i+1) - 1, and still means x. One DEFINE per line, from line 6;
/// the SPEC names `spec_atom` (d<n> by default).
std::string doubling_chain(std::size_t n, std::string spec_atom = "") {
  if (spec_atom.empty()) spec_atom = "d" + std::to_string(n);
  std::string source =
      "MODULE doubling;\nVAR x : bool;\nIVAR t : bool;\n"
      "INIT x := false;\nNEXT x := t ? !x : x;\nDEFINE d0 := x;\n";
  for (std::size_t i = 1; i <= n; ++i) {
    const std::string prev = "d" + std::to_string(i - 1);
    source += "DEFINE d" + std::to_string(i) + " := " + prev + " & " + prev +
              ";\n";
  }
  return source + "SPEC AG (" + spec_atom + " & !t -> AX x) OBSERVE x;\n";
}

TEST(ModelParserTest, DoublingDefineChainsAreBoundedByTreeSize) {
  // The expansion's tree size is counted over the DAG before any tree
  // walk runs, so a chain that doubles it per DEFINE is refused at the
  // first DEFINE past the bound (d20: 2^21 - 1 nodes) instead of
  // walking ever larger trees.
  const auto t0 = std::chrono::steady_clock::now();
  try {
    parse_model(doubling_chain(40));
    ADD_FAILURE() << "a 40-define doubling chain was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "syntax error at line 26, column 8: DEFINE 'd20' expands "
                 "to more than 1048576 nodes (found 'd20')");
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 1000.0);

  // A 16-define chain is well inside the bound: same type, same value,
  // same coverage as naming x itself.
  const Model m = parse_model(doubling_chain(16));
  EXPECT_EQ(m.signal("d16").type, Type::boolean());
  const Expr d16 = m.expand_defines(Expr::var("d16"));
  EXPECT_EQ(expr::tree_size(d16, kMaxDefineTreeSize), (1u << 17) - 1);
  for (const std::uint64_t x : {0u, 1u}) {
    EXPECT_EQ(expr::eval(
                  d16, [x](const std::string&) { return x; },
                  m.type_resolver()),
              x);
  }
  engine::CoverageRequest chained;
  chained.model_source = doubling_chain(16);
  engine::CoverageRequest direct;
  direct.model_source = doubling_chain(16, "x");
  const engine::SuiteResult a = engine::Engine().run(chained);
  const engine::SuiteResult b = engine::Engine().run(direct);
  ASSERT_EQ(a.signals.size(), 1u);
  ASSERT_EQ(b.signals.size(), 1u);
  EXPECT_TRUE(a.properties[0].holds);
  EXPECT_EQ(a.signals[0].covered_count, b.signals[0].covered_count);
  EXPECT_EQ(a.signals[0].percent, b.signals[0].percent);
  EXPECT_EQ(a.signals[0].uncovered, b.signals[0].uncovered);
}

TEST(ModelBuilderTest, KeptDefineStaysSymbolicThroughLaterDefines) {
  // The estimator keeps an observed DEFINE symbolic: later defines that
  // name it are re-expanded around it, earlier ones expand as stored.
  ModelBuilder b;
  auto x = b.state_bool("x");
  auto y = b.state_bool("y");
  auto a = b.define("a", x & y);
  auto nb = b.define("b", !a);
  b.define("c", nb | y);
  const Model m = b.build();
  const std::string a_name = "a", b_name = "b", c_name = "c";
  EXPECT_EQ(expr::to_string(m.expand_defines(Expr::var("c"))),
            "!(x & y) | y");
  EXPECT_EQ(expr::to_string(m.expand_defines(Expr::var("c"), &a_name)),
            "!a | y");
  EXPECT_EQ(expr::to_string(m.expand_defines(Expr::var("c"), &b_name)),
            "b | y");
  EXPECT_EQ(expr::to_string(m.expand_defines(Expr::var("b"), &c_name)),
            "!(x & y)");
  EXPECT_EQ(expr::to_string(m.expand_defines(Expr::var("c"), &c_name)), "c");
}

TEST(ModelBuilderTest, DefineNamingItselfIsACycle) {
  Model m;
  Signal x;
  x.name = "x";
  m.add_signal(x);
  Signal d;
  d.name = "d";
  d.kind = SignalKind::kDefine;
  d.define = !Expr::var("d") & Expr::var("x");
  EXPECT_THROW(m.add_signal(d), std::runtime_error);
}

// --------------------------------------------------------------------------
// Malformed-model corpus (tests/golden/fuzz/bad_model, good_model): one
// `.cov` file per case, mirroring the PR-4 JSON corpora. Every bad file
// must be refused with a graceful one-line error (never a crash or an
// accept); every good file must parse — so the set also documents the
// dialect's edge syntax.
// --------------------------------------------------------------------------

std::vector<std::filesystem::path> model_corpus(const char* subdir) {
  const std::filesystem::path dir =
      std::filesystem::path(COVEST_SOURCE_DIR) / "tests" / "golden" / "fuzz" /
      subdir;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cov") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ModelFuzzCorpusTest, BadModelsAreRejectedGracefully) {
  const auto files = model_corpus("bad_model");
  ASSERT_GE(files.size(), 15u);  // The corpus is present, not an empty dir.
  for (const auto& path : files) {
    try {
      (void)parse_model_file(path.string());
      ADD_FAILURE() << "parse_model accepted " << path.filename();
    } catch (const std::runtime_error& e) {
      // Graceful error line: non-empty, and prefixed with the file path
      // (the batch layers print exactly this line per failing job).
      const std::string what = e.what();
      EXPECT_FALSE(what.empty()) << path.filename();
      EXPECT_NE(what.find(path.filename().string()), std::string::npos)
          << path.filename() << ": " << what;
    }
  }
}

TEST(ModelFuzzCorpusTest, GoodModelsParseAndValidate) {
  const auto files = model_corpus("good_model");
  ASSERT_GE(files.size(), 3u);
  for (const auto& path : files) {
    const Model m = parse_model_file(path.string());
    // Parsed AND validated: specs' OBSERVE targets all resolve.
    for (const SpecEntry& spec : m.specs()) {
      for (const std::string& observed : spec.observed) {
        EXPECT_TRUE(m.has_signal(observed))
            << path.filename() << " observes " << observed;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Front-end error bytes. Error lines are reply bytes (covest_batch and
// covest_serve print them verbatim), so every bad_model file and a set
// of malformed CTL properties are pinned byte for byte: message text,
// line, column and the `found '...'` token. Regenerate after an
// intentional message change with
//   COVEST_REGEN_GOLDEN=1 ./model_test
// --------------------------------------------------------------------------

/// Malformed CTL properties covering the parser's failure points:
/// unbalanced brackets, until formulas cut short, trailing input, stray
/// characters, missing operands and the '(' backtracking fallbacks.
const std::vector<std::string>& malformed_ctl() {
  static const std::vector<std::string> cases{
      "AG (p",
      "AG p)",
      "AG ((p -> AX q)",
      "A [p U q",
      "A [p q]",
      "A [p U",
      "A [p U q] )",
      "E [",
      "A p U q",
      "p @ q",
      "AG (p -> AX #q)",
      "AX",
      "AG AF",
      "!",
      "p &",
      "p -> ",
      "p <-> <-> q",
      "p q",
      "U p",
      "AG [p]",
      "(AG p) == q",
      "(p ? q)",
      "ite(p, q)",
      "x[",
      "x[3",
      "x[y]",
      "3 +",
      "",
      "AG (p ->\n  AX q",
      "AG (p &\n\n   (q | )",
  };
  return cases;
}

/// Escapes newlines so every case stays on one golden line.
std::string one_line(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// "<label>\t<error>" for one input, or "<accepted>" when it parses.
template <typename Parse>
std::string golden_line(const std::string& label, Parse parse) {
  std::string what = "<accepted>";
  try {
    parse();
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  return one_line(label) + "\t" + one_line(what) + "\n";
}

std::string front_end_errors() {
  std::string out;
  for (const auto& path : model_corpus("bad_model")) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream source;
    source << in.rdbuf();
    const std::string name = path.filename().string();
    out += golden_line("model " + name, [&] {
      (void)parse_model_source(source.str(), name);
    });
  }
  for (const std::string& text : malformed_ctl()) {
    out += golden_line("ctl " + text, [&] { (void)ctl::parse_ctl(text); });
  }
  return out;
}

TEST(FrontEndErrorGoldenTest, ErrorBytesMatchTheGolden) {
  const std::string actual = front_end_errors();
  const std::string path =
      std::string(COVEST_SOURCE_DIR) + "/tests/golden/front_end_errors.txt";
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
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace covest::model
