// covest_gen — seeded corpus generator for the coverage engine.
//
// Emits a deterministic corpus of random `.cov` models (the same model
// family the randomized differential battery sweeps: three boolean
// state signals, one free input, an occasional DEFINE and fairness
// constraint, 2-4 random ACTL SPEC lines with OBSERVE sets) plus the
// NDJSON files a replay harness needs:
//
//   covest_gen --seeds 50 --out corpus/
//
//   corpus/seed_0000.cov ...    one self-contained model per seed
//   corpus/manifest.ndjson      one JSON CoverageRequest per seed, the
//                               covest_batch wire schema, model_path
//                               relative to the manifest's directory
//   corpus/oracle.ndjson        the canonical (stats-free, compact)
//                               SuiteResult line for each manifest line
//
// Every emitted model round-trips through model::parse_model before
// anything is recorded — the corpus is parseable by construction — and
// each suite is run in-process under both cluster visit orders
// (partitioned, then the chaining reference order); generation aborts
// if the two disagree byte-for-byte, so the corpus doubles as an
// image-order parity battery. The recorded oracle is then a target for
// the batch driver:
//
//   covest_batch corpus/manifest.ndjson | diff - corpus/oracle.ndjson
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ctl/ctl.h"
#include "engine/engine.h"
#include "engine/request_json.h"
#include "engine/result_json.h"
#include "image/image.h"
#include "model/model.h"
#include "model/model_parser.h"
#include "util/cli.h"

namespace {

using namespace covest;
using expr::Expr;

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: covest_gen --seeds N --out DIR [--start S]\n"
      "\n"
      "Writes DIR/seed_NNNN.cov for seeds S .. S+N-1 plus\n"
      "DIR/manifest.ndjson (covest_batch requests) and\n"
      "DIR/oracle.ndjson (their canonical results). Each suite is\n"
      "replayed under the partitioned and the chaining image order\n"
      "before it is recorded; generation fails on any byte difference.\n"
      "\n"
      "options:\n"
      "  --seeds N    corpus size (required, positive)\n"
      "  --out DIR    output directory (required, must exist)\n"
      "  --start S    first seed (default 0)\n");
}

// ---------------------------------------------------------------------------
// Random model + suite (the differential battery's family, emitted as
// text instead of held in memory)
// ---------------------------------------------------------------------------

Expr random_expr(std::mt19937& rng, const std::vector<std::string>& names,
                 int depth) {
  std::uniform_int_distribution<int> pick(0, 7);
  std::uniform_int_distribution<std::size_t> var(0, names.size() - 1);
  if (depth == 0) {
    Expr e = Expr::var(names[var(rng)]);
    return pick(rng) % 2 == 0 ? e : !e;
  }
  switch (pick(rng)) {
    case 0: return !random_expr(rng, names, depth - 1);
    case 1:
      return random_expr(rng, names, depth - 1) &
             random_expr(rng, names, depth - 1);
    case 2:
      return random_expr(rng, names, depth - 1) |
             random_expr(rng, names, depth - 1);
    case 3:
      return random_expr(rng, names, depth - 1) ^
             random_expr(rng, names, depth - 1);
    default: {
      Expr e = Expr::var(names[var(rng)]);
      return pick(rng) % 2 == 0 ? e : !e;
    }
  }
}

/// Random formula from the acceptable ACTL grammar (paper Section 2.1),
/// emitted as fully parenthesized CTL *text* — SPEC bodies re-parse
/// through ctl::parse_ctl, so the rendering must be unambiguous rather
/// than pretty.
std::string random_acceptable(std::mt19937& rng,
                              const std::vector<std::string>& atoms,
                              int depth) {
  std::uniform_int_distribution<int> pick(0, 6);
  const auto atom = [&] {
    return "(" + expr::to_string(random_expr(rng, atoms, 1)) + ")";
  };
  if (depth == 0) return atom();
  switch (pick(rng)) {
    case 0: return atom();
    case 1:
      return "(" + atom() + " -> " +
             random_acceptable(rng, atoms, depth - 1) + ")";
    case 2: return "(AX " + random_acceptable(rng, atoms, depth - 1) + ")";
    case 3: return "(AG " + random_acceptable(rng, atoms, depth - 1) + ")";
    case 4:
      return "(A [" + random_acceptable(rng, atoms, depth - 1) + " U " +
             random_acceptable(rng, atoms, depth - 1) + "])";
    case 5:
      return "(" + random_acceptable(rng, atoms, depth - 1) + " & " +
             random_acceptable(rng, atoms, depth - 1) + ")";
    default: return "(AF " + random_acceptable(rng, atoms, depth - 1) + ")";
  }
}

struct GeneratedCorpusEntry {
  std::string cov_text;                  ///< The emitted model file.
  std::vector<std::string> signals;      ///< Requested row order.
};

GeneratedCorpusEntry generate(std::uint32_t seed) {
  std::mt19937 rng(seed * 2654435761u + 0x9e3779b9u);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> d6(0, 5);

  GeneratedCorpusEntry g;
  std::ostringstream cov;
  char name[32];
  std::snprintf(name, sizeof name, "seed_%04u", seed);
  cov << "-- covest_gen seed " << seed << "\n";
  cov << "MODULE " << name << ";\n";
  cov << "VAR x : bool;\nVAR y : bool;\nVAR z : bool;\n";
  cov << "IVAR in : bool;\n";

  std::vector<std::string> expr_names = {"x", "y", "z", "in"};
  g.signals = {"x", "y", "z", "in"};
  const bool has_define = d6(rng) < 2;
  if (has_define) {
    cov << "DEFINE d := " << expr::to_string(random_expr(rng, expr_names, 1))
        << ";\n";
    g.signals.push_back("d");
  }

  // Mixed initial values: some concrete, some free — the initial set is
  // never empty, so "all initial states satisfy f" is never vacuous.
  cov << "INIT x := false;\n";
  cov << "INIT y := " << (coin(rng) == 0 ? "false" : "true") << ";\n";
  if (coin(rng) == 0) cov << "INIT z := true;\n";  // Else unconstrained.

  for (const char* s : {"x", "y", "z"}) {
    cov << "NEXT " << s << " := "
        << expr::to_string(random_expr(rng, expr_names, 2)) << ";\n";
  }

  if (d6(rng) < 2) {
    const std::string f = expr_names[static_cast<std::size_t>(d6(rng)) %
                                     expr_names.size()];
    cov << "FAIRNESS " << (coin(rng) == 0 ? "" : "!") << f << ";\n";
  }

  std::vector<std::string> atoms = expr_names;
  if (has_define) atoms.push_back("d");
  std::uniform_int_distribution<int> nprops(2, 4);
  const int props = nprops(rng);
  for (int i = 0; i < props; ++i) {
    cov << "SPEC " << random_acceptable(rng, atoms, 3);
    if (coin(rng) == 0) {
      std::vector<std::string> observe;
      for (const std::string& s : g.signals) {
        if (coin(rng) == 0) observe.push_back(s);
      }
      if (!observe.empty()) {
        cov << " OBSERVE ";
        for (std::size_t k = 0; k < observe.size(); ++k) {
          cov << (k == 0 ? "" : ", ") << observe[k];
        }
      }
    }
    cov << ";\n";
  }

  g.cov_text = cov.str();
  return g;
}

/// Compact, stats-free rendering: the byte-identity contract, and what
/// `covest_batch` prints by default.
std::string canonical(const engine::SuiteResult& r) {
  engine::JsonOptions opts;
  opts.pretty = false;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 0;
  std::size_t start = 0;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--seeds") == 0) {
      if (i + 1 >= argc || !util::parse_count(argv[++i], &seeds) ||
          seeds == 0) {
        std::fprintf(stderr, "error: --seeds needs a positive integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--start") == 0) {
      if (i + 1 >= argc || !util::parse_count(argv[++i], &start)) {
        std::fprintf(stderr, "error: --start needs a non-negative integer\n\n");
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(arg, "--out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --out needs a directory\n\n");
        usage(stderr);
        return 2;
      }
      out_dir = argv[++i];
    } else if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n\n", arg);
      usage(stderr);
      return 2;
    }
  }
  if (seeds == 0 || out_dir.empty()) {
    usage(stderr);
    return 2;
  }
  if (out_dir.back() != '/') out_dir += '/';

  std::ofstream manifest(out_dir + "manifest.ndjson");
  std::ofstream oracle(out_dir + "oracle.ndjson");
  if (!manifest.good() || !oracle.good()) {
    std::fprintf(stderr, "error: cannot write into '%s'\n", out_dir.c_str());
    return 2;
  }

  for (std::size_t s = 0; s < seeds; ++s) {
    const auto seed = static_cast<std::uint32_t>(start + s);
    const GeneratedCorpusEntry g = generate(seed);

    // Parseable by construction: round-trip through the real parser
    // before anything lands on disk.
    try {
      model::parse_model(g.cov_text).validate();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: seed %u emitted an unparseable model: %s\n",
                   seed, e.what());
      return 1;
    }

    char file[32];
    std::snprintf(file, sizeof file, "seed_%04u.cov", seed);
    std::ofstream cov(out_dir + file);
    cov << g.cov_text;
    if (!cov.good()) {
      std::fprintf(stderr, "error: cannot write '%s%s'\n", out_dir.c_str(),
                   file);
      return 2;
    }
    cov.close();

    engine::CoverageRequest request;
    request.model_path = file;  // Relative to the manifest's directory.
    request.signals = g.signals;
    request.uncovered_limit = 0;  // Counts and percentages, byte-stable.

    // The oracle line: the same request resolved in-process, replayed
    // under both image orders; any byte of disagreement kills the
    // corpus rather than recording an order-dependent "truth".
    engine::CoverageRequest resolved = request;
    resolved.model_path.clear();
    resolved.model_source = g.cov_text;
    std::string expect;
    for (const image::ImageStrategy strategy :
         {image::ImageStrategy::kPartitioned,
          image::ImageStrategy::kChaining}) {
      resolved.options.image_strategy = strategy;
      const engine::SuiteResult result = engine::Engine().run(resolved);
      if (!result.error.empty()) {
        std::fprintf(stderr, "error: seed %u failed to run: %s\n", seed,
                     result.error.c_str());
        return 1;
      }
      const std::string got = canonical(result);
      if (expect.empty()) {
        expect = got;
      } else if (got != expect) {
        std::fprintf(stderr,
                     "error: seed %u: image order '%s' diverged from the "
                     "partitioned result\n",
                     seed, image::to_string(strategy));
        return 1;
      }
    }

    engine::JsonOptions compact;
    compact.pretty = false;
    manifest << engine::to_json(request, compact);
    oracle << expect;
  }
  manifest.close();
  oracle.close();
  if (!manifest.good() || !oracle.good()) {
    std::fprintf(stderr, "error: write into '%s' failed\n", out_dir.c_str());
    return 2;
  }
  std::printf("wrote %zu models + manifest.ndjson + oracle.ndjson to %s\n",
              seeds, out_dir.c_str());
  return 0;
}
