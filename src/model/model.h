// Circuit models: named signals with next-state and initial-value
// semantics, plus fairness constraints, don't-care sets and property
// annotations.
//
// A model is the textual/programmatic description (this header); it is
// *elaborated* into a symbolic FSM (fsm/symbolic_fsm.h) for model checking
// and coverage estimation, and into an explicit Kripke structure
// (xstate/explicit_model.h) by the reference engine.
//
// The paper (Definition 1) views the circuit as a Mealy machine
// M = <S, T_M, P, S_I>; state signals span S, `next` assignments induce
// T_M, `init` values and INIT constraints induce S_I, and every boolean
// signal or word bit is a candidate atomic proposition / observed signal.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/expr.h"

namespace covest::model {

enum class SignalKind {
  kState,   ///< Latched: has `next` (else free-running) and optional `init`.
  kInput,   ///< Unconstrained primary input (IVAR).
  kDefine,  ///< Named combinational macro.
};

struct Signal {
  std::string name;
  SignalKind kind = SignalKind::kState;
  expr::Type type;
  expr::Expr next;    ///< kState only; invalid => unconstrained next value.
  expr::Expr init;    ///< kState only; invalid => unconstrained initial value.
  expr::Expr define;  ///< kDefine only.
};

/// Largest DEFINE expansion `Model::add_signal` accepts, in tree nodes
/// (`expr::tree_size`). A DEFINE that names an earlier one twice
/// (`DEFINE d1 := d0 & d0;`) expands to a DAG that shares it, but type
/// inference, bit-blasting and evaluation walk the tree, so each such
/// DEFINE doubles their work; past this bound it is refused instead.
inline constexpr std::uint64_t kMaxDefineTreeSize = std::uint64_t{1} << 20;

/// The error a DEFINE past kMaxDefineTreeSize is refused with; the
/// parser locates it at the DEFINE's name.
class DefineTooLarge : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A property line from a model file: raw CTL text plus the observed
/// signals declared for coverage ("SPEC <ctl> [OBSERVE name[, name]*];").
struct SpecEntry {
  std::string ctl_text;
  std::vector<std::string> observed;
  std::string comment;  ///< Optional label for reports.
};

class Model {
 public:
  explicit Model(std::string name = "main") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // -- Construction -----------------------------------------------------------

  /// Declares a signal; throws on duplicate names. A DEFINE may name
  /// only signals declared before it (so DEFINEs never form a cycle):
  /// it is expanded once, here, and its `type` is inferred from that
  /// expansion. Throws for a DEFINE that names itself or an undeclared
  /// signal, `expr::SyntaxTooDeep` for one whose expansion is deeper
  /// than `expr::kMaxSyntaxDepth`, and `DefineTooLarge` for one whose
  /// expansion, read as a tree, has more than `kMaxDefineTreeSize` nodes.
  void add_signal(Signal signal);
  void add_init_constraint(expr::Expr constraint);
  void add_fairness(expr::Expr constraint);
  void add_dontcare(expr::Expr dontcare);
  void add_spec(SpecEntry spec) { specs_.push_back(std::move(spec)); }

  /// Attaches/replaces the next-state function of a state signal.
  void set_next(const std::string& name, expr::Expr next);
  /// Attaches/replaces the initial value of a state signal.
  void set_init(const std::string& name, expr::Expr init);

  // -- Introspection -----------------------------------------------------------

  const std::vector<Signal>& signals() const { return signals_; }
  const Signal* find_signal(const std::string& name) const;
  const Signal& signal(const std::string& name) const;
  bool has_signal(const std::string& name) const {
    return find_signal(name) != nullptr;
  }

  const std::vector<expr::Expr>& init_constraints() const {
    return init_constraints_;
  }
  const std::vector<expr::Expr>& fairness() const { return fairness_; }
  const std::vector<expr::Expr>& dontcares() const { return dontcares_; }
  const std::vector<SpecEntry>& specs() const { return specs_; }

  /// Type resolver over the model's signals (defines included).
  expr::TypeResolver type_resolver() const;

  /// Expands DEFINE references transitively, from the expansions stored
  /// at declaration: linear in the size of `e`. When `except` is
  /// non-null, references to that define are preserved (the coverage
  /// estimator keeps an observed DEFINE signal symbolic so its label can
  /// be flipped); the defines declared after it that `e` reaches are
  /// then re-expanded once each.
  expr::Expr expand_defines(const expr::Expr& e,
                            const std::string* except = nullptr) const;

  /// Total number of latched state bits (word signals count their width).
  unsigned state_bit_count() const;

  /// Checks that every expression in the model is well-typed and that
  /// `next` and `init` types match their signals (DEFINEs are checked as
  /// they are added). Throws `std::runtime_error` with a descriptive
  /// message otherwise.
  void validate() const;

 private:
  std::string name_;
  std::vector<Signal> signals_;
  /// Per signal: a DEFINE's body with every DEFINE reference expanded;
  /// invalid for the other kinds.
  std::vector<expr::Expr> expansions_;
  std::unordered_map<std::string, std::size_t> index_;
  std::vector<expr::Expr> init_constraints_;
  std::vector<expr::Expr> fairness_;
  std::vector<expr::Expr> dontcares_;
  std::vector<SpecEntry> specs_;
};

/// Fluent construction API used by the example programs and the benchmark
/// circuits. Returns `expr::Expr` references so circuits read naturally:
///
///   ModelBuilder b("counter");
///   auto count = b.state_word("count", 3, 0);
///   auto stall = b.input_bool("stall");
///   b.next("count", ite(stall, count, count + b.lit(1, 3)));
class ModelBuilder {
 public:
  explicit ModelBuilder(std::string name = "main") : model_(std::move(name)) {}

  expr::Expr state_bool(const std::string& name,
                        std::optional<bool> init = std::nullopt);
  expr::Expr state_word(const std::string& name, unsigned width,
                        std::optional<std::uint64_t> init = std::nullopt);
  expr::Expr input_bool(const std::string& name);
  expr::Expr input_word(const std::string& name, unsigned width);
  expr::Expr define(const std::string& name, expr::Expr value);

  void next(const std::string& name, expr::Expr e) {
    model_.set_next(name, std::move(e));
  }
  void init_constraint(expr::Expr e) {
    model_.add_init_constraint(std::move(e));
  }
  void fairness(expr::Expr e) { model_.add_fairness(std::move(e)); }
  void dontcare(expr::Expr e) { model_.add_dontcare(std::move(e)); }
  void spec(std::string ctl_text, std::vector<std::string> observed = {},
            std::string comment = {});

  /// Word literal convenience.
  static expr::Expr lit(std::uint64_t value, unsigned width) {
    return expr::Expr::word_const(value, width);
  }

  /// Validates and returns the finished model.
  Model build() {
    model_.validate();
    return std::move(model_);
  }

 private:
  Model model_;
};

}  // namespace covest::model
