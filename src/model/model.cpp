#include "model/model.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "expr/lexer.h"

namespace covest::model {

using expr::Expr;
using expr::Type;

void Model::add_signal(Signal signal) {
  if (index_.count(signal.name) != 0) {
    throw std::runtime_error("duplicate signal '" + signal.name + "'");
  }
  Expr expansion;
  if (signal.kind == SignalKind::kDefine) {
    for (const std::string& ref : expr::referenced_signals(signal.define)) {
      if (ref == signal.name) {
        throw std::runtime_error("cyclic DEFINE detected while expanding '" +
                                 expr::to_string(signal.define) + "'");
      }
    }
    // Every define it names is declared, so already expanded.
    expansion = expand_defines(signal.define);
    if (expansion.depth() > expr::kMaxSyntaxDepth) {
      throw expr::SyntaxTooDeep("DEFINE '" + signal.name +
                                "' expands deeper than " +
                                std::to_string(expr::kMaxSyntaxDepth) +
                                " levels");
    }
    // Counted before any tree walk: a DAG of a few hundred nodes can
    // stand for a tree too large to walk at all.
    if (expr::tree_size(expansion, kMaxDefineTreeSize + 1) >
        kMaxDefineTreeSize) {
      throw DefineTooLarge("DEFINE '" + signal.name +
                           "' expands to more than " +
                           std::to_string(kMaxDefineTreeSize) + " nodes");
    }
    signal.type = expr::infer_type(expansion, type_resolver());
  }
  index_.emplace(signal.name, signals_.size());
  signals_.push_back(std::move(signal));
  expansions_.push_back(std::move(expansion));
}

void Model::add_init_constraint(Expr constraint) {
  init_constraints_.push_back(std::move(constraint));
}

void Model::add_fairness(Expr constraint) {
  fairness_.push_back(std::move(constraint));
}

void Model::add_dontcare(Expr dontcare) {
  dontcares_.push_back(std::move(dontcare));
}

void Model::set_next(const std::string& name, Expr next) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::runtime_error("set_next: unknown signal '" + name + "'");
  }
  Signal& s = signals_[it->second];
  if (s.kind != SignalKind::kState) {
    throw std::runtime_error("set_next: '" + name + "' is not a state signal");
  }
  s.next = std::move(next);
}

void Model::set_init(const std::string& name, Expr init) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw std::runtime_error("set_init: unknown signal '" + name + "'");
  }
  Signal& s = signals_[it->second];
  if (s.kind != SignalKind::kState) {
    throw std::runtime_error("set_init: '" + name + "' is not a state signal");
  }
  s.init = std::move(init);
}

const Signal* Model::find_signal(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &signals_[it->second];
}

const Signal& Model::signal(const std::string& name) const {
  const Signal* s = find_signal(name);
  if (s == nullptr) {
    throw std::runtime_error("unknown signal '" + name + "'");
  }
  return *s;
}

expr::TypeResolver Model::type_resolver() const {
  return [this](const std::string& name) -> std::optional<Type> {
    const Signal* s = find_signal(name);
    if (s == nullptr) return std::nullopt;
    return s->type;
  };
}

Expr Model::expand_defines(const Expr& e, const std::string* except) const {
  // Every define is its stored expansion, except a define kept symbolic
  // (`except` naming a DEFINE). Defines declared before the kept one
  // cannot name it, so their stored expansions stand; each later one
  // that `e` reaches is re-expanded around it, in declaration order,
  // which puts every define after the ones it names.
  const auto kept_it = except == nullptr ? index_.end() : index_.find(*except);
  const std::size_t kept =
      kept_it != index_.end() && expansions_[kept_it->second].valid()
          ? kept_it->second
          : signals_.size();
  std::vector<std::size_t> later;
  if (kept < signals_.size()) {
    std::unordered_set<std::size_t> seen;
    std::vector<std::string> pending = expr::referenced_signals(e);
    while (!pending.empty()) {
      const auto it = index_.find(pending.back());
      pending.pop_back();
      if (it == index_.end() || it->second <= kept ||
          !expansions_[it->second].valid() ||
          !seen.insert(it->second).second) {
        continue;
      }
      later.push_back(it->second);
      for (std::string& ref :
           expr::referenced_signals(signals_[it->second].define)) {
        pending.push_back(std::move(ref));
      }
    }
    std::sort(later.begin(), later.end());
  }
  std::unordered_map<std::size_t, Expr> redone;
  const auto replacement = [&](const std::string& name) -> const Expr* {
    const auto it = index_.find(name);
    if (it == index_.end() || it->second == kept ||
        !expansions_[it->second].valid()) {
      return nullptr;
    }
    return it->second < kept ? &expansions_[it->second]
                             : &redone.at(it->second);
  };
  for (const std::size_t i : later) {
    redone.emplace(i,
                   expr::substitute_signals(signals_[i].define, replacement));
  }
  return expr::substitute_signals(e, replacement);
}

unsigned Model::state_bit_count() const {
  unsigned bits = 0;
  for (const Signal& s : signals_) {
    if (s.kind == SignalKind::kState) {
      bits += s.type.is_bool ? 1 : s.type.width;
    }
  }
  return bits;
}

void Model::validate() const {
  const expr::TypeResolver types = type_resolver();
  for (const Signal& s : signals_) {
    if (s.kind == SignalKind::kState) {
      if (s.next.valid()) {
        const Type t = expr::infer_type(expand_defines(s.next), types);
        if (t.is_bool != s.type.is_bool ||
            (!t.is_bool && t.width > s.type.width)) {
          throw std::runtime_error("next(" + s.name + ") has type " +
                                   to_string(t) + ", signal has type " +
                                   to_string(s.type));
        }
      }
      if (s.init.valid()) {
        const Type t = expr::infer_type(expand_defines(s.init), types);
        if (t.is_bool != s.type.is_bool ||
            (!t.is_bool && t.width > s.type.width)) {
          throw std::runtime_error("init(" + s.name + ") has type " +
                                   to_string(t) + ", signal has type " +
                                   to_string(s.type));
        }
      }
    }
  }
  for (const Expr& e : init_constraints_) {
    if (!expr::infer_type(expand_defines(e), types).is_bool) {
      throw std::runtime_error("INIT constraint must be boolean: " +
                               to_string(e));
    }
  }
  for (const Expr& e : fairness_) {
    if (!expr::infer_type(expand_defines(e), types).is_bool) {
      throw std::runtime_error("FAIRNESS constraint must be boolean: " +
                               to_string(e));
    }
  }
  for (const Expr& e : dontcares_) {
    if (!expr::infer_type(expand_defines(e), types).is_bool) {
      throw std::runtime_error("DONTCARE must be boolean: " + to_string(e));
    }
  }
  // OBSERVE targets resolve at parse/validate time, not at suite
  // execution: a typo'd signal in a model file is a graceful error line
  // with the model's context, never a mid-run surprise.
  for (const SpecEntry& spec : specs_) {
    for (const std::string& observed : spec.observed) {
      if (!has_signal(observed)) {
        throw std::runtime_error("SPEC observes unknown signal '" + observed +
                                 "'");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ModelBuilder
// ---------------------------------------------------------------------------

Expr ModelBuilder::state_bool(const std::string& name,
                              std::optional<bool> init) {
  Signal s;
  s.name = name;
  s.kind = SignalKind::kState;
  s.type = Type::boolean();
  if (init) s.init = Expr::bool_const(*init);
  model_.add_signal(std::move(s));
  return Expr::var(name);
}

Expr ModelBuilder::state_word(const std::string& name, unsigned width,
                              std::optional<std::uint64_t> init) {
  Signal s;
  s.name = name;
  s.kind = SignalKind::kState;
  s.type = Type::word(width);
  if (init) s.init = Expr::word_const(*init, width);
  model_.add_signal(std::move(s));
  return Expr::var(name);
}

Expr ModelBuilder::input_bool(const std::string& name) {
  Signal s;
  s.name = name;
  s.kind = SignalKind::kInput;
  s.type = Type::boolean();
  model_.add_signal(std::move(s));
  return Expr::var(name);
}

Expr ModelBuilder::input_word(const std::string& name, unsigned width) {
  Signal s;
  s.name = name;
  s.kind = SignalKind::kInput;
  s.type = Type::word(width);
  model_.add_signal(std::move(s));
  return Expr::var(name);
}

Expr ModelBuilder::define(const std::string& name, Expr value) {
  Signal s;
  s.name = name;
  s.kind = SignalKind::kDefine;
  s.define = std::move(value);
  model_.add_signal(std::move(s));  // Infers the define's type.
  return Expr::var(name);
}

void ModelBuilder::spec(std::string ctl_text,
                        std::vector<std::string> observed,
                        std::string comment) {
  SpecEntry entry;
  entry.ctl_text = std::move(ctl_text);
  entry.observed = std::move(observed);
  entry.comment = std::move(comment);
  model_.add_spec(std::move(entry));
}

}  // namespace covest::model
