// Recursive BDD algorithms: ITE, AND/XOR apply, quantification, relational
// product, composition and renaming — all complement-edge aware.
//
// Complement-bit canonicalization before every cache lookup:
//   * AND orders its (commutative) operands by edge value; OR is derived
//     via De Morgan (`or(f,g) = !and(!f,!g)`) so both share one cache.
//   * XOR strips the complement bits of both operands and re-applies the
//     parity to the result, collapsing xor/xnor into one cache line.
//   * ITE forces a plain `f` (ite(!f,g,h) = ite(f,h,g)) and a plain `g`
//     (ite(f,!g,h) = !ite(f,g,!h)), and routes constant-`g`/`h` triples
//     into the AND/XOR caches.
//   * exists/simplify/compose commute with complement on `f` where valid,
//     and forall is derived (`forall(f,c) = !exists(!f,c)`), so the
//     kOpExists cache serves both quantifiers.
//
// Because the computed cache is *lossy* (a colliding store overwrites an
// entry), every recursion below must be — and is — correct with a cache
// that forgets arbitrarily: a miss recomputes and lands on the same
// canonical edge.
#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bdd/bdd.h"

namespace covest::bdd {

// ---------------------------------------------------------------------------
// Binary apply: AND (OR via De Morgan) and XOR
// ---------------------------------------------------------------------------

NodeIndex BddManager::and_rec(NodeIndex f, NodeIndex g) {
  if (f == kFalseIndex || g == kFalseIndex) return kFalseIndex;
  if (f == kTrueIndex) return g;
  if (g == kTrueIndex) return f;
  if (f == g) return f;
  if (f == edge_not(g)) return kFalseIndex;

  // Commutative: normalize operand order to double cache hits.
  if (f > g) std::swap(f, g);

  NodeIndex cached;
  if (cache_find(kOpAnd, f, g, 0, &cached)) return cached;

  const unsigned lf = level(f), lg = level(g);
  const unsigned top = std::min(lf, lg);
  const Var v = level_to_var_[top];

  const NodeIndex f0 = lf == top ? node_low(f) : f;
  const NodeIndex f1 = lf == top ? node_high(f) : f;
  const NodeIndex g0 = lg == top ? node_low(g) : g;
  const NodeIndex g1 = lg == top ? node_high(g) : g;

  const NodeIndex low = and_rec(f0, g0);
  const NodeIndex high = and_rec(f1, g1);
  const NodeIndex result = make_node(v, low, high);
  cache_store(kOpAnd, f, g, 0, result);
  return result;
}

NodeIndex BddManager::xor_rec(NodeIndex f, NodeIndex g) {
  // xor commutes with complement on either side; strip both bits and
  // re-apply the parity so xor and xnor share cache entries and nodes.
  NodeIndex parity = 0;
  parity ^= f & kComplementBit;
  parity ^= g & kComplementBit;
  f = edge_node(f);
  g = edge_node(g);

  if (f == g) return kFalseIndex ^ parity;
  if (f == kTrueIndex) return edge_not(g) ^ parity;
  if (g == kTrueIndex) return edge_not(f) ^ parity;

  if (f > g) std::swap(f, g);

  NodeIndex cached;
  if (cache_find(kOpXor, f, g, 0, &cached)) return cached ^ parity;

  const unsigned lf = level(f), lg = level(g);
  const unsigned top = std::min(lf, lg);
  const Var v = level_to_var_[top];

  const NodeIndex f0 = lf == top ? node_low(f) : f;
  const NodeIndex f1 = lf == top ? node_high(f) : f;
  const NodeIndex g0 = lg == top ? node_low(g) : g;
  const NodeIndex g1 = lg == top ? node_high(g) : g;

  const NodeIndex low = xor_rec(f0, g0);
  const NodeIndex high = xor_rec(f1, g1);
  const NodeIndex result = make_node(v, low, high);
  cache_store(kOpXor, f, g, 0, result);
  return result ^ parity;
}

Bdd BddManager::apply_and(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  OpGate gate(*this);
  return Bdd(this, and_rec(f.index(), g.index()));
}

Bdd BddManager::apply_or(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  OpGate gate(*this);
  return Bdd(this, or_rec(f.index(), g.index()));
}

Bdd BddManager::apply_xor(const Bdd& f, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  OpGate gate(*this);
  return Bdd(this, xor_rec(f.index(), g.index()));
}

Bdd BddManager::apply_not(const Bdd& f) {
  assert(f.manager() == this);
  // O(1): no recursion, no allocation, no cache traffic.
  ++stats_.o1_negations;
  return Bdd(this, edge_not(f.index()));
}

// ---------------------------------------------------------------------------
// ITE
// ---------------------------------------------------------------------------

NodeIndex BddManager::ite_rec(NodeIndex f, NodeIndex g, NodeIndex h) {
  if (f == kTrueIndex) return g;
  if (f == kFalseIndex) return h;
  if (g == h) return g;
  if (g == kTrueIndex && h == kFalseIndex) return f;
  if (g == kFalseIndex && h == kTrueIndex) return edge_not(f);

  // Collapse branches that repeat (a polarity of) the condition.
  if (g == f) g = kTrueIndex;
  if (g == edge_not(f)) g = kFalseIndex;
  if (h == f) h = kFalseIndex;
  if (h == edge_not(f)) h = kTrueIndex;
  if (g == h) return g;
  if (g == kTrueIndex && h == kFalseIndex) return f;
  if (g == kFalseIndex && h == kTrueIndex) return edge_not(f);

  // Constant-branch triples are plain connectives; route them into the
  // AND/XOR caches instead of burning separate ITE entries.
  if (g == kTrueIndex) return or_rec(f, h);
  if (g == kFalseIndex) return and_rec(edge_not(f), h);
  if (h == kFalseIndex) return and_rec(f, g);
  if (h == kTrueIndex) return edge_not(and_rec(f, edge_not(g)));
  if (g == edge_not(h)) return edge_not(xor_rec(f, g));

  // Canonicalize complement bits: plain f (swap branches), plain g
  // (complement the whole triple).
  if (edge_is_complemented(f)) {
    f = edge_not(f);
    std::swap(g, h);
  }
  NodeIndex out_parity = 0;
  if (edge_is_complemented(g)) {
    g = edge_not(g);
    h = edge_not(h);
    out_parity = kComplementBit;
  }

  NodeIndex cached;
  if (cache_find(kOpIte, f, g, h, &cached)) return cached ^ out_parity;

  const unsigned lf = level(f), lg = level(g), lh = level(h);
  const unsigned top = std::min(lf, std::min(lg, lh));
  const Var v = level_to_var_[top];

  const NodeIndex f0 = lf == top ? node_low(f) : f;
  const NodeIndex f1 = lf == top ? node_high(f) : f;
  const NodeIndex g0 = lg == top ? node_low(g) : g;
  const NodeIndex g1 = lg == top ? node_high(g) : g;
  const NodeIndex h0 = lh == top ? node_low(h) : h;
  const NodeIndex h1 = lh == top ? node_high(h) : h;

  const NodeIndex low = ite_rec(f0, g0, h0);
  const NodeIndex high = ite_rec(f1, g1, h1);
  const NodeIndex result = make_node(v, low, high);
  cache_store(kOpIte, f, g, h, result);
  return result ^ out_parity;
}

Bdd BddManager::apply_ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  assert(f.manager() == this && g.manager() == this && h.manager() == this);
  OpGate gate(*this);
  return Bdd(this, ite_rec(f.index(), g.index(), h.index()));
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

NodeIndex BddManager::exists_rec(NodeIndex f, NodeIndex cube) {
  if (edge_is_terminal(f)) return f;
  // Skip quantified variables above f's top variable: quantifying a
  // variable not in the support is the identity.
  const unsigned lf = level(f);
  while (!edge_is_terminal(cube) && level(cube) < lf) {
    cube = node_at(edge_node(cube)).high;  // Positive cube: high is plain.
  }
  if (edge_is_terminal(cube)) return f;

  NodeIndex cached;
  if (cache_find(kOpExists, f, cube, 0, &cached)) return cached;

  const NodeIndex f0 = node_low(f);
  const NodeIndex f1 = node_high(f);
  NodeIndex result;
  if (level(cube) == lf) {
    const NodeIndex rest = node_at(edge_node(cube)).high;
    const NodeIndex low = exists_rec(f0, rest);
    if (low == kTrueIndex) {
      result = kTrueIndex;  // Early termination: OR with anything is true.
    } else {
      const NodeIndex high = exists_rec(f1, rest);
      result = or_rec(low, high);
    }
  } else {
    const NodeIndex low = exists_rec(f0, cube);
    const NodeIndex high = exists_rec(f1, cube);
    result = make_node(node_var(f), low, high);
  }
  cache_store(kOpExists, f, cube, 0, result);
  return result;
}

Bdd BddManager::exists(const Bdd& f, const Bdd& cube) {
  assert(f.manager() == this && cube.manager() == this);
  OpGate gate(*this);
  return Bdd(this, exists_rec(f.index(), cube.index()));
}

Bdd BddManager::forall(const Bdd& f, const Bdd& cube) {
  assert(f.manager() == this && cube.manager() == this);
  OpGate gate(*this);
  // Duality: forall(f) = !exists(!f); shares the kOpExists cache.
  return Bdd(this, edge_not(exists_rec(edge_not(f.index()), cube.index())));
}

// ---------------------------------------------------------------------------
// Relational product: exists(cube, f & g) in a single recursion
// ---------------------------------------------------------------------------

NodeIndex BddManager::and_exists_rec(NodeIndex f, NodeIndex g, NodeIndex cube) {
  if (f == kFalseIndex || g == kFalseIndex) return kFalseIndex;
  if (f == edge_not(g)) return kFalseIndex;
  if (f == kTrueIndex || f == g) return exists_rec(g, cube);
  if (g == kTrueIndex) return exists_rec(f, cube);
  if (edge_is_terminal(cube)) return and_rec(f, g);

  if (f > g) std::swap(f, g);  // AND is commutative.

  const unsigned lf = level(f), lg = level(g);
  const unsigned top = std::min(lf, lg);
  while (!edge_is_terminal(cube) && level(cube) < top) {
    cube = node_at(edge_node(cube)).high;
  }
  if (edge_is_terminal(cube)) return and_rec(f, g);

  NodeIndex cached;
  if (cache_find(kOpAndExists, f, g, cube, &cached)) return cached;

  const Var v = level_to_var_[top];
  const NodeIndex f0 = lf == top ? node_low(f) : f;
  const NodeIndex f1 = lf == top ? node_high(f) : f;
  const NodeIndex g0 = lg == top ? node_low(g) : g;
  const NodeIndex g1 = lg == top ? node_high(g) : g;

  NodeIndex result;
  if (level(cube) == top) {
    const NodeIndex rest = node_at(edge_node(cube)).high;
    const NodeIndex low = and_exists_rec(f0, g0, rest);
    if (low == kTrueIndex) {
      result = kTrueIndex;  // Early termination: OR with anything is true.
    } else {
      const NodeIndex high = and_exists_rec(f1, g1, rest);
      result = or_rec(low, high);
    }
  } else {
    const NodeIndex low = and_exists_rec(f0, g0, cube);
    const NodeIndex high = and_exists_rec(f1, g1, cube);
    result = make_node(v, low, high);
  }
  cache_store(kOpAndExists, f, g, cube, result);
  return result;
}

Bdd BddManager::and_exists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  assert(f.manager() == this && g.manager() == this && cube.manager() == this);
  OpGate gate(*this);
  return Bdd(this, and_exists_rec(f.index(), g.index(), cube.index()));
}

// ---------------------------------------------------------------------------
// Composition, cofactor and renaming
// ---------------------------------------------------------------------------

NodeIndex BddManager::compose_rec(NodeIndex f, Var v, NodeIndex g,
                                  unsigned v_level) {
  if (edge_is_terminal(f) || level(f) > v_level) return f;

  // Composition commutes with complement on f; memoize on the plain edge.
  const NodeIndex parity = f & kComplementBit;
  f = edge_node(f);

  NodeIndex cached;
  if (cache_find(kOpCompose, f, g, v, &cached)) return cached ^ parity;

  // Copy fields before recursing: make_node may grow the pool.
  const Var fv = node_at(f).var;
  const NodeIndex flow = node_at(f).low;
  const NodeIndex fhigh = node_at(f).high;

  NodeIndex result;
  if (fv == v) {
    // Children of f cannot contain v; splice g in with one ITE.
    result = ite_rec(g, fhigh, flow);
  } else {
    const NodeIndex low = compose_rec(flow, v, g, v_level);
    const NodeIndex high = compose_rec(fhigh, v, g, v_level);
    // Recombine with ITE on f's root variable: g's support may reach
    // above f's root, so make_node alone would violate the ordering.
    const NodeIndex root = make_node(fv, kFalseIndex, kTrueIndex);
    result = ite_rec(root, high, low);
  }
  cache_store(kOpCompose, f, g, v, result);
  return result ^ parity;
}

Bdd BddManager::compose(const Bdd& f, Var v, const Bdd& g) {
  assert(f.manager() == this && g.manager() == this);
  OpGate gate(*this);
  return Bdd(this, compose_rec(f.index(), v, g.index(), var_to_level_[v]));
}

Bdd BddManager::cofactor(const Bdd& f, Var v, bool value) {
  OpGate gate(*this);
  return Bdd(this, compose_rec(f.index(), v,
                               value ? kTrueIndex : kFalseIndex,
                               var_to_level_[v]));
}

NodeIndex BddManager::simplify_rec(NodeIndex f, NodeIndex care) {
  if (edge_is_terminal(f) || care == kTrueIndex) return f;
  assert(care != kFalseIndex && "simplify: empty care set");

  // Restrict commutes with complement on f; memoize on the plain edge.
  const NodeIndex parity = f & kComplementBit;
  f = edge_node(f);

  NodeIndex cached;
  if (cache_find(kOpSimplify, f, care, 0, &cached)) return cached ^ parity;

  const unsigned lf = level(f), lc = level(care);
  NodeIndex result;
  if (lc < lf) {
    // The care set branches on a variable f does not mention: both care
    // cofactors constrain f, so merge them existentially.
    const NodeIndex c0 = node_low(care);
    const NodeIndex c1 = node_high(care);
    result = simplify_rec(f, or_rec(c0, c1));
  } else {
    const NodeIndex c0 = lc == lf ? node_low(care) : care;
    const NodeIndex c1 = lc == lf ? node_high(care) : care;
    const Var fv = node_at(f).var;
    const NodeIndex flow = node_at(f).low;
    const NodeIndex fhigh = node_at(f).high;
    if (c0 == kFalseIndex) {
      result = simplify_rec(fhigh, c1);
    } else if (c1 == kFalseIndex) {
      result = simplify_rec(flow, c0);
    } else {
      const NodeIndex low = simplify_rec(flow, c0);
      const NodeIndex high = simplify_rec(fhigh, c1);
      result = make_node(fv, low, high);
    }
  }
  cache_store(kOpSimplify, f, care, 0, result);
  return result ^ parity;
}

Bdd BddManager::simplify(const Bdd& f, const Bdd& care) {
  assert(f.manager() == this && care.manager() == this);
  assert(!care.is_false());
  OpGate gate(*this);
  return Bdd(this, simplify_rec(f.index(), care.index()));
}

NodeIndex BddManager::permute_rec(NodeIndex f, const std::vector<Var>& perm) {
  if (edge_is_terminal(f)) return f;

  // Renaming commutes with complement: memoize on the plain node, with
  // the result edge in the slot's generation-stamped scratch word.
  const NodeIndex parity = f & kComplementBit;
  const NodeIndex slot = edge_node(f);
  if (scratch_.stamps[slot].gen == scratch_.generation) {
    return scratch_.stamps[slot].scratch ^ parity;
  }

  // Copy fields before recursing: make_node may grow the pool.
  const Var old_var = node_at(slot).var;
  const NodeIndex flow = node_at(slot).low;
  const NodeIndex fhigh = node_at(slot).high;

  const NodeIndex low = permute_rec(flow, perm);
  const NodeIndex high = permute_rec(fhigh, perm);
  const Var new_var = old_var < perm.size() ? perm[old_var] : old_var;
  // A renamed variable that still sits above both renamed children (the
  // interleaved current/next pairs always do) labels the node directly;
  // ITE keeps the result canonical when the renaming crosses levels.
  const unsigned new_level = var_to_level_[new_var];
  NodeIndex result;
  if (new_level < level(low) && new_level < level(high)) {
    result = make_node(new_var, low, high);
  } else {
    const NodeIndex root = make_node(new_var, kFalseIndex, kTrueIndex);
    result = ite_rec(root, high, low);
  }
  // make_node/ite_rec may have grown the pool past the stamp array that
  // next_generation sized; the memoized slots themselves are all roots
  // of the *input* BDD, which predates the traversal.
  scratch_.stamps[slot].gen = scratch_.generation;
  scratch_.stamps[slot].scratch = result;
  return result ^ parity;
}

Bdd BddManager::permute(const Bdd& f, const std::vector<Var>& perm) {
  assert(f.manager() == this);
  OpGate gate(*this);
  next_generation();
  return Bdd(this, permute_rec(f.index(), perm));
}

}  // namespace covest::bdd
