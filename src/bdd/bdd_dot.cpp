// Graphviz DOT export for debugging and documentation.
//
// Complement edges are drawn with an odot arrowhead (the CUDD
// convention); the single terminal renders as the box "1" (named t1).
// A plaintext root stub shows the polarity of the exported edge itself.
#include <ostream>
#include <string>
#include <vector>

#include "bdd/bdd.h"

namespace covest::bdd {

void BddManager::write_dot(std::ostream& os, const Bdd& f,
                           const std::string& label) {
  OpGate gate(*this, /*allow_gc=*/false);
  os << "digraph bdd {\n";
  os << "  label=\"" << label << "\";\n";
  os << "  node [shape=circle];\n";
  os << "  t1 [shape=box, label=\"1\"];\n";

  auto node_name = [](NodeIndex slot) {
    if (slot == 0) return std::string("t1");
    return "n" + std::to_string(slot);
  };
  auto edge_attrs = [](NodeIndex e, bool dashed) {
    std::string attrs;
    if (dashed) attrs += "style=dashed";
    if (edge_is_complemented(e)) {
      if (!attrs.empty()) attrs += ", ";
      attrs += "arrowhead=odot";
    }
    return attrs.empty() ? std::string() : " [" + attrs + "]";
  };

  os << "  root [shape=plaintext, label=\"" << label << "\"];\n";
  os << "  root -> " << node_name(edge_node(f.index()))
     << edge_attrs(f.index(), false) << ";\n";

  // Generation-stamped DFS over plain slots; no per-call visited sets.
  Scratch& sc = scratch_;
  next_generation();
  sc.work_stack.clear();
  sc.work_stack.push_back(edge_node(f.index()));
  while (!sc.work_stack.empty()) {
    const NodeIndex slot = sc.work_stack.back();
    sc.work_stack.pop_back();
    if (slot == 0 || sc.stamps[slot].gen == sc.generation) continue;
    sc.stamps[slot].gen = sc.generation;
    const NodeIndex low = node_at(slot).low;
    const NodeIndex high = node_at(slot).high;
    os << "  " << node_name(slot) << " [label=\""
       << var_names_[node_at(slot).var] << "\"];\n";
    os << "  " << node_name(slot) << " -> " << node_name(edge_node(low))
       << edge_attrs(low, true) << ";\n";
    os << "  " << node_name(slot) << " -> " << node_name(edge_node(high))
       << edge_attrs(high, false) << ";\n";
    sc.work_stack.push_back(edge_node(low));
    sc.work_stack.push_back(edge_node(high));
  }
  os << "}\n";
}

}  // namespace covest::bdd
