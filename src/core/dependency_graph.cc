#include "core/dependency_graph.h"

#include <algorithm>

namespace certfix {

DependencyGraph::DependencyGraph(const RuleSet& rules) : rules_(&rules) {
  size_t n = rules.size();
  out_.resize(n);
  in_.resize(n);
  for (size_t u = 0; u < n; ++u) {
    AttrId b = rules.at(u).rhs();
    for (size_t v = 0; v < n; ++v) {
      if (u == v) continue;
      if (rules.at(v).premise_set().Contains(b)) {
        out_[u].push_back(v);
        in_[v].push_back(u);
      }
    }
  }
}

bool DependencyGraph::HasEdge(size_t u, size_t v) const {
  return std::find(out_[u].begin(), out_[u].end(), v) != out_[u].end();
}

bool DependencyGraph::HasCycle() const {
  size_t n = out_.size();
  std::vector<int> state(n, 0);  // 0 unseen, 1 on stack, 2 done
  std::vector<std::pair<size_t, size_t>> stack;
  for (size_t start = 0; start < n; ++start) {
    if (state[start] != 0) continue;
    stack.emplace_back(start, 0);
    state[start] = 1;
    while (!stack.empty()) {
      auto& [u, i] = stack.back();
      if (i < out_[u].size()) {
        size_t v = out_[u][i++];
        if (state[v] == 1) return true;
        if (state[v] == 0) {
          state[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        state[u] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

std::vector<size_t> DependencyGraph::ReachableFrom(
    const std::vector<size_t>& seeds) const {
  std::vector<bool> seen(out_.size(), false);
  std::vector<size_t> stack;
  for (size_t s : seeds) {
    if (s < seen.size() && !seen[s]) {
      seen[s] = true;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    size_t u = stack.back();
    stack.pop_back();
    for (size_t v : out_[u]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(i);
  }
  return out;
}

std::string DependencyGraph::ToDot() const {
  std::string out = "digraph sigma {\n";
  for (size_t u = 0; u < out_.size(); ++u) {
    out += "  \"" + rules_->at(u).name() + "\";\n";
  }
  for (size_t u = 0; u < out_.size(); ++u) {
    for (size_t v : out_[u]) {
      out += "  \"" + rules_->at(u).name() + "\" -> \"" +
             rules_->at(v).name() + "\";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace certfix
