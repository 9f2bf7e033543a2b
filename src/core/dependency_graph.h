/// \file dependency_graph.h
/// \brief Dependency graph of a rule set (Sect. 5.1, Fig. 4).

#ifndef CERTFIX_CORE_DEPENDENCY_GRAPH_H_
#define CERTFIX_CORE_DEPENDENCY_GRAPH_H_

#include <string>
#include <vector>

#include "rules/rule_set.h"

namespace certfix {

/// \brief Directed graph over rules: edge (u, v) when rhs(phi_u) appears in
/// lhs(phi_v) or in the pattern attributes of phi_v — i.e. applying phi_u
/// may enable phi_v, so phi_u is applied first.
///
/// Computed once per Sigma and reused across all input tuples (Sect. 5.1).
class DependencyGraph {
 public:
  explicit DependencyGraph(const RuleSet& rules);

  size_t num_nodes() const { return out_.size(); }
  /// Successors of node u: rules whose premises mention rhs(phi_u).
  const std::vector<size_t>& Successors(size_t u) const { return out_[u]; }
  /// Predecessors of node v.
  const std::vector<size_t>& Predecessors(size_t v) const { return in_[v]; }

  bool HasEdge(size_t u, size_t v) const;

  /// True if the graph has a directed cycle (rules may feed each other;
  /// legal, but interesting to detect for diagnostics).
  bool HasCycle() const;

  /// Transitive closure over successor edges from `seeds` (seeds
  /// included), ascending. If a seed rule's firing changes, only rules in
  /// this closure can fire differently downstream — the rule-level
  /// invalidated region of a change (analysis/diagnostics).
  std::vector<size_t> ReachableFrom(const std::vector<size_t>& seeds) const;

  /// Graphviz dot rendering for documentation and debugging.
  std::string ToDot() const;

  const RuleSet& rules() const { return *rules_; }

 private:
  const RuleSet* rules_;
  std::vector<std::vector<size_t>> out_;
  std::vector<std::vector<size_t>> in_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_DEPENDENCY_GRAPH_H_
