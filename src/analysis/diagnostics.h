/// \file diagnostics.h
/// \brief Typed diagnostics and the RulesetReport emitted by the analyzer.
///
/// The report is the machine-readable contract of `cli analyze --json` and
/// of the engines' analyze_first gate: diagnostic kinds and the JSON field
/// layout are stable, golden-tested surface (tests/golden/analyze/).

#ifndef CERTFIX_ANALYSIS_DIAGNOSTICS_H_
#define CERTFIX_ANALYSIS_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace certfix {

/// \brief What a diagnostic is about (the analyzer's taxonomy).
enum class DiagnosticKind {
  kUnknownAttribute = 0,  ///< rule references an attribute absent from the
                          ///< provided schema (schema drift / typo)
  kTypeMismatch,          ///< pattern constant incompatible with the
                          ///< attribute's declared type
  kRuleConflict,          ///< two rules propose distinct fixes for one
                          ///< attribute on a witness tuple (Sect. 4.1
                          ///< consistency, fronted by CheckUniqueFix)
  kDependencyCycle,       ///< strongly connected rules in the dependency
                          ///< graph (Sect. 5.1); saturation still
                          ///< terminates, but the rules are mutually
                          ///< enabling and order-sensitive
  kDeadRule,              ///< rule that can never fire from the trusted
                          ///< region (target already trusted, or premise
                          ///< outside the schema-level closure)
  kShadowedRule,          ///< rule subsumed by a syntactically more
                          ///< general rule with the same fix
  kCoverageGap,           ///< attribute no rule chain can ever fix from
                          ///< the trusted region (core/coverage view)
  kAnalysisBudget,        ///< conflict search truncated by the probe
                          ///< budget; absence of conflicts is not proof
  kParseError,            ///< ruleset text failed to parse at all
};

/// \brief How severe a diagnostic is. Errors make a ruleset unusable under
/// analyze_first=strict; warnings and notes never block a session.
enum class DiagnosticSeverity { kError = 0, kWarning = 1, kNote = 2 };

const char* DiagnosticKindName(DiagnosticKind kind);
const char* DiagnosticSeverityName(DiagnosticSeverity severity);

/// \brief One analyzer finding.
struct Diagnostic {
  DiagnosticKind kind = DiagnosticKind::kParseError;
  DiagnosticSeverity severity = DiagnosticSeverity::kError;
  /// Names of the rules involved, primary rule first. May be empty for
  /// ruleset-level findings (coverage gaps, parse errors).
  std::vector<std::string> rules;
  /// The R attribute the finding is about, when attribute-specific.
  std::string attr;
  /// Witness rendering for conflicts: the trusted cells of a concrete
  /// tuple on which two rules disagree (e.g. "zip=EH7, city=Lnd").
  std::string witness;
  /// Human-readable one-liner; for conflicts it embeds the witness so a
  /// strict-gate Status carries it verbatim.
  std::string message;

  /// "error[rule-conflict] message" — the rendering used by logs and by
  /// strict-gate Status messages.
  std::string ToString() const;
  /// One JSON object, two-space indented at `indent` levels.
  std::string ToJson(int indent) const;
};

/// \brief Per-rule reachability / fan-out row surfaced in the report,
/// computed from the DependencyGraph and RuleSet::Closure of Z.
struct RuleSummaryRow {
  std::string rule;       ///< rule name
  bool reachable = true;  ///< premise derivable from the trusted region
  size_t fanout = 0;      ///< dependency-graph out-degree
  size_t downstream = 0;  ///< rules transitively enabled by this rule
};

/// \brief Full analyzer output for one (Sigma, Dm, Z) triple.
struct RulesetReport {
  size_t num_rules = 0;
  /// Trusted region Z the analysis ran against (attribute names,
  /// schema order).
  std::vector<std::string> trusted;
  /// Attributes some rule chain can fix from Z (closure minus Z).
  std::vector<std::string> fixable;
  /// Probe tuples checked during the conflict search (0 when the search
  /// was skipped for lack of a master relation).
  size_t probes = 0;
  std::vector<RuleSummaryRow> summary;
  std::vector<Diagnostic> diagnostics;

  size_t errors() const;
  size_t warnings() const;
  /// True when no error-severity diagnostic exists (warnings allowed).
  bool ok() const { return errors() == 0; }
  const Diagnostic* FirstError() const;

  /// Pretty-printed JSON document (stable field order, two-space indent,
  /// trailing newline). The golden-test surface.
  std::string ToJson() const;
  /// Human-readable multi-line report.
  std::string ToText() const;
};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string JsonEscape(const std::string& s);

}  // namespace certfix

#endif  // CERTFIX_ANALYSIS_DIAGNOSTICS_H_
