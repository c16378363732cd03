// The suite-level engine facade.
//
// The paper's workflow (Section 4.1, Table 2) is suite-shaped: verify
// every SPEC of a model, then report one coverage row per observed
// signal, with uncovered-state samples and traces to the holes. This
// header is the one public entry point for that workflow:
//
//   engine::CoverageRequest req;
//   req.model_path = "examples/models/arbiter.cov";
//   req.want_traces = true;
//   engine::SuiteResult result = engine::Engine().run(req);
//
// A `CoverageRequest` declares the job (model source, property suite,
// observed signals, limits, policies); the `Engine` owns the whole
// parse -> elaborate -> verify -> estimate pipeline — BDD manager, FSM,
// model checker and coverage estimator — and returns a structured
// `SuiteResult` that the CLI, the Table-2 bench harness and the tests
// all render through the same serializers (result_json.h /
// result_text.h).
//
// Callers that re-estimate many suites on one model (the Section-5
// narrative: add properties, re-measure) open a `Session` instead: it
// keeps the checker's memoized satisfaction sets and the estimator's
// fix-point caches warm across runs.
//
// Stopping: a run stops early in one way, through its governor
// (util/governance.h). A cancel (`JobHandle::cancel`, executor.h), an
// expired `deadline_ms` and an exhausted node budget all land at the
// next governor tick — a phase boundary, a property or row, or one
// iteration of any fixpoint — and the run returns the results completed
// so far with the matching `ResultStatus`.
//
// Threads: a `Session` (like the BDD manager it owns) is used by one
// thread at a time; its rows are estimated one after another on the
// thread that calls `run`. Parallelism is across suites — the executor
// (executor.h) runs different jobs on different workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/coverage.h"
#include "core/observed.h"
#include "ctl/checker.h"
#include "ctl/ctl.h"
#include "fsm/symbolic_fsm.h"
#include "model/model.h"

namespace covest {
class RunStopped;
}  // namespace covest

namespace covest::engine {

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// One property of the suite: CTL text (parsed by the engine) or an
/// already-built formula, plus the observed signals it targets.
struct PropertySpec {
  /// Parsed with ctl::parse_ctl when `formula` is invalid.
  std::string ctl_text;
  /// Takes precedence over `ctl_text` when valid.
  ctl::Formula formula;
  /// Signals whose rows this property contributes to; empty means every
  /// requested signal (relevance is still filtered per-atom, so a
  /// property that never mentions a signal contributes nothing to it).
  std::vector<std::string> observe;
  /// Optional label for reports.
  std::string comment;

  static PropertySpec text(std::string ctl,
                           std::vector<std::string> observe = {}) {
    PropertySpec s;
    s.ctl_text = std::move(ctl);
    s.observe = std::move(observe);
    return s;
  }
  static PropertySpec of(ctl::Formula f,
                         std::vector<std::string> observe = {}) {
    PropertySpec s;
    s.formula = std::move(f);
    s.observe = std::move(observe);
    return s;
  }
};

/// Structured final status of a suite run: the machine-readable failure
/// taxonomy the result JSON, the executor and the CLIs all share.
/// `kError` mirrors a non-empty `SuiteResult::error`; the four stop
/// statuses (cancel, deadline, budget, admission) always come with a
/// partial (never corrupt) result.
enum class ResultStatus {
  kOk,
  kCancelled,          ///< `JobHandle::cancel` landed before the run ended.
  kDeadlineExceeded,   ///< `deadline_ms` expired mid-run.
  kResourceExhausted,  ///< The BddManager node budget was hit.
  kAdmissionRejected,  ///< A bounded executor queue refused the job.
  kError,              ///< Structured error (see `SuiteResult::error`).
};

/// JSON/CLI spelling: "ok", "cancelled", "deadline_exceeded",
/// "resource_exhausted", "admission_rejected", "error".
const char* to_string(ResultStatus status) noexcept;

/// The status a governed stop (util/governance.h) ends a run with.
ResultStatus status_of(const covest::RunStopped& stop) noexcept;

/// Declarative description of one suite job.
struct CoverageRequest {
  // -- Model source: exactly one of the three -------------------------------
  /// `.cov` file to parse (see model/model_parser.h).
  std::string model_path;
  /// Inline `.cov` source text; parsed at execution. Serializable (unlike
  /// `model`), so JSON requests can carry the whole model with them.
  /// Takes precedence over `model_path`.
  std::string model_source;
  /// In-memory model; takes precedence over both text sources.
  std::optional<model::Model> model;

  // -- Suite ----------------------------------------------------------------
  /// Properties to verify and cover. Empty means the model's own SPEC
  /// entries (the `.cov` workflow).
  std::vector<PropertySpec> properties;
  /// Signals to report rows for (each expands to all of its bits). Empty
  /// means the union of the suite's OBSERVE clauses, sorted by name.
  std::vector<std::string> signals;

  // -- Policy ---------------------------------------------------------------
  /// Estimator policy. `options.image_strategy` has no JSON field: it
  /// is an in-process switch for parity checks (core/coverage.h).
  core::CoverageOptions options;
  /// When false (default), properties that fail verification are skipped:
  /// they contribute nothing to coverage, matching Definition 3's
  /// precondition M |= f. When true, failing properties stay in the
  /// suite rows (their covered sets are empty anyway).
  bool skip_failing = false;
  /// Uncovered-state samples per signal row.
  std::size_t uncovered_limit = 4;
  /// Compute a shortest input trace to an uncovered state per signal row.
  bool want_traces = false;

  // -- Resource governance ----------------------------------------------------
  /// Wall-clock budget for the whole run in milliseconds (0 = none).
  /// Measured on the monotonic clock from job start (under the
  /// executor, from submission — queue time counts). Expiry stops the
  /// run at the next governor tick — a phase boundary, a property or
  /// row, or a BDD fix-point iteration — and yields the partial result
  /// with `ResultStatus::kDeadlineExceeded`.
  std::uint64_t deadline_ms = 0;
  /// Node budget for this run's BddManager, 0 = unlimited (see
  /// bdd::BddManager::set_max_live_nodes for the exact semantics).
  /// Exhaustion yields `ResultStatus::kResourceExhausted` with the
  /// count and budget recorded in the failing phase's stats.
  std::size_t max_live_nodes = 0;
};

/// A request's suite resolved against its model, with every property
/// parsed: what `Session::run` executes. Built once per job.
struct ResolvedSuite {
  /// The request's own properties, else the model's SPEC entries. Every
  /// `formula` is valid and collapsed (`ctl::collapse_propositional`);
  /// `ctl_text` is kept as given, for reports and the verified-suite key.
  std::vector<PropertySpec> properties;
  /// The signal rows in report order: the request's explicit signals,
  /// else the sorted union of the properties' OBSERVE lists.
  std::vector<std::string> signals;
};

/// Resolves the suite and parses each text property exactly once.
/// Throws std::runtime_error "property '<text>': <parse error>" for the
/// first property that does not parse.
ResolvedSuite resolve_suite(const CoverageRequest& request,
                            const model::Model& model);

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

/// A rendered witness trace (counterexample or path to a coverage hole):
/// per step, the signal values in declaration order.
struct TraceResult {
  using Step = std::vector<std::pair<std::string, std::uint64_t>>;
  std::vector<Step> steps;
  /// Human-readable multi-line form ("step k: sig=val ...").
  std::string text;
};

/// Verification outcome of one suite property.
struct PropertyResult {
  std::string ctl_text;  ///< Canonical rendering of the checked formula.
  std::string comment;
  std::vector<std::string> observe;
  bool holds = false;
  /// Failed and `skip_failing` was off: excluded from coverage.
  bool skipped = false;
  std::optional<TraceResult> counterexample;
  double check_ms = 0.0;
};

/// One Table-2 row: coverage of one observed signal (word signals union
/// their bits) over the verified suite.
struct SignalRow {
  std::string name;
  std::size_t num_properties = 0;  ///< Suite properties mentioning the signal.
  double covered_count = 0.0;      ///< |covered ∩ coverage space|.
  double percent = 0.0;            ///< Definition 4.
  std::vector<std::string> uncovered;  ///< Sampled holes ("sig=val ...").
  std::optional<TraceResult> trace;    ///< Shortest path to a hole.
  double estimate_ms = 0.0;
  /// Live BDD handle of the covered set, for library callers that keep
  /// composing (valid while the Session/Engine's manager is alive).
  /// Invalid in executor results, which are detached.
  bdd::Bdd covered;
};

/// BDD-manager snapshot at the end of a pipeline phase.
struct PhaseStats {
  double ms = 0.0;
  /// Elaborate phase only: the text front end's share of `ms` — reading
  /// and parsing the model plus the suite's one CTL pass. 0 when the
  /// model was leased from the warm cache, and for the other phases.
  double parse_ms = 0.0;
  std::size_t live_nodes = 0;
  std::size_t peak_live_nodes = 0;
  /// Computed-cache hit rate over the manager's lifetime (collections
  /// invalidate the cache's entries but keep its counters).
  double cache_hit_rate = 0.0;
  /// Collections the manager has run so far, automatic or explicit.
  std::size_t gc_runs = 0;
  /// How many times this phase actually executed for the job: 1 when it
  /// ran, 0 when it never ran (errors, early cancellation, or a
  /// warm-cache replay).
  std::size_t passes = 0;
  /// The manager's `max_live_nodes` budget during the run; 0 when
  /// unbudgeted (and then omitted from the JSON stats).
  std::size_t node_budget = 0;
  /// Partitioned-image shape (image/image.h): how many partial
  /// relations the model elaborated into, how many clusters they were
  /// conjoined into, and the partial count of the largest cluster.
  /// Session runs stamp all three on every phase; 0 everywhere for
  /// results that never elaborated (and then omitted from the JSON).
  std::size_t partial_relations = 0;
  std::size_t clusters = 0;
  std::size_t largest_cluster = 0;
};

/// Structured outcome of a whole suite run.
struct SuiteResult {
  /// One-shot `Engine::run` parks its Session here so the `covered` BDD
  /// handles in `signals` outlive the call. Declared first: members are
  /// destroyed in reverse declaration order, and the handles below must
  /// die before their manager. `Session::run` results instead stay valid
  /// for the session's lifetime; executor results are detached (no
  /// `covered` handles, empty `retain`).
  std::shared_ptr<void> retain;

  std::string model_name;
  unsigned state_bits = 0;
  double reachable_states = 0.0;
  double space_count = 0.0;  ///< |coverage space|.

  std::vector<PropertyResult> properties;
  std::vector<SignalRow> signals;

  std::size_t failures = 0;  ///< Properties that failed verification.
  /// Non-empty when the job failed before producing a full result: no
  /// model source, model/CTL parse error, unknown signal... The batch
  /// paths (executor, covest_batch) report errors structurally instead
  /// of throwing; `Engine::run` rethrows for API compatibility.
  std::string error;
  /// Structured status (the taxonomy above). Partial results from a
  /// cancel/deadline/budget/admission stop are well-formed — completed
  /// property and row prefixes are byte-identical to the corresponding
  /// prefix of an unlimited run — just truncated.
  ResultStatus status = ResultStatus::kOk;
  /// Human-readable detail for non-ok statuses ("estimate: deadline of
  /// 50 ms expired", ...). Empty when `status == kOk`.
  std::string status_detail;

  PhaseStats elaborate;  ///< Parse + FSM elaboration (`parse_ms` splits it).
  /// Cold runs: the session's one reachability fixpoint, then model
  /// checking of the suite confined to the reachable states.
  PhaseStats verify;
  /// Coverage space, estimation and hole reporting; no plain
  /// reachability fixpoint (the verify phase computed it).
  PhaseStats estimate;
  double total_ms = 0.0;

  bool all_passed() const { return failures == 0 && error.empty(); }
};

// ---------------------------------------------------------------------------
// Session and Engine
// ---------------------------------------------------------------------------

/// An elaborated model with its checker/estimator state. One session =
/// one BDD manager; repeated `run` calls share memoized satisfaction
/// sets and fix-point caches (the reuse the paper recommends in
/// Section 3).
///
/// Reachability: the first cold verify phase computes reachable(init)
/// once (`ModelChecker::restrict_to_reachable`). The checker then
/// confines every CTL fixpoint to that set (checker.h's care-set
/// contract), the estimator adopts it as its reachability fixpoint when
/// the fair restriction is vacuous, and `SuiteResult::reachable_states`
/// counts it. Results are byte-identical to a full-space checker.
///
/// Verified-suite split: beyond the checker's per-formula memo, the
/// session records the *suite-level* verification artifacts — the
/// PropertyResult list (counterexample traces included) and the failure
/// count — keyed by a structural hash of the resolved suite (raw CTL
/// text, collapsed-formula structural hash, observe lists, comments,
/// `skip_failing`). A repeat `run` whose suite hashes to a stored
/// record skips the verify phase entirely: the cached outcomes are
/// replayed, `SuiteResult::verify.passes` reports 0, and the estimate
/// phase proceeds exactly as on the cold run — byte-identical results
/// (stats aside), since every intermediate is a canonical BDD with exact
/// counts. This is the per-request half of the warm model cache
/// (session_cache.h holds the cross-request half).
class Session {
 public:
  /// Takes the model (move it in; its FSM keeps the one copy).
  /// `max_live_nodes` (0 = unlimited) budgets the session's manager for
  /// its whole life, elaboration included; the constructor throws
  /// covest::ResourceExhausted when elaboration itself exhausts it.
  explicit Session(model::Model model, core::CoverageOptions options = {},
                   std::size_t max_live_nodes = 0);

  const model::Model& model() const { return fsm_.model(); }
  const fsm::SymbolicFsm& fsm() const { return fsm_; }
  ctl::ModelChecker& checker() { return checker_; }
  core::CoverageEstimator& estimator() { return estimator_; }

  /// Runs the suite part of `request` against this session's model (the
  /// request's model source is ignored), on the calling thread — which
  /// must own the session's manager (see
  /// `bdd::BddManager::rebind_to_current_thread`).
  SuiteResult run(const CoverageRequest& request);

  /// Runs an already resolved suite (`resolve_suite` on this session's
  /// model) under `request`'s policy fields; the request's properties
  /// and signals are not consulted. This is the executor's path: the
  /// job resolves and parses once, validates, then runs.
  SuiteResult run(const CoverageRequest& request, const ResolvedSuite& suite);

  /// Cap on recorded verified suites per session: past it the record is
  /// cleared wholesale (the checker's per-formula memo stays, so a
  /// re-verify after a clear is still cheap). Suites per model are few
  /// in practice; this only bounds a pathological client.
  static constexpr std::size_t kMaxVerifiedSuites = 16;

 private:
  /// The suite-level verification artifacts one cold run records and a
  /// warm run replays.
  struct VerifiedSuite {
    std::vector<PropertyResult> properties;
    std::size_t failures = 0;
  };

  SignalRow estimate_row(const CoverageRequest& request,
                         const std::string& name,
                         const std::vector<PropertySpec>& specs,
                         const std::vector<PropertyResult>& outcomes);

  fsm::SymbolicFsm fsm_;
  ctl::ModelChecker checker_;
  core::CoverageEstimator estimator_;
  /// |reachable(init)| is suite-invariant; counted from the checker's
  /// reachable set on the first run that reaches the estimate phase.
  std::optional<double> reachable_count_;
  /// Suite hash -> artifacts of a completed verify phase.
  std::unordered_map<std::uint64_t, VerifiedSuite> verified_;
};

/// The facade: resolves the request's model source and executes the
/// pipeline. Stateless — each `run` elaborates a fresh session; use
/// `open` to keep the session (and its caches) for follow-up suites.
///
/// `run` executes the `engine::Executor`'s job pipeline
/// (`detail::run_job`, executor.h) inline on the calling thread, so the
/// one-shot path and the batch path execute the same code; unlike an
/// executor result, its result keeps the session in `retain`, so the
/// rows' `covered` handles stay composable. Failures of any original
/// exception type surface as the pipeline's structured
/// `SuiteResult::error`, rethrown here as
/// `std::runtime_error` carrying the original message — blocking callers
/// keep exception semantics, batch callers get data. A run that may
/// need cancelling goes through `Executor::submit` and its handle.
class Engine {
 public:
  /// Parses/copies the request's model (no elaboration).
  static model::Model load_model(const CoverageRequest& request);

  /// Elaborates the request's model into a reusable session.
  std::unique_ptr<Session> open(const CoverageRequest& request) const;

  /// One-shot: load, elaborate, verify, estimate, report.
  SuiteResult run(const CoverageRequest& request) const;
};

}  // namespace covest::engine
