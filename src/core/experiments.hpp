// Experiment runners shared by the bench binaries and integration tests.
// Each runner returns a structured result; render_* turns it into the
// paper-style text table.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/analyzer.hpp"
#include "core/families.hpp"
#include "mc/estimators.hpp"
#include "util/table.hpp"

namespace manywalks {

// --- structured results ------------------------------------------------------
//
// Every experiment driver returns an ExperimentResult: typed tables plus the
// surrounding prose. Cells keep raw values (not formatted strings) so the
// same result renders as the paper-style text table, as CSV, or as JSON.

/// A real-valued cell; `sig` is the significant-digit count used by the
/// text renderer (format_double).
struct RealCell {
  double value = 0.0;
  int sig = 4;
};

/// A "mean ± half-width" cell (confidence-interval estimates). `censored`
/// counts the step-cap-truncated trials behind the estimate: when nonzero
/// the mean is a lower bound, the text renderer marks the cell with "†",
/// JSON adds a "censored" key, and CSV grows a "(censored)" column.
struct MeanPmCell {
  double mean = 0.0;
  double half_width = 0.0;
  int sig = 4;
  std::uint64_t censored = 0;
};

/// One table cell: empty (renders "-"), verbatim text, an exact count, a
/// real, a mean±half-width estimate, or a boolean (JSON true/false).
using ResultCell =
    std::variant<std::monostate, std::string, std::uint64_t, RealCell,
                 MeanPmCell, bool>;

/// Renders a cell exactly as the legacy text tables did (format_count /
/// format_double / format_mean_pm; empty cells as "-").
std::string cell_text(const ResultCell& cell);

class ResultTable {
 public:
  struct Column {
    std::string name;
    bool left = false;  ///< left-aligned (labels); numbers are right-aligned
  };
  struct Row {
    std::vector<ResultCell> cells;
    bool rule_before = false;
  };

  ResultTable() = default;
  ResultTable(std::string id, std::string title)
      : id_(std::move(id)), title_(std::move(title)) {}

  ResultTable& add_column(std::string name, bool left = false);
  ResultTable& begin_row();
  /// Inserts a horizontal rule before the next row (group separators).
  ResultTable& rule();

  ResultTable& text(std::string value);
  ResultTable& count(std::uint64_t value);
  ResultTable& real(double value, int sig = 4);
  ResultTable& mean_pm(double mean, double half_width, int sig = 4,
                       std::uint64_t censored = 0);
  /// Carries result.censored into the cell, so a capped estimate can never
  /// be rendered as a clean one.
  ResultTable& mean_pm(const McResult& result, int sig = 4);
  /// Speed-up cell: carries the censored counts of both sides of the ratio.
  ResultTable& mean_pm(const SpeedupEstimate& estimate, int sig = 3);
  ResultTable& blank();

  const std::string& id() const noexcept { return id_; }
  const std::string& title() const noexcept { return title_; }
  const std::vector<Column>& columns() const noexcept { return columns_; }
  const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  ResultTable& cell(ResultCell cell);

  std::string id_;     ///< machine name (CSV file suffix, JSON key)
  std::string title_;  ///< human title (text table heading)
  std::vector<Column> columns_;
  std::vector<Row> rows_;
  bool pending_rule_ = false;
};

/// The structured outcome of one registered experiment run.
struct ExperimentResult {
  std::string name;   ///< registry name, e.g. "fig_cycle_speedup"
  std::string claim;  ///< paper claim reproduced, e.g. "Theorem 6 (§5)"
  /// Resolved parameters actually used, in display order (seed, n, ...).
  std::vector<std::pair<std::string, ResultCell>> params;
  std::vector<std::string> preamble;  ///< prose printed before the tables
  std::vector<ResultTable> tables;
  std::vector<std::string> notes;  ///< the paper-claim commentary afterwards
  bool has_verdict = false;  ///< experiment checks a rigorous inequality
  bool passed = true;        ///< verdict (true when has_verdict is false)
  /// Number of reported estimates (MeanPm cells) built from at least one
  /// step-cap-censored trial; stamped by the registry after the runner
  /// returns, rendered by every sink (JSON key, text warning).
  std::uint64_t censored_cells = 0;
  double elapsed_seconds = 0.0;
  /// Run manifest (`--metrics`): wall/CPU time, resolved parallelism, and
  /// the final metric snapshot as ordered key/cell pairs. Filled by the CLI
  /// driver, never by runners; empty means every sink's output is
  /// byte-identical to an unobserved run.
  std::vector<std::pair<std::string, ResultCell>> manifest;
};

/// Counts the MeanPm cells flagged censored across all of the result's
/// tables (the value stamped into ExperimentResult::censored_cells).
std::uint64_t count_censored_cells(const ExperimentResult& result);

/// Converts a structured table into the legacy fixed-width text table.
TextTable to_text_table(const ResultTable& table);

struct ExperimentOptions {
  std::uint64_t seed = 7;
  McOptions mc;
  CoverOptions cover;
  std::uint64_t hmax_exact_limit = 1200;
  std::uint64_t mixing_cap = 400'000;
  unsigned threads = 0;  ///< workers for the shared pool (0 = hardware)
};

// --- Table 1 ---------------------------------------------------------------

struct Table1Row {
  std::string name;
  Vertex n = 0;
  std::uint64_t m = 0;
  GraphProfile profile;
  std::vector<SpeedupEstimate> speedups;  ///< measured at the requested ks
  TheoryProfile theory;
};

/// Measures one Table-1 row: Ĉ, h_max, t_m, and S^k for each k in `ks`.
Table1Row run_table1_row(const FamilyInstance& instance,
                         std::span<const unsigned> ks,
                         const ExperimentOptions& options,
                         ThreadPool* pool = nullptr);

/// Table 1 as a structured table; render_table1 is to_text_table of this,
/// so the CLI sinks and the legacy text rendering share one layout.
ResultTable make_table1_result_table(std::span<const Table1Row> rows,
                                     std::span<const unsigned> ks);

TextTable render_table1(std::span<const Table1Row> rows,
                        std::span<const unsigned> ks);

// --- generic speed-up curve (Thms 6, 8, 18) ---------------------------------

struct SpeedupCurveResult {
  std::string name;
  Vertex n = 0;
  Vertex start = 0;
  McResult single;  ///< Ĉ baseline
  std::vector<SpeedupEstimate> points;
};

SpeedupCurveResult run_speedup_curve(const FamilyInstance& instance,
                                     std::span<const unsigned> ks,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool = nullptr);

/// Renders k, Ĉ^k, S^k plus a per-point reference column ("k", "ln k", ...)
/// computed by `reference` (may be empty).
TextTable render_speedup_curve(const SpeedupCurveResult& result,
                               const std::string& reference_header,
                               const std::vector<double>& reference_values);

// --- barbell (Figure 1 / Thm 7) ---------------------------------------------

struct BarbellPoint {
  Vertex n = 0;
  unsigned k = 0;            ///< Θ(log n) walks
  McResult single;           ///< Ĉ_{v_c}
  McResult multi;            ///< Ĉ^k_{v_c}
  double single_over_n2 = 0; ///< Ĉ / n^2 (should be ~const: Θ(n^2))
  double multi_over_n = 0;   ///< Ĉ^k / n (should be ~const: O(n))
  double speedup = 0;
};

struct BarbellResult {
  std::vector<BarbellPoint> points;
};

/// Thm 7: sweeps n, runs k = ceil(c_k · ln n) walks from the barbell
/// center, and verifies C = Θ(n^2) vs C^k = O(n).
BarbellResult run_barbell_experiment(std::span<const Vertex> ns, double c_k,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool = nullptr);

/// The barbell sweep as a structured table; render_barbell is
/// to_text_table of this.
ResultTable make_barbell_result_table(const BarbellResult& result);

TextTable render_barbell(const BarbellResult& result);

}  // namespace manywalks
