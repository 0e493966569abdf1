#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <sstream>

#include "graph/generators.hpp"
#include "theory/bounds.hpp"
#include "util/check.hpp"

namespace manywalks {

std::string cell_text(const ResultCell& cell) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "-"; }
    std::string operator()(const std::string& text) const { return text; }
    std::string operator()(std::uint64_t value) const {
      return format_count(value);
    }
    std::string operator()(const RealCell& value) const {
      return format_double(value.value, value.sig);
    }
    std::string operator()(const MeanPmCell& value) const {
      std::string text = format_mean_pm(value.mean, value.half_width, value.sig);
      if (value.censored > 0) text += "†";  // lower bound: censored trials
      return text;
    }
    std::string operator()(bool value) const {
      return value ? "true" : "false";
    }
  };
  return std::visit(Visitor{}, cell);
}

ResultTable& ResultTable::add_column(std::string name, bool left) {
  MW_REQUIRE(rows_.empty(), "declare all columns before adding rows");
  columns_.push_back(Column{std::move(name), left});
  return *this;
}

ResultTable& ResultTable::begin_row() {
  MW_REQUIRE(!columns_.empty(), "declare columns before rows");
  MW_REQUIRE(rows_.empty() || rows_.back().cells.size() == columns_.size(),
             "previous row incomplete: " << rows_.back().cells.size() << "/"
                                         << columns_.size() << " cells");
  rows_.push_back(Row{{}, pending_rule_});
  pending_rule_ = false;
  return *this;
}

ResultTable& ResultTable::rule() {
  pending_rule_ = true;
  return *this;
}

ResultTable& ResultTable::cell(ResultCell cell) {
  MW_REQUIRE(!rows_.empty(), "begin_row before adding cells");
  MW_REQUIRE(rows_.back().cells.size() < columns_.size(),
             "row already has " << columns_.size() << " cells");
  rows_.back().cells.push_back(std::move(cell));
  return *this;
}

ResultTable& ResultTable::text(std::string value) {
  return cell(ResultCell{std::move(value)});
}

ResultTable& ResultTable::count(std::uint64_t value) {
  return cell(ResultCell{value});
}

ResultTable& ResultTable::real(double value, int sig) {
  return cell(ResultCell{RealCell{value, sig}});
}

ResultTable& ResultTable::mean_pm(double mean, double half_width, int sig,
                                  std::uint64_t censored) {
  return cell(ResultCell{MeanPmCell{mean, half_width, sig, censored}});
}

ResultTable& ResultTable::mean_pm(const McResult& result, int sig) {
  return mean_pm(result.ci.mean, result.ci.half_width, sig, result.censored);
}

ResultTable& ResultTable::mean_pm(const SpeedupEstimate& estimate, int sig) {
  return mean_pm(estimate.speedup, estimate.half_width, sig,
                 estimate.censored);
}

ResultTable& ResultTable::blank() { return cell(ResultCell{}); }

std::uint64_t count_censored_cells(const ResultTable& table) {
  std::uint64_t censored_cells = 0;
  for (const ResultTable::Row& row : table.rows()) {
    for (const ResultCell& cell : row.cells) {
      if (const auto* pm = std::get_if<MeanPmCell>(&cell)) {
        if (pm->censored > 0) ++censored_cells;
      }
    }
  }
  return censored_cells;
}

std::uint64_t count_censored_cells(const ExperimentResult& result) {
  std::uint64_t censored_cells = 0;
  for (const ResultTable& table : result.tables) {
    censored_cells += count_censored_cells(table);
  }
  return censored_cells;
}

std::string censored_legend(std::uint64_t censored_cells) {
  if (censored_cells == 0) return {};
  return "WARNING: " + std::to_string(censored_cells) +
         " estimate(s) marked † include step-cap-censored trials; their "
         "means are lower bounds.\n";
}

namespace {

// Width in display columns; counts UTF-8 code points (exact for ASCII and
// single-width symbols such as "±", "†", "²").
std::size_t display_width(const std::string& s) {
  std::size_t width = 0;
  for (char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if ((c & 0xC0) != 0x80) ++width;  // skip UTF-8 continuation bytes
  }
  return width;
}

void append_padded(std::string& out, const std::string& text, std::size_t width,
                   bool left) {
  const std::size_t w = display_width(text);
  const std::size_t pad = width > w ? width - w : 0;
  if (!left) out.append(pad, ' ');
  out += text;
  if (left) out.append(pad, ' ');
}

}  // namespace

std::string table_text(const ResultTable& table) {
  const std::vector<ResultTable::Column>& columns = table.columns();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(table.rows().size());
  std::vector<std::size_t> widths(columns.size());
  for (std::size_t c = 0; c < columns.size(); ++c)
    widths[c] = display_width(columns[c].name);
  for (const ResultTable::Row& row : table.rows()) {
    std::vector<std::string>& texts = cells.emplace_back();
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      texts.push_back(cell_text(row.cells[c]));
      widths[c] = std::max(widths[c], display_width(texts[c]));
    }
  }

  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  total += columns.empty() ? 0 : 3 * (columns.size() - 1);

  std::string out;
  if (!table.title().empty()) {
    out += table.title();
    out += '\n';
  }
  const std::string hrule(total, '-');
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c) out += " | ";
    append_padded(out, columns[c].name, widths[c], columns[c].left);
  }
  out += '\n';
  out += hrule;
  out += '\n';
  for (std::size_t r = 0; r < cells.size(); ++r) {
    if (table.rows()[r].rule_before) {
      out += hrule;
      out += '\n';
    }
    // Only the last row can be short; its missing cells pad as blanks.
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c) out += " | ";
      append_padded(out, c < cells[r].size() ? cells[r][c] : std::string(),
                    widths[c], columns[c].left);
    }
    out += '\n';
  }
  return out;
}

namespace {

/// Pool tasks joined on every exit from the scope that submitted them,
/// unwinding included: the tasks read and write the caller's locals, so
/// those must not be freed under a running task. join() rethrows the first
/// failed task's own exception, in submission order.
class JoinedTasks {
 public:
  JoinedTasks() = default;
  JoinedTasks(const JoinedTasks&) = delete;
  JoinedTasks& operator=(const JoinedTasks&) = delete;
  ~JoinedTasks() {
    for (std::future<void>& task : tasks_) {
      if (task.valid()) task.wait();
    }
  }

  void submit(ThreadPool& pool, std::function<void()> body) {
    // If pool.submit throws, the packaged task dies unrun and its future
    // turns ready with broken_promise, so the destructor cannot hang.
    auto task = std::make_shared<std::packaged_task<void()>>(std::move(body));
    tasks_.push_back(task->get_future());
    pool.submit([task] { (*task)(); });
  }

  void join() {
    for (std::future<void>& task : tasks_) task.get();
  }

 private:
  std::vector<std::future<void>> tasks_;
};

}  // namespace

std::vector<Table1Row> run_table1_rows(
    std::span<const FamilyInstance> instances, std::span<const unsigned> ks,
    const ExperimentOptions& options, ThreadPool& pool) {
  McOptions profile_mc = options.mc;
  profile_mc.seed = mix64(options.seed ^ 0x7ab1e1ULL);
  McOptions speedup_mc = options.mc;
  speedup_mc.seed = mix64(options.seed ^ 0x5eedcafeULL);
  const auto exact_h_max = [&](const FamilyInstance& instance) {
    return h_max_solved_exactly(instance.graph, options.hmax_exact_limit);
  };

  // The oracle chains. Each is serial on purpose: an exact h_max solve
  // keeps 2 n^2 doubles live, and one chain holds one factor at a time
  // where a task per family would hold up to seven. Neither may use the
  // pool (see ThreadPool::submit); a sampled h_max is Monte-Carlo, so it
  // stays with the estimates below. Each h_max slot has one writer, and
  // both vectors are declared before `chains`, so they outlive it.
  std::vector<HmaxEstimate> h_max(instances.size());
  std::vector<MixingMeasurement> mixing(instances.size());
  JoinedTasks chains;
  chains.submit(pool, [&] {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      if (!exact_h_max(instances[i])) continue;
      h_max[i] = measure_h_max(instances[i].graph, profile_mc,
                               options.hmax_exact_limit);
    }
  });
  chains.submit(pool, [&] {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      mixing[i] = measure_mixing_time(instances[i].graph,
                                      instances[i].needs_lazy_mixing,
                                      options.mixing_cap);
    }
  });

  std::vector<Table1Row> rows(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const FamilyInstance& instance = instances[i];
    Table1Row& row = rows[i];
    row.name = instance.name;
    row.n = instance.graph.num_vertices();
    row.m = instance.graph.num_edges();
    row.theory = instance.theory;
    row.profile.cover = estimate_cover_time(instance.graph, instance.start,
                                            profile_mc, options.cover, &pool);
    if (!exact_h_max(instance)) {
      h_max[i] = measure_h_max(instance.graph, profile_mc,
                               options.hmax_exact_limit, &pool);
    }
    row.speedups = estimate_speedup_curve(instance.graph, instance.start, ks,
                                          speedup_mc, options.cover, &pool);
  }

  chains.join();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    GraphProfile& profile = rows[i].profile;
    profile.h_max = h_max[i];
    profile.mixing = mixing[i];
    profile.gap = cover_hitting_gap(profile.cover.ci.mean, profile.h_max.value);
  }
  return rows;
}

ResultTable make_table1_result_table(std::span<const Table1Row> rows,
                                     std::span<const unsigned> ks) {
  ResultTable table("table1",
                    "Table 1 — measured cover/hitting/mixing times and "
                    "speed-ups (paper orders in parentheses)");
  table.add_column("graph family", /*left=*/true)
      .add_column("n")
      .add_column("cover C")
      .add_column("C theory")
      .add_column("h_max")
      .add_column("h theory")
      .add_column("t_mix")
      .add_column("gap C/h");
  for (unsigned k : ks) table.add_column("S^" + std::to_string(k));
  table.add_column("speed-up (paper)", /*left=*/true);

  for (const Table1Row& row : rows) {
    table.begin_row();
    table.text(row.name);
    table.count(row.n);
    table.mean_pm(row.profile.cover);
    table.text(format_double(row.theory.cover) + " (" +
               row.theory.cover_formula + ")");
    if (row.profile.h_max.exact) {
      table.real(row.profile.h_max.value);
    } else {
      table.text(format_mean_pm(row.profile.h_max.value,
                                row.profile.h_max.half_width) +
                 "*");
    }
    table.text(format_double(row.theory.h_max) + " (" +
               row.theory.hitting_formula + ")");
    {
      std::ostringstream os;
      if (!row.profile.mixing.converged) {
        os << "> " << format_count(row.profile.mixing.time);
      } else {
        os << format_count(row.profile.mixing.time);
      }
      if (row.profile.mixing.laziness > 0.0) os << " (lazy)";
      table.text(os.str());
    }
    table.real(row.profile.gap);
    for (const SpeedupEstimate& s : row.speedups) {
      table.mean_pm(s);
    }
    table.text(row.theory.speedup_regime);
  }
  return table;
}

SpeedupCurveResult run_speedup_curve(const FamilyInstance& instance,
                                     std::span<const unsigned> ks,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool) {
  SpeedupCurveResult result;
  result.name = instance.name;
  result.n = instance.graph.num_vertices();
  result.start = instance.start;
  McOptions mc = options.mc;
  mc.seed = mix64(options.seed ^ 0xc0de5eedULL);
  result.points = estimate_speedup_curve(instance.graph, instance.start, ks,
                                         mc, options.cover, pool);
  if (!result.points.empty()) result.single = result.points.front().single;
  return result;
}

BarbellResult run_barbell_experiment(std::span<const Vertex> ns, double c_k,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool) {
  MW_REQUIRE(c_k > 0.0, "c_k must be positive");
  BarbellResult result;
  for (Vertex n : ns) {
    FamilyInstance instance =
        make_family_instance(GraphFamily::kBarbell, n, options.seed);
    const Vertex actual_n = instance.graph.num_vertices();
    BarbellPoint point;
    point.n = actual_n;
    point.k = static_cast<unsigned>(std::max(
        2.0, std::ceil(c_k * std::log(static_cast<double>(actual_n)))));

    McOptions mc = options.mc;
    mc.seed = mix64(options.seed ^ (0xbabe11ULL + actual_n));
    point.single = estimate_cover_time(instance.graph, instance.start, mc,
                                       options.cover, pool);
    mc.seed = mix64(options.seed ^ (0xbabe22ULL + actual_n));
    point.multi = estimate_k_cover_time(instance.graph, instance.start,
                                        point.k, mc, options.cover, pool);
    const double nn = static_cast<double>(actual_n);
    point.single_over_n2 = point.single.ci.mean / (nn * nn);
    point.multi_over_n = point.multi.ci.mean / nn;
    point.speedup = point.single.ci.mean / point.multi.ci.mean;
    result.points.push_back(std::move(point));
  }
  return result;
}

ResultTable make_barbell_result_table(const BarbellResult& result) {
  ResultTable table("barbell",
                    "Barbell B_n from the center (Thm 7 / Fig 1): C = Θ(n²) "
                    "vs C^k = O(n) at k = Θ(log n)");
  table.add_column("n")
      .add_column("k")
      .add_column("C (1 walk)")
      .add_column("C/n²")
      .add_column("C^k")
      .add_column("C^k/n")
      .add_column("speed-up");
  for (const BarbellPoint& p : result.points) {
    table.begin_row();
    table.count(p.n);
    table.count(p.k);
    table.mean_pm(p.single);
    table.real(p.single_over_n2, 3);
    table.mean_pm(p.multi);
    table.real(p.multi_over_n, 3);
    table.real(p.speedup, 3);
  }
  return table;
}

}  // namespace manywalks
