#include "cli/sinks.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace manywalks::cli {

namespace {

/// Shortest round-trip decimal representation of a double; CSV spells
/// NaN/Inf the to_chars way ("nan", "inf"), where JSON has to write null.
std::string csv_number(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  MW_REQUIRE(ec == std::errc{}, "double formatting failed");
  return std::string(buffer, ptr);
}

void json_cell(std::ostream& os, const ResultCell& cell) {
  struct Visitor {
    std::ostream& os;
    void operator()(std::monostate) const { os << "null"; }
    void operator()(const std::string& text) const {
      os << '"' << json_escaped(text) << '"';
    }
    void operator()(std::uint64_t value) const { os << value; }
    void operator()(const RealCell& value) const {
      os << json_number_repr(value.value);
    }
    void operator()(const MeanPmCell& value) const {
      os << "{\"mean\": " << json_number_repr(value.mean)
         << ", \"half_width\": " << json_number_repr(value.half_width);
      if (value.censored > 0) os << ", \"censored\": " << value.censored;
      os << '}';
    }
    void operator()(bool value) const { os << (value ? "true" : "false"); }
  };
  std::visit(Visitor{os}, cell);
}

void json_string_array(std::ostream& os,
                       const std::vector<std::string>& lines) {
  os << '[';
  for (std::size_t i = 0; i < lines.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"" << json_escaped(lines[i]) << '"';
  }
  if (!lines.empty()) os << "\n  ";
  os << ']';
}

bool csv_needs_quoting(std::string_view text) {
  return text.find_first_of(",\"\r\n") != std::string_view::npos;
}

std::string csv_escape(std::string_view text) {
  if (!csv_needs_quoting(text)) return std::string(text);
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// CSV value of the non-± part of a cell; empty for monostate.
std::string csv_value(const ResultCell& cell) {
  struct Visitor {
    std::string operator()(std::monostate) const { return {}; }
    std::string operator()(const std::string& text) const {
      return csv_escape(text);
    }
    std::string operator()(std::uint64_t value) const {
      return std::to_string(value);
    }
    std::string operator()(const RealCell& value) const {
      return csv_number(value.value);
    }
    std::string operator()(const MeanPmCell& value) const {
      return csv_number(value.mean);
    }
    std::string operator()(bool value) const {
      return value ? "true" : "false";
    }
  };
  return std::visit(Visitor{}, cell);
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  MW_REQUIRE(os.good(), "cannot open " << path.string() << " for writing");
  os << content;
  MW_REQUIRE(os.good(), "write to " << path.string() << " failed");
}

}  // namespace

bool parse_output_format(std::string_view text, OutputFormat* format) {
  if (text == "text") {
    *format = OutputFormat::kText;
  } else if (text == "json") {
    *format = OutputFormat::kJson;
  } else if (text == "csv") {
    *format = OutputFormat::kCsv;
  } else {
    return false;
  }
  return true;
}

void render_text(const ExperimentResult& result, std::ostream& os) {
  for (const std::string& line : result.preamble) os << line << '\n';
  if (!result.preamble.empty()) os << '\n';
  for (const ResultTable& table : result.tables) {
    os << table_text(table) << '\n';
  }
  os << censored_legend(result.censored_cells);
  for (const std::string& line : result.notes) os << line << '\n';
  // Manifest lines start at column 0 on purpose: CI's budget-invariance
  // check diffs the table rows (`grep '^ '`), and manifest values carry
  // wall-clock timings that legitimately differ between runs.
  if (!result.manifest.empty()) {
    os << "run manifest:\n";
    for (const auto& [key, cell] : result.manifest) {
      os << "manifest " << key << " = " << cell_text(cell) << '\n';
    }
  }
  os << "Elapsed: " << format_double(result.elapsed_seconds, 3) << " s\n";
}

std::string render_json(const ExperimentResult& result) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"experiment\": \"" << json_escaped(result.name) << "\",\n";
  os << "  \"claim\": \"" << json_escaped(result.claim) << "\",\n";
  os << "  \"params\": {";
  for (std::size_t i = 0; i < result.params.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \""
       << json_escaped(result.params[i].first) << "\": ";
    json_cell(os, result.params[i].second);
  }
  if (!result.params.empty()) os << "\n  ";
  os << "},\n";
  os << "  \"preamble\": ";
  json_string_array(os, result.preamble);
  os << ",\n  \"tables\": [";
  for (std::size_t t = 0; t < result.tables.size(); ++t) {
    const ResultTable& table = result.tables[t];
    os << (t == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"id\": \"" << json_escaped(table.id()) << "\",\n";
    os << "      \"title\": \"" << json_escaped(table.title()) << "\",\n";
    os << "      \"columns\": [";
    const auto& columns = table.columns();
    for (std::size_t c = 0; c < columns.size(); ++c) {
      os << (c == 0 ? "" : ", ") << '"' << json_escaped(columns[c].name) << '"';
    }
    os << "],\n";
    os << "      \"rows\": [";
    const auto& rows = table.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      os << (r == 0 ? "\n" : ",\n") << "        [";
      for (std::size_t c = 0; c < rows[r].cells.size(); ++c) {
        if (c != 0) os << ", ";
        json_cell(os, rows[r].cells[c]);
      }
      os << ']';
    }
    if (!rows.empty()) os << "\n      ";
    os << "]\n    }";
  }
  if (!result.tables.empty()) os << "\n  ";
  os << "],\n";
  os << "  \"notes\": ";
  json_string_array(os, result.notes);
  os << ",\n";
  os << "  \"censored_cells\": " << result.censored_cells << ",\n";
  // Only present under --metrics: an absent manifest keeps the document
  // byte-identical to what every pre-observability run produced.
  if (!result.manifest.empty()) {
    os << "  \"manifest\": {";
    for (std::size_t i = 0; i < result.manifest.size(); ++i) {
      os << (i == 0 ? "\n" : ",\n") << "    \""
         << json_escaped(result.manifest[i].first) << "\": ";
      json_cell(os, result.manifest[i].second);
    }
    os << "\n  },\n";
  }
  if (result.has_verdict) {
    os << "  \"passed\": " << (result.passed ? "true" : "false") << ",\n";
  }
  os << "  \"elapsed_seconds\": " << json_number_repr(result.elapsed_seconds)
     << "\n}\n";
  return os.str();
}

std::string render_csv(const ResultTable& table) {
  const auto& columns = table.columns();
  const auto& rows = table.rows();

  // A column holding any mean±half cell expands into two CSV columns; a
  // column with any censored estimate additionally grows a count column so
  // lower-bound means are never machine-read as clean ones.
  std::vector<bool> has_half(columns.size(), false);
  std::vector<bool> has_censored(columns.size(), false);
  for (const ResultTable::Row& row : rows) {
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      if (const auto* pm = std::get_if<MeanPmCell>(&row.cells[c])) {
        has_half[c] = true;
        if (pm->censored > 0) has_censored[c] = true;
      }
    }
  }

  std::ostringstream os;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c != 0) os << ',';
    os << csv_escape(columns[c].name);
    if (has_half[c]) os << ',' << csv_escape(columns[c].name + " (±)");
    if (has_censored[c]) {
      os << ',' << csv_escape(columns[c].name + " (censored)");
    }
  }
  os << '\n';
  for (const ResultTable::Row& row : rows) {
    for (std::size_t c = 0; c < columns.size(); ++c) {
      if (c != 0) os << ',';
      const ResultCell* cell = c < row.cells.size() ? &row.cells[c] : nullptr;
      if (cell != nullptr) os << csv_value(*cell);
      const auto* pm =
          cell != nullptr ? std::get_if<MeanPmCell>(cell) : nullptr;
      if (has_half[c]) {
        os << ',';
        if (pm != nullptr) os << csv_number(pm->half_width);
      }
      if (has_censored[c]) {
        os << ',';
        if (pm != nullptr) os << pm->censored;
      }
    }
    os << '\n';
  }
  return os.str();
}

void emit_result(const ExperimentResult& result, const SinkOptions& options,
                 std::ostream& os) {
  switch (options.format) {
    case OutputFormat::kText: {
      if (options.out_dir.empty()) {
        render_text(result, os);
      } else {
        std::ostringstream text;
        render_text(result, text);
        std::filesystem::create_directories(options.out_dir);
        const auto path =
            std::filesystem::path(options.out_dir) / (result.name + ".txt");
        write_file(path, text.str());
        os << "wrote " << path.string() << '\n';
      }
      return;
    }
    case OutputFormat::kJson: {
      const std::string json = render_json(result);
      if (options.out_dir.empty()) {
        os << json;
      } else {
        std::filesystem::create_directories(options.out_dir);
        const auto path =
            std::filesystem::path(options.out_dir) / (result.name + ".json");
        write_file(path, json);
        os << "wrote " << path.string() << '\n';
      }
      return;
    }
    case OutputFormat::kCsv: {
      if (!options.out_dir.empty()) {
        std::filesystem::create_directories(options.out_dir);
      }
      for (const ResultTable& table : result.tables) {
        const std::string csv = render_csv(table);
        if (options.out_dir.empty()) {
          os << "# table " << table.id() << " — " << table.title() << '\n'
             << csv << '\n';
        } else {
          const auto path = std::filesystem::path(options.out_dir) /
                            (result.name + "." + table.id() + ".csv");
          write_file(path, csv);
          os << "wrote " << path.string() << '\n';
        }
      }
      if (!result.manifest.empty()) {
        std::ostringstream manifest;
        manifest << "key,value\n";
        for (const auto& [key, cell] : result.manifest) {
          manifest << csv_escape(key) << ',' << csv_value(cell) << '\n';
        }
        if (options.out_dir.empty()) {
          os << "# manifest\n" << manifest.str() << '\n';
        } else {
          const auto path = std::filesystem::path(options.out_dir) /
                            (result.name + ".manifest.csv");
          write_file(path, manifest.str());
          os << "wrote " << path.string() << '\n';
        }
      }
      return;
    }
  }
}

}  // namespace manywalks::cli
