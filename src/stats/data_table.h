// Typed tabular results, and the one text-table renderer.
//
// Experiments and the CLI build DataTables (cells keep their numeric
// identity instead of being pre-formatted strings), and one table renders
// three ways:
//   - to_text(): the fixed-width console table, using each cell's display
//     precision;
//   - to_csv(): RFC-4180-style CSV with full-fidelity numbers;
//   - append_json(): rows as arrays of typed values on a JsonWriter.
#pragma once

#include <string>
#include <vector>

#include "stats/json_writer.h"

namespace dynreg::stats {

/// Formats v with fixed `precision` decimals (precision 0: no point).
std::string fmt(double v, int precision);

/// One table cell: either text or a number. Numbers carry an optional
/// display precision used only for the fixed-width text rendering; CSV and
/// JSON always emit the full value (shortest round-trip form).
struct Cell {
  enum class Kind { kText, kNumber };

  Kind kind = Kind::kText;
  std::string text;
  double number = 0.0;
  int precision = -1;  // display decimals for to_text(); -1 = shortest form

  static Cell str(std::string s);
  /// Number displayed in shortest round-trip form.
  static Cell num(double v);
  /// Number displayed with fixed `precision` decimals in text tables.
  static Cell num(double v, int precision);

  /// The text-table rendering of this cell.
  std::string display() const;
};

class DataTable {
 public:
  explicit DataTable(std::vector<std::string> columns);

  /// Appends a row. A row shorter than the columns is padded with empty
  /// text cells; a longer one is a bug.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<std::vector<Cell>>& rows() const { return rows_; }

  /// Fixed-width console rendering: the header, a dashed rule, then the
  /// rows, columns padded to the widest cell and separated by two spaces.
  std::string to_text() const;

  /// CSV rendering: a header row then data rows; fields containing commas,
  /// quotes, or newlines are quoted with internal quotes doubled.
  std::string to_csv() const;

  /// Emits {"columns": [...], "rows": [[...], ...]} members into the
  /// currently open JSON object.
  void append_json(JsonWriter& w) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace dynreg::stats
