#include "stats/data_table.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace dynreg::stats {

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Cell Cell::str(std::string s) {
  Cell c;
  c.kind = Kind::kText;
  c.text = std::move(s);
  return c;
}

Cell Cell::num(double v) {
  Cell c;
  c.kind = Kind::kNumber;
  c.number = v;
  return c;
}

Cell Cell::num(double v, int precision) {
  Cell c = num(v);
  c.precision = precision;
  return c;
}

std::string Cell::display() const {
  if (kind == Kind::kText) return text;
  if (precision >= 0) return fmt(number, precision);
  return JsonWriter::format_double(number);
}

DataTable::DataTable(std::vector<std::string> columns) : columns_(std::move(columns)) {}

void DataTable::add_row(std::vector<Cell> row) {
  assert(row.size() <= columns_.size());
  row.resize(columns_.size());
  rows_.push_back(std::move(row));
}

std::string DataTable::to_text() const {
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    std::vector<std::string>& line = cells.emplace_back();
    for (std::size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].display());
      widths[c] = std::max(widths[c], line.back().size());
    }
  }

  auto emit_row = [&widths](std::string& out, const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out += '\n';
  };

  std::string out;
  emit_row(out, columns_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(rule, '-');
  out += '\n';
  for (const auto& line : cells) emit_row(out, line);
  return out;
}

namespace {

std::string csv_field(const std::string& raw) {
  if (raw.find_first_of(",\"\n\r") == std::string::npos) return raw;
  std::string quoted = "\"";
  for (const char c : raw) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string DataTable::to_csv() const {
  std::string out;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ',';
    out += csv_field(columns_[i]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      const auto& c = row[i];
      out += c.kind == Cell::Kind::kNumber ? JsonWriter::format_double(c.number)
                                           : csv_field(c.text);
    }
    out += '\n';
  }
  return out;
}

void DataTable::append_json(JsonWriter& w) const {
  w.key("columns");
  w.begin_array();
  for (const auto& c : columns_) w.value(c);
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& row : rows_) {
    w.begin_array();
    for (const auto& c : row) {
      if (c.kind == Cell::Kind::kNumber) {
        w.value(c.number);
      } else {
        w.value(c.text);
      }
    }
    w.end_array();
  }
  w.end_array();
}

}  // namespace dynreg::stats
