#include "util/csv.h"

#include <sstream>

#include "util/string_util.h"

namespace iq {

int CsvTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

Result<CsvTable> ParseCsv(const std::string& text) {
  CsvTable table;
  std::istringstream in(text);
  std::string line;
  bool have_header = false;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (StrTrim(line).empty()) continue;
    std::vector<std::string> fields = StrSplit(line, ',');
    if (!have_header) {
      table.header = std::move(fields);
      have_header = true;
      continue;
    }
    if (fields.size() != table.header.size()) {
      return Status::InvalidArgument(
          StrFormat("csv line %d has %zu fields, expected %zu", line_no,
                    fields.size(), table.header.size()));
    }
    table.rows.push_back(std::move(fields));
  }
  if (!have_header) return Status::InvalidArgument("csv has no header row");
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return ParseCsv(*text);
}

std::string WriteCsv(const CsvTable& table) {
  std::string out = StrJoin(table.header, ",");
  out += '\n';
  for (const auto& row : table.rows) {
    out += StrJoin(row, ",");
    out += '\n';
  }
  return out;
}

Status WriteCsvFile(const CsvTable& table, const std::string& path) {
  return WriteStringToFile(path, WriteCsv(table));
}

}  // namespace iq
