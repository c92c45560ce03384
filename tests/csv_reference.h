#ifndef ANMAT_TESTS_CSV_REFERENCE_H_
#define ANMAT_TESTS_CSV_REFERENCE_H_

// Test helpers shared by the CSV differential tests: a char-at-a-time
// RFC 4180 state machine kept as the oracle the production scanner is
// compared against, and the reader-vs-oracle check.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "csv/csv_options.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

namespace csv_reference_internal {

/// One position-at-a-time scanner over `text`: RFC 4180 with two liberal
/// extensions, a quote inside an unquoted field is taken literally and a
/// lone CR is a record separator. Stray text after a closing quote is
/// appended to the field.
class Scanner {
 public:
  Scanner(std::string_view text, const CsvOptions& options)
      : text_(text), options_(options) {}

  Result<std::vector<std::vector<std::string>>> ScanAll() {
    std::vector<std::vector<std::string>> records;
    while (pos_ < text_.size()) {
      ANMAT_ASSIGN_OR_RETURN(std::vector<std::string> record, ScanRecord());
      // A trailing newline produces one empty single-field record; drop it.
      if (record.size() == 1 && record[0].empty() && AtEnd()) break;
      records.push_back(std::move(record));
    }
    return records;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }

  Result<std::vector<std::string>> ScanRecord() {
    std::vector<std::string> fields;
    while (true) {
      ANMAT_ASSIGN_OR_RETURN(std::string field, ScanField());
      fields.push_back(std::move(field));
      if (AtEnd()) break;
      const char c = text_[pos_++];
      if (c == options_.delimiter) continue;
      // Record separator: \r\n, \n, or \r.
      if (c == '\r' && !AtEnd() && text_[pos_] == '\n') ++pos_;
      break;
    }
    return fields;
  }

  Result<std::string> ScanField() {
    std::string out;
    if (!AtEnd() && text_[pos_] == options_.quote) {
      ++pos_;
      while (true) {
        if (AtEnd()) {
          return Status::ParseError("unterminated quoted CSV field");
        }
        const char c = text_[pos_++];
        if (c != options_.quote) {
          out += c;
        } else if (!AtEnd() && text_[pos_] == options_.quote) {
          out += c;
          ++pos_;
        } else {
          break;
        }
      }
    }
    while (!AtEnd()) {
      const char c = text_[pos_];
      if (c == options_.delimiter || c == '\n' || c == '\r') break;
      out += c;
      ++pos_;
    }
    return out;
  }

  std::string_view text_;
  const CsvOptions& options_;
  size_t pos_ = 0;
};

}  // namespace csv_reference_internal

/// The oracle's records of `text` (header record included, if any).
inline Result<std::vector<std::vector<std::string>>> ReferenceParseCsvRecords(
    std::string_view text, const CsvOptions& options = CsvOptions()) {
  ANMAT_RETURN_NOT_OK(options.Validate());
  return csv_reference_internal::Scanner(text, options).ScanAll();
}

/// Writes `bytes` verbatim to `path`.
inline void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Asserts that `read` — a reader's result on `text` — is what the oracle
/// gives: the oracle's column names and cells when every record has the
/// first record's width and the names make a schema, and a failure
/// otherwise. Error kinds are not compared: the oracle finds an
/// unterminated quote before any other defect, the reader reports the
/// first defect in input order.
inline void ExpectMatchesReference(const std::string& text,
                                   const CsvOptions& options,
                                   const Result<Relation>& read,
                                   const std::string& label) {
  auto records = ReferenceParseCsvRecords(text, options);
  bool valid = records.ok() && !records->empty();
  std::vector<std::string> names;
  if (valid) {
    const std::vector<std::string>& first = records->front();
    for (size_t i = 0; i < first.size(); ++i) {
      names.push_back(options.has_header ? first[i] : "c");
      if (!options.has_header) names.back() += std::to_string(i);
    }
    for (const auto& record : *records) {
      valid = valid && record.size() == names.size();
    }
    valid = valid && Schema::MakeText(names).ok();
  }
  ASSERT_EQ(read.ok(), valid) << label << ": " << read.status().ToString();
  if (!valid) return;
  const Relation& relation = read.value();
  const size_t first_row = options.has_header ? 1 : 0;
  ASSERT_EQ(relation.num_columns(), names.size()) << label;
  ASSERT_EQ(relation.num_rows(), records->size() - first_row) << label;
  for (size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(relation.schema().column(c).name, names[c]) << label;
    for (RowId r = 0; r < relation.num_rows(); ++r) {
      EXPECT_EQ(relation.cell(r, c), (*records)[first_row + r][c])
          << label << " row " << r << " col " << c;
    }
  }
}

}  // namespace anmat

#endif  // ANMAT_TESTS_CSV_REFERENCE_H_
