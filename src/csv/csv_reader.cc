#include "csv/csv_reader.h"

#include <cstring>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/mmap_file.h"
#include "util/simd.h"

namespace anmat {

namespace {

/// RFC 4180 record scanner with two liberal extensions: a quote inside an
/// unquoted field is taken literally, and a lone CR is a record separator.
/// Yields fields as `string_view`s into the input text, skipping runs of
/// ordinary bytes with the SIMD/SWAR structural-byte kernel. Only quoted
/// fields that actually need unescaping (doubled quotes, stray trailing
/// text) materialize bytes — into `arena`, so their views are as durable
/// as the input buffer.
class ZeroCopyScanner {
 public:
  ZeroCopyScanner(std::string_view text, const CsvOptions& options,
                  Arena* arena)
      : text_(text), options_(options), arena_(arena) {}

  bool AtEnd() const { return pos_ >= text_.size(); }

  /// Scans one record into `*fields` (cleared first). Call only when
  /// `!AtEnd()`.
  Status ScanRecord(std::vector<std::string_view>* fields) {
    fields->clear();
    while (true) {
      std::string_view field;
      ANMAT_ASSIGN_OR_RETURN(field, ScanField());
      fields->push_back(field);
      if (AtEnd()) break;
      char c = text_[pos_];
      if (c == options_.delimiter) {
        ++pos_;
        continue;
      }
      if (c == '\r') {
        ++pos_;
        if (!AtEnd() && text_[pos_] == '\n') ++pos_;
        break;
      }
      if (c == '\n') {
        ++pos_;
        break;
      }
      return Status::Internal("CSV scanner desynchronized at offset " +
                              std::to_string(pos_));
    }
    return Status::OK();
  }

 private:
  Result<std::string_view> ScanField() {
    if (!AtEnd() && text_[pos_] == options_.quote) {
      return ScanQuotedField();
    }
    const size_t start = pos_;
    // One SIMD scan to the next structural byte replaces the per-char
    // loop; the quote character is NOT structural inside an unquoted
    // field (a stray quote is taken literally), so only three bytes stop
    // the scan.
    pos_ += simd::FindStructural(text_.data() + pos_, text_.size() - pos_,
                                 options_.delimiter, '\n', '\r', '\r');
    return text_.substr(start, pos_ - start);
  }

  Result<std::string_view> ScanQuotedField() {
    ++pos_;  // opening quote
    const size_t content_start = pos_;
    // Fast path: find the closing quote in one memchr sweep. Falls back to
    // the unescaping loop on a doubled quote.
    size_t scan = pos_;
    while (true) {
      const void* q = std::memchr(text_.data() + scan, options_.quote,
                                  text_.size() - scan);
      if (q == nullptr) {
        pos_ = text_.size();
        return Status::ParseError(
            "unterminated quoted CSV field starting before offset " +
            std::to_string(pos_));
      }
      const size_t qpos = static_cast<size_t>(static_cast<const char*>(q) -
                                              text_.data());
      if (qpos + 1 < text_.size() && text_[qpos + 1] == options_.quote) {
        // Doubled quote: the field needs unescaping; materialize.
        return ScanQuotedFieldSlow(content_start);
      }
      // Closing quote. Check for stray text before the next structural
      // byte (liberal acceptance, appended to the field).
      pos_ = qpos + 1;
      const size_t stray =
          simd::FindStructural(text_.data() + pos_, text_.size() - pos_,
                               options_.delimiter, '\n', '\r', '\r');
      if (stray == 0) {
        return text_.substr(content_start, qpos - content_start);
      }
      std::string out(text_.substr(content_start, qpos - content_start));
      out.append(text_.substr(pos_, stray));
      pos_ += stray;
      return arena_->Intern(out);
    }
  }

  /// The unescaping loop, restarted at the field's content; interns the
  /// result.
  Result<std::string_view> ScanQuotedFieldSlow(size_t content_start) {
    pos_ = content_start;
    std::string out;
    while (true) {
      if (AtEnd()) {
        return Status::ParseError(
            "unterminated quoted CSV field starting before offset " +
            std::to_string(pos_));
      }
      char c = text_[pos_++];
      if (c == options_.quote) {
        if (!AtEnd() && text_[pos_] == options_.quote) {
          out += options_.quote;
          ++pos_;
        } else {
          break;
        }
      } else {
        out += c;
      }
    }
    while (!AtEnd()) {
      char c = text_[pos_];
      if (c == options_.delimiter || c == '\n' || c == '\r') break;
      out += c;
      ++pos_;
    }
    return arena_->Intern(out);
  }

  std::string_view text_;
  const CsvOptions& options_;
  Arena* arena_;
  size_t pos_ = 0;
};

/// Scans the first record into `*record`; ParseError when there is none.
Status ScanFirstRecord(ZeroCopyScanner& scanner,
                       std::vector<std::string_view>* record) {
  if (!scanner.AtEnd()) {
    ANMAT_RETURN_NOT_OK(scanner.ScanRecord(record));
    // A lone trailing newline scans as one empty single-field record.
    if (record->size() != 1 || !(*record)[0].empty() || !scanner.AtEnd()) {
      return Status::OK();
    }
  }
  return Status::ParseError("CSV input contains no records");
}

/// The schema the first record gives: with a header its cells name the
/// columns, otherwise the columns are named c0, c1, ....
Result<Schema> SchemaOf(const std::vector<std::string_view>& first,
                        const CsvOptions& options) {
  std::vector<std::string> names;
  for (size_t i = 0; i < first.size(); ++i) {
    if (options.has_header) {
      names.emplace_back(first[i]);
    } else {
      names.emplace_back("c");
      names.back() += std::to_string(i);
    }
  }
  return Schema::MakeText(names);
}

/// Parses `text`, whose bytes `owner` keeps alive. The relation's arena
/// adopts `owner`, so cells are views into `text`.
Result<Relation> ParseCsv(std::shared_ptr<const void> owner,
                          std::string_view text, const CsvOptions& options) {
  ANMAT_RETURN_NOT_OK(options.Validate());
  // Cells that need unescaping are interned here; the relation's arena
  // adopts this arena too.
  auto escapes = std::make_shared<Arena>();
  ZeroCopyScanner scanner(text, options, escapes.get());
  std::vector<std::string_view> record;
  ANMAT_RETURN_NOT_OK(ScanFirstRecord(scanner, &record));
  ANMAT_ASSIGN_OR_RETURN(Schema schema, SchemaOf(record, options));
  const size_t width = record.size();
  RelationBuilder builder(std::move(schema));
  builder.relation().arena().AdoptBuffer(std::move(owner));
  builder.relation().arena().AdoptBuffer(std::move(escapes));
  if (!options.has_header) ANMAT_RETURN_NOT_OK(builder.AddRowViews(record));
  // Records are numbered from 0, the header included.
  for (size_t index = 1; !scanner.AtEnd(); ++index) {
    ANMAT_RETURN_NOT_OK(scanner.ScanRecord(&record));
    if (record.size() == 1 && record[0].empty() && scanner.AtEnd()) break;
    if (record.size() != width) {
      return Status::ParseError(
          "CSV record " + std::to_string(index) + " has " +
          std::to_string(record.size()) + " fields, expected " +
          std::to_string(width));
    }
    ANMAT_RETURN_NOT_OK(builder.AddRowViews(record));
  }
  return builder.Build();
}

}  // namespace

Result<Relation> ReadCsvString(std::string_view text,
                               const CsvOptions& options) {
  auto copy = std::make_shared<const std::string>(text);
  const std::string_view view = *copy;
  return ParseCsv(std::move(copy), view, options);
}

Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  ANMAT_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  auto shared = std::move(file).Share();
  const std::string_view view = shared->view();
  return ParseCsv(std::move(shared), view, options);
}

Result<Schema> ReadCsvSchema(const std::string& path,
                             const CsvOptions& options) {
  ANMAT_RETURN_NOT_OK(options.Validate());
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    return Status::IoError("cannot read the header of " + path +
                           ": not a regular file");
  }
  ANMAT_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  Arena escapes;
  ZeroCopyScanner scanner(file.view(), options, &escapes);
  std::vector<std::string_view> record;
  ANMAT_RETURN_NOT_OK(ScanFirstRecord(scanner, &record));
  return SchemaOf(record, options);
}

}  // namespace anmat
