#ifndef ANMAT_CSV_CSV_READER_H_
#define ANMAT_CSV_CSV_READER_H_

/// \file csv_reader.h
/// RFC 4180 CSV parsing into `Relation`.
///
/// Handles quoted fields (including embedded delimiters, quotes-by-doubling,
/// and embedded newlines), CRLF and LF record separators, and an optional
/// header record. Column types are inferred after loading.
///
/// There is one scanner. It finds structural bytes (delimiter / quote /
/// CR / LF) with the SIMD/SWAR kernel in util/simd.h and yields cells as
/// `string_view`s into a buffer the relation's arena adopts, so views
/// outlive the reader; only quoted fields that need unescaping copy bytes.
/// `ReadCsvFile` memory-maps a regular file; a pipe or FIFO is read once,
/// to EOF; `ReadCsvString` parses one copy of its text. Errors name the
/// first defect in input order.

#include <string>
#include <string_view>

#include "csv/csv_options.h"
#include "relation/relation.h"
#include "util/status.h"

namespace anmat {

/// \brief Parses CSV text into a `Relation`.
///
/// With `options.has_header`, the first record names the columns; otherwise
/// columns are named "c0", "c1", .... A record whose field count differs
/// from the first record's is a ParseError.
Result<Relation> ReadCsvString(std::string_view text,
                               const CsvOptions& options = CsvOptions());

/// \brief Reads and parses a CSV file: a regular file is memory-mapped, a
/// pipe or FIFO is read once. Missing or unreadable paths, directories,
/// devices and sockets fail with an IoError naming the path.
Result<Relation> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = CsvOptions());

/// \brief The schema `ReadCsvFile` would give the regular file `path`, read
/// from its first record only (column types stay text). Anything but a
/// regular file fails with IoError and is not opened: probing a pipe would
/// consume the bytes the real read needs.
Result<Schema> ReadCsvSchema(const std::string& path,
                             const CsvOptions& options = CsvOptions());

}  // namespace anmat

#endif  // ANMAT_CSV_CSV_READER_H_
