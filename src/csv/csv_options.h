#ifndef ANMAT_CSV_CSV_OPTIONS_H_
#define ANMAT_CSV_CSV_OPTIONS_H_

/// \file csv_options.h
/// Dialect options shared by the CSV reader and writer.

#include <string>

#include "util/status.h"

namespace anmat {

/// \brief CSV dialect configuration (RFC 4180 by default).
struct CsvOptions {
  char delimiter = ',';     ///< field separator
  char quote = '"';         ///< quote character; doubled to escape
  bool has_header = true;   ///< first record holds column names

  /// Validates internal consistency (delimiter != quote, printable, ...).
  Status Validate() const;
};

}  // namespace anmat

#endif  // ANMAT_CSV_CSV_OPTIONS_H_
