#include "csv/csv_reader.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "csv/csv_writer.h"
#include "csv_reference.h"

namespace anmat {
namespace {

using Records = std::vector<std::vector<std::string>>;

Records RowsOf(const Relation& relation) {
  Records rows;
  for (RowId r = 0; r < relation.num_rows(); ++r) {
    rows.push_back(relation.Row(r));
  }
  return rows;
}

/// Reads `text` as header-less records through `ReadCsvString` and through
/// `ReadCsvFile` over the same bytes; the two must agree exactly. Returns
/// the records, or the failure both report.
Result<Records> ParseRecords(const std::string& text,
                             CsvOptions options = CsvOptions()) {
  options.has_header = false;
  const std::string path = ::testing::TempDir() + "/anmat_csv_parse.csv";
  WriteBytes(path, text);
  auto from_string = ReadCsvString(text, options);
  auto from_file = ReadCsvFile(path, options);
  std::remove(path.c_str());
  EXPECT_EQ(from_string.status(), from_file.status()) << text;
  if (!from_string.ok()) return from_string.status();
  EXPECT_TRUE(from_file.ok()) << text;
  if (from_file.ok()) {
    EXPECT_EQ(RowsOf(*from_file), RowsOf(*from_string));
  }
  return RowsOf(*from_string);
}

TEST(CsvOptionsTest, Validation) {
  CsvOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.delimiter = '"';
  EXPECT_FALSE(opts.Validate().ok());
  opts = CsvOptions();
  opts.delimiter = '\n';
  EXPECT_FALSE(opts.Validate().ok());
  opts = CsvOptions();
  opts.quote = '\r';
  EXPECT_FALSE(opts.Validate().ok());
}

TEST(CsvParseTest, SimpleRecords) {
  auto r = ParseRecords("a,b\n1,2\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.value()[1], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvParseTest, NoTrailingNewline) {
  auto r = ParseRecords("a,b\n1,2");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST(CsvParseTest, CrlfAndLoneCr) {
  auto r = ParseRecords("a,b\r\n1,2\r3,4\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 3u);
  EXPECT_EQ(r.value()[1], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(r.value()[2], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvParseTest, QuotedFieldWithDelimiter) {
  auto r = ParseRecords("\"Los Angeles, CA\",90001\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0][0], "Los Angeles, CA");
  EXPECT_EQ(r.value()[0][1], "90001");
}

TEST(CsvParseTest, DoubledQuoteEscape) {
  auto r = ParseRecords("\"say \"\"hi\"\"\",x\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0][0], "say \"hi\"");
}

TEST(CsvParseTest, QuotedFieldWithNewline) {
  auto r = ParseRecords("\"line1\nline2\",x\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0][0], "line1\nline2");
}

TEST(CsvParseTest, EmptyFields) {
  auto r = ParseRecords(",,\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvParseTest, UnterminatedQuoteFails) {
  auto r = ParseRecords("\"oops,x\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvParseTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  auto r = ParseRecords("a;b\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvParseTest, TrailingCrOnLastRecord) {
  // A final record terminated by a lone \r at EOF (a CRLF file truncated
  // mid-separator) must not leak the \r into the field or produce a
  // phantom empty record.
  auto r = ParseRecords("zip,city\r\n90001,Los Angeles\r");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[1],
            (std::vector<std::string>{"90001", "Los Angeles"}));
}

TEST(CsvParseTest, QuotedFieldWithCrlfInside) {
  // CRLF inside quotes is field content, not a record separator; the CRLF
  // after the closing quote is.
  auto r = ParseRecords("\"line1\r\nline2\",x\r\ny,z\r\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0][0], "line1\r\nline2");
  EXPECT_EQ(r.value()[0][1], "x");
  EXPECT_EQ(r.value()[1], (std::vector<std::string>{"y", "z"}));
}

TEST(CsvParseTest, QuotedFieldEndsAtTrailingCrEof) {
  auto r = ParseRecords("\"Los Angeles, CA\",90001\r");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0][0], "Los Angeles, CA");
  EXPECT_EQ(r.value()[0][1], "90001");
}

TEST(CsvReadTest, CrlfFileRoundTripsThroughRelation) {
  // A fully CRLF-separated file (header included, last record unterminated)
  // loads exactly like its \n-separated equivalent.
  auto crlf = ReadCsvString(
      "zip,city\r\n90001,\"Los Angeles, CA\"\r\n90004,New York");
  ASSERT_TRUE(crlf.ok());
  auto lf = ReadCsvString("zip,city\n90001,\"Los Angeles, CA\"\n90004,New York\n");
  ASSERT_TRUE(lf.ok());
  ASSERT_EQ(crlf->num_rows(), 2u);
  ASSERT_EQ(lf->num_rows(), 2u);
  for (RowId r = 0; r < crlf->num_rows(); ++r) {
    EXPECT_EQ(crlf->Row(r), lf->Row(r));
  }
  EXPECT_EQ(crlf->cell(0, 1), "Los Angeles, CA");
}

TEST(CsvReadTest, TrailingCrlfProducesNoPhantomRow) {
  auto r = ReadCsvString("zip,city\r\n90001,Los Angeles\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 1u);
}

TEST(CsvReadTest, HeaderBecomesSchema) {
  auto r = ReadCsvString("zip,city\n90001,Los Angeles\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema().column(0).name, "zip");
  EXPECT_EQ(r.value().schema().column(1).name, "city");
  EXPECT_EQ(r.value().num_rows(), 1u);
}

TEST(CsvReadTest, NoHeaderGeneratesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto r = ReadCsvString("1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema().column(0).name, "c0");
  EXPECT_EQ(r.value().schema().column(1).name, "c1");
  EXPECT_EQ(r.value().num_rows(), 2u);
}

TEST(CsvReadTest, TypeInferenceRuns) {
  auto r = ReadCsvString("n,t\n1,a\n2,b\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().schema().column(0).type, ValueType::kInteger);
  EXPECT_EQ(r.value().schema().column(1).type, ValueType::kText);
}

TEST(CsvReadTest, RaggedRowFailsByDefault) {
  auto r = ReadCsvString("a,b\n1\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvReadTest, FirstDefectInInputOrderIsReported) {
  // The ragged record 1 comes before the unterminated quote in record 2.
  const std::string text = "a,b\n1\n\"open";
  const std::string path = ::testing::TempDir() + "/anmat_csv_defect.csv";
  WriteBytes(path, text);
  for (const auto& r : {ReadCsvString(text), ReadCsvFile(path)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().message().find("CSV record 1 has 1 fields"),
              std::string::npos)
        << r.status();
  }
  std::remove(path.c_str());
}

TEST(CsvReadTest, EmptyInputFails) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, HeaderOnlyGivesEmptyRelation) {
  auto r = ReadCsvString("a,b\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 0u);
  EXPECT_EQ(r.value().num_columns(), 2u);
}

TEST(CsvReadTest, MissingFileIsIoError) {
  auto r = ReadCsvFile("/nonexistent/path/data.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvWriteTest, RoundTripWithQuoting) {
  RelationBuilder builder(Schema::MakeText({"name", "note"}).value());
  ASSERT_TRUE(builder.AddRow({"Holloway, Donald", "said \"hi\""}).ok());
  ASSERT_TRUE(builder.AddRow({"plain", "multi\nline"}).ok());
  Relation rel = builder.Build();

  auto text = WriteCsvString(rel);
  ASSERT_TRUE(text.ok());
  auto back = ReadCsvString(text.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_rows(), 2u);
  EXPECT_EQ(back.value().cell(0, 0), "Holloway, Donald");
  EXPECT_EQ(back.value().cell(0, 1), "said \"hi\"");
  EXPECT_EQ(back.value().cell(1, 1), "multi\nline");
}

TEST(CsvWriteTest, NoHeaderOption) {
  RelationBuilder builder(Schema::MakeText({"a"}).value());
  ASSERT_TRUE(builder.AddRow({"1"}).ok());
  Relation rel = builder.Build();
  CsvOptions opts;
  opts.has_header = false;
  EXPECT_EQ(WriteCsvString(rel, opts).value(), "1\n");
}

TEST(CsvFileTest, WriteThenReadFile) {
  const std::string path = ::testing::TempDir() + "/anmat_csv_test.csv";
  RelationBuilder builder(Schema::MakeText({"zip", "city"}).value());
  ASSERT_TRUE(builder.AddRow({"90001", "Los Angeles"}).ok());
  Relation rel = builder.Build();
  ASSERT_TRUE(WriteCsvFile(rel, path).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().cell(0, 1), "Los Angeles");
  std::remove(path.c_str());
}

// -- Both readers against the reference parser -------------------------
//
// `ReadCsvString` and the mapped `ReadCsvFile` must store the oracle's
// schema and cells, byte for byte, for any input — including the awkward
// ones below — and fail where it finds the input malformed.

class ZeroCopyIdentityTest : public ::testing::Test {
 protected:
  /// Writes `bytes` verbatim and checks both readers against the oracle.
  void ExpectIdentical(const std::string& bytes,
                       const CsvOptions& options = CsvOptions()) {
    const std::string path =
        ::testing::TempDir() + "/anmat_zero_copy_identity.csv";
    WriteBytes(path, bytes);
    ExpectMatchesReference(bytes, options, ReadCsvString(bytes, options),
                           "ReadCsvString");
    ExpectMatchesReference(bytes, options, ReadCsvFile(path, options),
                           "ReadCsvFile");
    std::remove(path.c_str());
  }
};

TEST_F(ZeroCopyIdentityTest, EmptyFile) { ExpectIdentical(""); }

TEST_F(ZeroCopyIdentityTest, NoTrailingNewline) {
  ExpectIdentical("zip,city\n90001,LA");
}

TEST_F(ZeroCopyIdentityTest, Utf8BomStaysInFirstHeaderCell) {
  // Neither path strips the BOM; both must store the same bytes.
  ExpectIdentical("\xEF\xBB\xBFzip,city\n90001,LA\n");
}

TEST_F(ZeroCopyIdentityTest, QuotedFieldSpansPageBoundary) {
  // One quoted cell longer than a 4 KiB page: the cell body crosses the
  // mmap page boundary, with an escaped quote on each side of it.
  std::string big(5000, 'x');
  big[100] = ',';                     // delimiter inside the quotes
  std::string csv = "a,b\n\"";
  csv += big.substr(0, 2000);
  csv += "\"\"";                      // escaped quote before the boundary
  csv += big.substr(2000);
  csv += "\"\"";                      // escaped quote near the end
  csv += "\",tail\n";
  ExpectIdentical(csv);
}

TEST_F(ZeroCopyIdentityTest, CrlfWithEscapedQuotes) {
  ExpectIdentical(
      "name,quote\r\n\"Smith, John\",\"said \"\"hi\"\"\"\r\n"
      "plain,\"\"\"only\"\"\"\r\n");
}

TEST_F(ZeroCopyIdentityTest, UnterminatedQuoteFailsIdentically) {
  ExpectIdentical("a,b\n\"no close");
}

TEST_F(ZeroCopyIdentityTest, RaggedRowFails) {
  ExpectIdentical("a,b\n1\n2,3\n");
}

TEST_F(ZeroCopyIdentityTest, WithoutHeader) {
  CsvOptions no_header;
  no_header.has_header = false;
  ExpectIdentical("\"x\"\"y\",1\r\n\"a\"tail,2\n", no_header);
}

TEST(CsvZeroCopyTest, ViewsSurviveSetCellOnOtherCells) {
  // Views into the mapping must stay stable while sibling cells are
  // rewritten.
  const std::string path = ::testing::TempDir() + "/anmat_zc_setcell.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "zip,city\n90001,LA\n10001,NY\n";
  }
  auto r = ReadCsvFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(r.ok());
  Relation rel = std::move(r).value();
  const std::string_view before = rel.cell(1, 1);
  rel.set_cell(0, 1, "Los Angeles");
  EXPECT_EQ(rel.cell(0, 1), "Los Angeles");
  EXPECT_EQ(rel.cell(1, 1), before);
  EXPECT_EQ(rel.cell(1, 1), "NY");
}

TEST(CsvPipeTest, PipeIsReadOnceLikeAString) {
  // Written in full and closed before the read: under the 64 KiB pipe
  // buffer, so the write cannot block and the read sees EOF.
  const std::string bytes = "zip,city\n90001,\"Los Angeles, CA\"\n90004,NY\n";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);
  auto piped = ReadCsvFile("/dev/fd/" + std::to_string(fds[0]));
  ::close(fds[0]);
  ASSERT_TRUE(piped.ok()) << piped.status();
  auto expected = ReadCsvString(bytes);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(piped->schema(), expected->schema());
  EXPECT_EQ(RowsOf(*piped), RowsOf(*expected));
}

TEST(CsvPipeTest, DevicesAreRefused) {
  auto r = ReadCsvFile("/dev/null");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("/dev/null"), std::string::npos);
}

TEST(CsvSchemaTest, HeaderRecordGivesTheReadersSchemaNames) {
  const std::string path = ::testing::TempDir() + "/anmat_csv_schema.csv";
  WriteBytes(path, "\"zip code\",\"c\"\"ity\"\r\n1,x\n2,\"open");
  auto schema = ReadCsvSchema(path);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(*schema, Schema::MakeText({"zip code", "c\"ity"}).value());
  CsvOptions no_header;
  no_header.has_header = false;
  auto generated = ReadCsvSchema(path, no_header);
  ASSERT_TRUE(generated.ok());
  EXPECT_EQ(generated->column(1).name, "c1");
  std::remove(path.c_str());
  EXPECT_EQ(ReadCsvSchema(path).status().code(), StatusCode::kIoError);
}

TEST(CsvSchemaTest, PipeIsRefusedWithoutBeingRead) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "a,b\n", 4), 4);
  ::close(fds[1]);
  auto schema = ReadCsvSchema("/dev/fd/" + std::to_string(fds[0]));
  EXPECT_EQ(schema.status().code(), StatusCode::kIoError);
  char left[8];
  EXPECT_EQ(::read(fds[0], left, sizeof left), 4);  // still unread
  ::close(fds[0]);
}

}  // namespace
}  // namespace anmat
