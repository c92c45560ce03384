#include "relation/relation.h"

#include <atomic>
#include <cassert>
#include <string_view>
#include <unordered_map>

#include "util/text_table.h"

namespace anmat {

ColumnDictionary::ColumnDictionary(const std::vector<std::string_view>& cells) {
  row_value_.reserve(cells.size());
  // string_view keys alias the cells' backing arena, which outlives the
  // build.
  std::unordered_map<std::string_view, uint32_t> ids;
  ids.reserve(cells.size());
  for (RowId r = 0; r < cells.size(); ++r) {
    auto [it, inserted] =
        ids.emplace(cells[r], static_cast<uint32_t>(values_.size()));
    if (inserted) {
      values_.emplace_back(cells[r]);
      postings_.emplace_back();
    }
    postings_[it->second].push_back(r);
    row_value_.push_back(it->second);
  }
}

void ColumnDictionary::Append(const std::vector<std::string_view>& cells,
                              RowId first_row) {
  assert(first_row == row_value_.size() && "dictionaries are append-only");
  if (incremental_index_.empty() && !values_.empty()) {
    // First Append after a bulk build: seed the persistent map. Keys view
    // into the deque, whose element addresses are stable under growth.
    incremental_index_.reserve(values_.size());
    for (uint32_t id = 0; id < values_.size(); ++id) {
      incremental_index_.emplace(values_[id], id);
    }
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    const RowId r = first_row + static_cast<RowId>(i);
    auto it = incremental_index_.find(cells[i]);
    uint32_t id;
    if (it == incremental_index_.end()) {
      id = static_cast<uint32_t>(values_.size());
      values_.emplace_back(cells[i]);
      postings_.emplace_back();
      incremental_index_.emplace(values_[id], id);
    } else {
      id = it->second;
    }
    postings_[id].push_back(r);
    row_value_.push_back(id);
  }
}

const ColumnDictionary& Relation::dictionary(size_t col) const {
  {
    MutexLock lock(&dict_mu_);
    if (dictionaries_.size() < columns_.size()) {
      dictionaries_.resize(columns_.size());
    }
    if (dictionaries_[col] != nullptr) return *dictionaries_[col];
  }
  // Build outside the lock so concurrent first-touches of *different*
  // columns overlap; a same-column race builds twice and the first
  // published build wins (the loser's work is discarded).
  auto built = std::make_shared<const ColumnDictionary>(columns_[col]);
  MutexLock lock(&dict_mu_);
  if (dictionaries_[col] == nullptr) dictionaries_[col] = std::move(built);
  return *dictionaries_[col];
}

uint64_t Relation::NextVersion() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

Arena& Relation::arena() const {
  // arena_ is only null in a moved-from relation; reviving it is a
  // mutation and so (per the class contract) externally synchronized.
  if (arena_ == nullptr) arena_ = std::make_shared<Arena>();
  return *arena_;
}

void Relation::DetachArena() {
  auto own = std::make_shared<Arena>();
  own->AdoptBuffer(std::move(arena_));
  arena_ = std::move(own);
}

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_columns());
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      columns_(other.columns_),
      num_rows_(other.num_rows_) {
  MutexLock lock(&other.dict_mu_);
  arena_ = other.arena_;
  dictionaries_ = other.dictionaries_;
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  columns_ = other.columns_;
  num_rows_ = other.num_rows_;
  version_ = NextVersion();
  std::vector<std::shared_ptr<const ColumnDictionary>> snapshot;
  std::shared_ptr<Arena> arena_snapshot;
  {
    MutexLock lock(&other.dict_mu_);
    snapshot = other.dictionaries_;
    arena_snapshot = other.arena_;
  }
  MutexLock lock(&dict_mu_);
  dictionaries_ = std::move(snapshot);
  arena_ = std::move(arena_snapshot);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      columns_(std::move(other.columns_)),
      num_rows_(other.num_rows_) {
  MutexLock lock(&other.dict_mu_);
  arena_ = std::move(other.arena_);
  dictionaries_ = std::move(other.dictionaries_);
  other.num_rows_ = 0;
  other.version_ = NextVersion();
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  columns_ = std::move(other.columns_);
  num_rows_ = other.num_rows_;
  other.num_rows_ = 0;
  version_ = NextVersion();
  other.version_ = NextVersion();
  std::vector<std::shared_ptr<const ColumnDictionary>> snapshot;
  std::shared_ptr<Arena> arena_snapshot;
  {
    MutexLock lock(&other.dict_mu_);
    snapshot = std::move(other.dictionaries_);
    arena_snapshot = std::move(other.arena_);
  }
  MutexLock lock(&dict_mu_);
  dictionaries_ = std::move(snapshot);
  arena_ = std::move(arena_snapshot);
  return *this;
}

Status Relation::AppendRow(const std::vector<std::string>& cells) {
  if (cells.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(cells.size()) +
        " does not match schema width " +
        std::to_string(schema_.num_columns()));
  }
  Arena& arena = this->arena();
  for (size_t c = 0; c < cells.size(); ++c) {
    columns_[c].push_back(arena.Intern(cells[c]));
  }
  ++num_rows_;
  version_ = NextVersion();
  MutexLock lock(&dict_mu_);
  dictionaries_.clear();
  return Status::OK();
}

Status Relation::AppendRowViews(const std::vector<std::string_view>& cells) {
  if (cells.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(cells.size()) +
        " does not match schema width " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    columns_[c].push_back(cells[c]);
  }
  ++num_rows_;
  version_ = NextVersion();
  MutexLock lock(&dict_mu_);
  dictionaries_.clear();
  return Status::OK();
}

Result<const std::vector<std::string_view>*> Relation::ColumnByName(
    std::string_view name) const {
  ANMAT_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return &columns_[idx];
}

std::vector<std::string> Relation::Row(RowId row) const {
  std::vector<std::string> out;
  out.reserve(num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    out.emplace_back(columns_[c][row]);
  }
  return out;
}

void Relation::InferColumnTypes() {
  for (size_t c = 0; c < num_columns(); ++c) {
    ValueType type = ValueType::kNull;
    for (const std::string_view cell : columns_[c]) {
      type = UnifyValueTypes(type, InferValueType(cell));
      if (type == ValueType::kText) break;  // already at the top
    }
    schema_.SetColumnType(c, type);
  }
  version_ = NextVersion();
}

Result<Relation> Relation::Slice(RowId begin, RowId end) const {
  if (begin > end || end > num_rows_) {
    return Status::OutOfRange("invalid slice [" + std::to_string(begin) +
                              ", " + std::to_string(end) + ") of " +
                              std::to_string(num_rows_) + " rows");
  }
  Relation out(schema_);
  for (size_t c = 0; c < num_columns(); ++c) {
    out.columns_[c].assign(columns_[c].begin() + begin,
                           columns_[c].begin() + end);
  }
  out.num_rows_ = end - begin;
  {
    // Share the arena so the copied views stay backed.
    MutexLock lock(&dict_mu_);
    out.arena_ = arena_;
  }
  return out;
}

std::string Relation::ToString(size_t max_rows) const {
  std::vector<std::string> header;
  header.reserve(num_columns());
  for (const ColumnSpec& col : schema_.columns()) header.push_back(col.name);
  TextTable table(std::move(header));
  const size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    table.AddRow(Row(static_cast<RowId>(r)));
  }
  std::string out = table.Render();
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace anmat
