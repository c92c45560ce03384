#ifndef ANMAT_RELATION_RELATION_H_
#define ANMAT_RELATION_RELATION_H_

/// \file relation.h
/// In-memory relational tables.
///
/// `Relation` stores cells column-major as `std::string_view`s (one
/// `std::vector<std::string_view>` per column), which matches ANMAT's
/// access pattern: discovery and detection stream entire columns (or
/// column pairs), not whole rows. The bytes behind the views live in a
/// per-relation `Arena` (util/arena.h) — either interned copies
/// (`AppendRow`, `set_cell`) or zero-copy views into a buffer the arena
/// has adopted (the memory-mapped CSV file; see `AppendRowViews`). The
/// arena only grows and is shared across relation copies/slices, so a
/// cell view stays valid for as long as any relation referencing it
/// lives. Owning-string storage concentrates where values are distinct:
/// in `ColumnDictionary`.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "relation/schema.h"
#include "util/arena.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/status.h"

namespace anmat {

/// Row identifier. Rows keep their insertion index for the lifetime of the
/// relation; violations reference cells as (row, column) pairs.
using RowId = uint32_t;

/// \brief Dictionary of one column's distinct values with row postings.
///
/// Real columns are dominated by duplicates (cities, states, area codes…),
/// so matching/generalizing each *distinct* value once and fanning the
/// result out over its posting list beats per-row work by the duplication
/// factor. Value ids are assigned in first-occurrence (row) order and each
/// posting list is ascending, which keeps dictionary-driven scans
/// deterministic and byte-identical to row-at-a-time scans.
///
/// Built lazily by `Relation::dictionary()` and owned via shared_ptr so
/// copied relations stay cheap; the dictionary owns copies of the distinct
/// strings and is therefore self-contained — it outlives the relation (and
/// arena) it was built from.
class ColumnDictionary {
 public:
  /// An empty dictionary, to be grown with `Append` (the streaming path).
  ColumnDictionary() = default;

  /// Builds the dictionary of `cells` (all rows of one column).
  explicit ColumnDictionary(const std::vector<std::string_view>& cells);

  // Copies drop the incremental index — its string_view keys alias the
  // *source's* value storage and must not travel; the copy reseeds it from
  // its own values on the next Append. Moves transfer it (deque node
  // buffers are stable across moves, so the views stay valid).
  ColumnDictionary(const ColumnDictionary& other)
      : values_(other.values_),
        postings_(other.postings_),
        row_value_(other.row_value_) {}
  ColumnDictionary& operator=(const ColumnDictionary& other) {
    if (this != &other) {
      values_ = other.values_;
      postings_ = other.postings_;
      row_value_ = other.row_value_;
      incremental_index_.clear();
    }
    return *this;
  }
  ColumnDictionary(ColumnDictionary&&) = default;
  ColumnDictionary& operator=(ColumnDictionary&&) = default;

  /// Appends the cells of rows [first_row, first_row + cells.size()).
  /// `first_row` must equal `num_rows()` (dictionaries are append-only). New
  /// distinct values get ids in first-occurrence order, so the result is
  /// indistinguishable from a bulk build over the concatenated column —
  /// which is what keeps `DetectionStream` byte-identical to one-shot runs.
  void Append(const std::vector<std::string_view>& cells, RowId first_row);

  /// Number of rows indexed so far.
  size_t num_rows() const { return row_value_.size(); }

  /// Number of distinct values.
  size_t num_values() const { return values_.size(); }

  /// The id-th distinct value (ids follow first occurrence).
  const std::string& value(uint32_t id) const { return values_[id]; }

  /// Rows holding value `id`, ascending.
  const std::vector<RowId>& rows(uint32_t id) const { return postings_[id]; }

  /// The value id of row `row`.
  uint32_t value_id(RowId row) const { return row_value_[row]; }

  /// Looks up the id of `value`; returns false when the dictionary has not
  /// seen it. Only meaningful on dictionaries grown via `Append` (the
  /// streaming path), whose persistent value→id map is always in sync;
  /// bulk-built dictionaries keep no such map and report every value
  /// unseen. The streaming detector uses this to reuse its per-distinct-
  /// value memos for batch rows before they are absorbed.
  bool Lookup(std::string_view value, uint32_t* id) const {
    auto it = incremental_index_.find(value);
    if (it == incremental_index_.end()) return false;
    *id = it->second;
    return true;
  }

 private:
  /// deque: element addresses are stable under growth, so the incremental
  /// index below may key string_views into the stored values.
  std::deque<std::string> values_;
  std::vector<std::vector<RowId>> postings_;
  std::vector<uint32_t> row_value_;
  /// value -> id map kept alive between `Append` calls (views into
  /// `values_`). Bulk construction leaves it empty (its throwaway map is
  /// cheaper); the first `Append` seeds it from `values_`.
  std::unordered_map<std::string_view, uint32_t> incremental_index_;
};

/// \brief A column-major table of string cells with a typed schema.
///
/// Thread safety: concurrent const access (including the lazily-built
/// `dictionary()`) is safe; mutation (`AppendRow`, `set_cell`,
/// `InferColumnTypes`) requires external synchronization with all other
/// access to the same relation, as usual for containers. Relation copies
/// share an append-only arena whose mutations are internally serialized,
/// so independently-owned copies may be mutated from different threads.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema);

  // The dictionary-cache mutex makes copy/move user-provided; a copy shares
  // the already-built dictionary snapshots (and the cell arena) until
  // either side mutates.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return schema_.num_columns(); }
  size_t num_rows() const { return num_rows_; }

  /// Appends a row, interning every cell into the arena; the row width
  /// must equal the schema width.
  Status AppendRow(const std::vector<std::string>& cells);

  /// Zero-copy append: stores the views as-is. The caller guarantees the
  /// viewed bytes outlive the relation — either because they point into a
  /// buffer registered via `arena().AdoptBuffer` (the mmap'd CSV path) or
  /// into otherwise-immortal storage. Width-checked like `AppendRow`.
  Status AppendRowViews(const std::vector<std::string_view>& cells);

  /// Cell accessors (views into the shared arena; stable across appends
  /// and `set_cell`, invalidated only by relation destruction).
  std::string_view cell(RowId row, size_t col) const {
    return columns_[col][row];
  }
  void set_cell(RowId row, size_t col, std::string_view value) {
    // Copy-on-write into the arena: the repair path hands in transient
    // strings, and views must outlive them.
    columns_[col][row] = arena().Intern(value);
    InvalidateDictionary(col);
    version_ = NextVersion();
  }

  /// A stamp unique across the process: every relation takes a fresh one
  /// when it is constructed, copied or assigned (a move restamps both
  /// sides), and again on every mutation (`set_cell`, `AppendRow`,
  /// `AppendRowViews`, `InferColumnTypes`). No two relations ever share a
  /// stamp, so an unchanged stamp means the same object, unmutated since:
  /// `Engine::Repair` checks it to reuse the state of the `Engine::Detect`
  /// that ran on this relation. Reading the relation (cells, dictionaries,
  /// slices, copies made from it) leaves it as it was.
  uint64_t version() const { return version_; }

  /// The (lazily built, cached) dictionary of column `col`. Safe to call
  /// from concurrent readers: construction is guarded per relation, and a
  /// same-column race builds twice with the first finisher winning.
  /// Invalidated by `AppendRow`/`set_cell`; keep no reference across
  /// mutations.
  const ColumnDictionary& dictionary(size_t col) const;

  /// Whole column view.
  const std::vector<std::string_view>& column(size_t col) const {
    return columns_.at(col);
  }

  /// Column by name.
  Result<const std::vector<std::string_view>*> ColumnByName(
      std::string_view name) const;

  /// Materializes row `row` as a vector of owned cells.
  std::vector<std::string> Row(RowId row) const;

  /// The arena backing this relation's cell views (shared across copies).
  /// Zero-copy loaders adopt their backing buffers here.
  Arena& arena() const;

  /// Gives this relation an arena of its own for the bytes it interns
  /// from now on; the shared one stays alive behind it. A copy made to be
  /// edited then no longer grows the arena of the relation it came from.
  void DetachArena();

  /// Refreshes the schema's column types from the current data: the type of
  /// each column is the least upper bound of its cells' inferred types.
  void InferColumnTypes();

  /// A new relation with the same schema containing rows [begin, end).
  /// Shares this relation's arena (cell views are not copied).
  Result<Relation> Slice(RowId begin, RowId end) const;

  /// Pretty-prints the first `max_rows` rows as an ASCII table.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Drops column `col`'s cached dictionary — but only when one was ever
  /// built. Opted out of thread-safety analysis for the unlocked
  /// emptiness probe: mutation already requires external synchronization
  /// with all other access, so the probe races with nothing, and repair
  /// loops applying thousands of cell edits skip the lock round-trip
  /// entirely on dictionary-free relations.
  void InvalidateDictionary(size_t col) ANMAT_NO_THREAD_SAFETY_ANALYSIS {
    if (col >= dictionaries_.size() || dictionaries_[col] == nullptr) return;
    MutexLock lock(&dict_mu_);
    dictionaries_[col].reset();
  }

  /// The next stamp of the process-wide counter behind `version()`.
  static uint64_t NextVersion();

  Schema schema_;
  std::vector<std::vector<std::string_view>> columns_;
  size_t num_rows_ = 0;
  uint64_t version_ = NextVersion();
  /// Byte storage behind the cell views; shared by copies and slices,
  /// append-only (internally synchronized). Never null except transiently
  /// in a moved-from relation (revived on next use). The pointer itself
  /// mutates only under external synchronization (copy/move/revive), so it
  /// is not lock-guarded; `dict_mu_` merely makes the copy paths snapshot
  /// arena + dictionaries together.
  mutable std::shared_ptr<Arena> arena_ = std::make_shared<Arena>();
  /// Guards `dictionaries_` (the slot vector, not the built dictionaries,
  /// which are immutable once published).
  mutable Mutex dict_mu_;
  /// Per-column dictionary cache (a copy shares the immutable snapshots
  /// until either side mutates).
  mutable std::vector<std::shared_ptr<const ColumnDictionary>> dictionaries_
      ANMAT_GUARDED_BY(dict_mu_);
};

/// \brief Incremental builder for `Relation` with schema checking.
class RelationBuilder {
 public:
  explicit RelationBuilder(Schema schema) : relation_(std::move(schema)) {}

  Status AddRow(const std::vector<std::string>& cells) {
    return relation_.AppendRow(cells);
  }

  /// Zero-copy row add; see `Relation::AppendRowViews` for the lifetime
  /// contract.
  Status AddRowViews(const std::vector<std::string_view>& cells) {
    return relation_.AppendRowViews(cells);
  }

  /// The relation under construction (e.g. to adopt buffers into its
  /// arena before adding view rows).
  Relation& relation() { return relation_; }

  /// Finalizes the relation, inferring column types.
  Relation Build() {
    relation_.InferColumnTypes();
    return std::move(relation_);
  }

 private:
  Relation relation_;
};

}  // namespace anmat

#endif  // ANMAT_RELATION_RELATION_H_
