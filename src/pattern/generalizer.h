#ifndef ANMAT_PATTERN_GENERALIZER_H_
#define ANMAT_PATTERN_GENERALIZER_H_

/// \file generalizer.h
/// Induction of patterns from data values.
///
/// Discovery climbs the pattern lattice from concrete strings upward
/// (Figure 1's tree lifted to sequences):
///
///   "90001"  --ClassRuns-->  \D{5}  --LooseCounts-->  \D+  -->  \A*
///
/// `GeneralizeString` produces a single value's signature at a chosen level;
/// `Lgg` computes the least-general generalization of two patterns by
/// aligning their element runs (Needleman-Wunsch over run symbols) and
/// joining classes/count-ranges; `GeneralizeValues` folds `Lgg` over a set
/// of values, giving the tightest pattern in our language covering all of
/// them.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pattern/pattern.h"

namespace anmat {

/// \brief How aggressively `GeneralizeString` abstracts a value.
enum class GeneralizationLevel {
  kLiteral,     ///< every character a literal: "A-1" -> `A\-1`
  kClassExact,  ///< class runs with exact counts: "90001" -> `\D{5}`
  kClassLoose,  ///< class runs with `+`: "90001" -> `\D+`
};

/// \brief The signature pattern of one string at the given level.
///
/// At `kClassExact`/`kClassLoose`, consecutive characters of the same
/// generalization-tree class collapse into one element; symbol characters
/// are kept as literals (punctuation carries structure: "F-9-107" ->
/// `\LU-\D-\D{3}`), except at kClassLoose where runs keep `+` counts.
Pattern GeneralizeString(std::string_view s, GeneralizationLevel level);

/// \brief Least-general generalization of two patterns.
///
/// Aligns the element sequences (global alignment over symbols, preferring
/// same-class matches), then per aligned pair joins the symbols via the
/// generalization tree and widens the count ranges; unaligned elements get
/// `min = 0`. The result's language contains both inputs' languages.
Pattern Lgg(const Pattern& a, const Pattern& b);

/// \brief Folds `Lgg` over the signatures of all `values`.
///
/// Returns an empty pattern when `values` is empty.
Pattern GeneralizeValues(const std::vector<std::string>& values,
                         GeneralizationLevel level = GeneralizationLevel::kClassExact);

/// \brief `GeneralizeValues` over the sequence `values[sequence[0]]`,
/// `values[sequence[1]]`, ... in which values repeat (a column's value ids
/// in row order).
///
/// Each value is generalized once, values with equal signatures share one
/// fold step, and a step is skipped when the same signature already left
/// the current accumulator unchanged (`Lgg` is a pure function), so a
/// repeat costs a lookup instead of an alignment. The result equals
/// `GeneralizeValues` over the expanded sequence. Folding the
/// distinct values alone would not: `Lgg` is not idempotent under repeats
/// once other values have been folded in between.
Pattern GeneralizeSequence(
    const std::vector<std::string_view>& values,
    const std::vector<uint32_t>& sequence,
    GeneralizationLevel level = GeneralizationLevel::kClassExact);

/// \brief Collapses every maximal run of class/letter/digit elements into a
/// single `\A+` (or `\A*` when the run can be empty), keeping *symbol
/// literals* (commas, spaces, dashes) as anchors.
///
/// This is how discovered tableau rows render their context the way the
/// paper's Table 3 does: the cells around the key token of
/// "Holloway, Donald E." become `\A*,\ Donald\A*` — the comma-space skeleton
/// survives, the words do not.
Pattern FlattenToAnyRuns(const Pattern& p);

}  // namespace anmat

#endif  // ANMAT_PATTERN_GENERALIZER_H_
