#ifndef ANMAT_PATTERN_GENERALIZATION_TREE_H_
#define ANMAT_PATTERN_GENERALIZATION_TREE_H_

/// \file generalization_tree.h
/// The generalization tree of Figure 1 in the ANMAT paper.
///
/// The tree is defined over the ASCII alphabet: each leaf is a character,
/// each intermediate node generalizes its children:
///
///                          All [\A]
///            ┌──────────┬─────┴────┬──────────┐
///        Upper [\LU]  Lower [\LL]  Digit [\D]  Symbol [\S]
///         A … Z        a … z        0 … 9      everything else
///
/// `ε` (the empty string) is handled at the pattern level via zero-width
/// quantifiers, not as a tree node.

#include <string>

namespace anmat {

/// \brief A node of the generalization tree usable in a pattern element.
///
/// `kLiteral` stands for a leaf (a concrete character); the literal itself is
/// stored next to the class in `PatternElement`.
enum class SymbolClass : unsigned char {
  kLiteral,  ///< a specific character (leaf)
  kUpper,    ///< \LU — any upper-case letter
  kLower,    ///< \LL — any lower-case letter
  kDigit,    ///< \D  — any digit
  kSymbol,   ///< \S  — any non-alphanumeric character
  kAny,      ///< \A  — any character (root)
};

/// \brief The class of a concrete character (its parent in the tree).
SymbolClass ClassOfChar(char c);

/// \brief True if `cls` matches character `c` (`kLiteral` never matches here;
/// literals are compared against their stored character by the caller).
bool ClassMatchesChar(SymbolClass cls, char c);

/// \brief True if `general` is an ancestor-or-self of `specific` in the tree.
///
/// `kLiteral` is below every class that matches it, but literal-vs-literal
/// comparisons are done by the caller on the stored characters.
bool ClassContains(SymbolClass general, SymbolClass specific);

/// \brief Lowest common ancestor of two classes (used by the generalizer).
SymbolClass JoinClasses(SymbolClass a, SymbolClass b);

/// \brief The pattern-syntax spelling of a class ("\\A", "\\LU", ...).
const char* SymbolClassToken(SymbolClass cls);

/// \brief Renders the tree (levels + example leaves) for the Figure-1 bench.
std::string RenderGeneralizationTree();

}  // namespace anmat

#endif  // ANMAT_PATTERN_GENERALIZATION_TREE_H_
