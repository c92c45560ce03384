#ifndef ANMAT_DISPATCH_PATTERN_TRIE_H_
#define ANMAT_DISPATCH_PATTERN_TRIE_H_

/// \file pattern_trie.h
/// A trie over pattern element sequences, used to group rules for union
/// compilation.
///
/// One union automaton over *every* confirmed rule of a column can blow up:
/// the subset construction multiplies when member patterns disagree wildly
/// on structure, and a lazy union whose values walk too many states
/// flushes its memo over and over. Patterns that share element-sequence
/// *prefixes*
/// (the common case — tableau rows of one PFD differ in a suffix literal or
/// a repetition bound) determinize together almost for free, because their
/// NFA fronts stay merged for the shared prefix.
///
/// `PatternTrie` inserts each pattern's element sequence, element by
/// element, with literal elements and class elements kept in separate
/// child maps per node (the `PatternTreeNode` literal/argument-child
/// shape). `Groups()` then packs subtrees depth-first into groups of at
/// most `max_group_size` patterns: whole subtrees go into the current
/// group when they fit (prefix-sharing patterns stay together), oversized
/// subtrees recurse. Group order and membership are deterministic given
/// the same insert sequence.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pattern/pattern.h"

namespace anmat {

/// \brief Groups pattern ids by shared element-sequence prefixes.
class PatternTrie {
 public:
  /// Inserts `p`'s element sequence under external id `id` (ids need not be
  /// dense or sorted; duplicates are kept — they share a terminal node).
  void Insert(uint32_t id, const Pattern& p);

  size_t num_patterns() const { return num_patterns_; }

  /// Packs all inserted ids into groups of at most `max_group_size`,
  /// keeping prefix-sharing patterns in the same group where possible.
  /// Every id appears in exactly one group.
  std::vector<std::vector<uint32_t>> Groups(size_t max_group_size) const;

 private:
  struct Node {
    /// Child per distinct next element, keyed by the element's canonical
    /// text. Literal elements and class elements live in separate maps.
    std::map<std::string, std::unique_ptr<Node>> literal_children;
    std::map<std::string, std::unique_ptr<Node>> class_children;
    /// Ids of patterns whose element sequence ends at this node.
    std::vector<uint32_t> terminal_ids;
    /// Total ids in this subtree (terminals included).
    size_t subtree_count = 0;
  };

  /// Appends every id in `n`'s subtree in deterministic DFS order.
  static void Collect(const Node& n, std::vector<uint32_t>* out);
  /// Packs `n`'s subtree into `*groups`, accumulating into `*current`.
  static void Pack(const Node& n, size_t max_group_size,
                   std::vector<std::vector<uint32_t>>* groups,
                   std::vector<uint32_t>* current);

  Node root_;
  size_t num_patterns_ = 0;
};

}  // namespace anmat

#endif  // ANMAT_DISPATCH_PATTERN_TRIE_H_
