#include "pattern/dfa.h"

#include <algorithm>

#include "util/simd.h"

namespace anmat {

namespace {

/// FNV-1a over the elements of a sorted NFA state set.
uint64_t HashSet(const std::vector<uint32_t>& set) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t s : set) {
    h ^= s;
    h *= 1099511628211ull;
  }
  return h;
}

/// Bucket of hash `h`. FNV's multiplies carry bits only upwards, so fold
/// the high half into the low bits the mask keeps.
size_t BucketOf(uint64_t h, size_t mask) {
  return static_cast<size_t>(h ^ (h >> 32)) & mask;
}

}  // namespace

uint32_t SubsetTable::Intern(std::vector<uint32_t> set, bool* inserted) {
  if ((sets_.size() + 1) * 2 > buckets_.size()) {
    Rehash(std::max<size_t>(16, buckets_.size() * 2));
  }
  const uint64_t h = HashSet(set);
  const size_t mask = buckets_.size() - 1;
  size_t b = BucketOf(h, mask);
  for (; buckets_[b] != 0; b = (b + 1) & mask) {
    const uint32_t id = buckets_[b] - 1;
    if (hashes_[id] == h && sets_[id] == set) {
      if (inserted != nullptr) *inserted = false;
      return id;
    }
  }
  const uint32_t id = static_cast<uint32_t>(sets_.size());
  buckets_[b] = id + 1;
  sets_.push_back(std::move(set));
  hashes_.push_back(h);
  if (inserted != nullptr) *inserted = true;
  return id;
}

void SubsetTable::Rehash(size_t buckets) {
  buckets_.assign(buckets, 0);
  const size_t mask = buckets - 1;
  for (uint32_t id = 0; id < hashes_.size(); ++id) {
    size_t b = BucketOf(hashes_[id], mask);
    while (buckets_[b] != 0) b = (b + 1) & mask;
    buckets_[b] = id + 1;
  }
}

void SubsetTable::Clear() {
  sets_.clear();
  hashes_.clear();
  buckets_.clear();
}

Dfa Dfa::Compile(const Pattern& p, size_t max_states) {
  Dfa dfa(Nfa::Compile(p), max_states);
  dfa.required_literal_ = RequiredLiteralSubstring(p.elements());
  return dfa;
}

Dfa::Dfa(Nfa nfa, size_t max_states)
    : nfa_(std::make_shared<const Nfa>(std::move(nfa))),
      max_states_(max_states) {
  BuildAlphabet();
  start_set_ = {nfa_->start()};
  nfa_->EpsilonClosure(&start_set_);
  ResetMemo();
}

void Dfa::ResetMemo() const {
  nfa_sets_.Clear();
  // State 0 is the dead state (empty NFA set): all edges loop on itself and
  // never need lazy materialization.
  nfa_sets_.Intern({});
  accept_.assign(1, 0);
  transitions_.assign(num_classes_, kDead);
  start_state_ = AddDfaState(start_set_);
}

void Dfa::BuildAlphabet() {
  // Two bytes are interchangeable iff every transition predicate of the NFA
  // treats them identically. Predicates are either a tree class (decided by
  // ClassOfChar) or a literal comparison (decided by identity with a byte
  // the pattern mentions), so the fingerprint of byte b is its tree class
  // plus, when the pattern uses b as a literal, b itself.
  bool is_literal[256] = {};
  for (const Nfa::State& state : nfa_->states()) {
    for (const Nfa::Transition& t : state.transitions) {
      if (t.cls == SymbolClass::kLiteral) {
        is_literal[static_cast<unsigned char>(t.literal)] = true;
      }
    }
  }
  int fingerprint_class[512];
  std::fill(std::begin(fingerprint_class), std::end(fingerprint_class), -1);
  num_classes_ = 0;
  class_rep_.clear();
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const int fp =
        is_literal[b] ? 256 + b : static_cast<int>(ClassOfChar(c));
    if (fingerprint_class[fp] < 0) {
      fingerprint_class[fp] = static_cast<int>(num_classes_++);
      class_rep_.push_back(c);
    }
    byte_class_[b] = static_cast<uint8_t>(fingerprint_class[fp]);
  }
}

uint32_t Dfa::AddDfaState(std::vector<uint32_t> nfa_set) const {
  const bool accepting =
      std::binary_search(nfa_set.begin(), nfa_set.end(), nfa_->accept());
  bool inserted = false;
  const uint32_t id = nfa_sets_.Intern(std::move(nfa_set), &inserted);
  if (inserted) {
    accept_.push_back(accepting ? 1 : 0);
    transitions_.resize(transitions_.size() + num_classes_, kUnset);
  }
  return id;
}

uint32_t Dfa::Transition(uint32_t from, uint32_t cls) const {
  const size_t idx = static_cast<size_t>(from) * num_classes_ + cls;
  const uint32_t cached = transitions_[idx];
  if (cached != kUnset) return cached;
  std::vector<uint32_t> to;
  // Any byte of the class drives the NFA identically; use the
  // representative. Step() sorts, dedupes and epsilon-closes.
  nfa_->Step(nfa_sets_.set(from), class_rep_[cls], &to);
  const uint32_t id = to.empty() ? kDead : AddDfaState(std::move(to));
  transitions_[idx] = id;  // AddDfaState may grow transitions_; re-index is
                           // safe because idx addresses an existing slot.
  return id;
}

bool Dfa::Matches(std::string_view s) const {
  // Mandatory-literal prefilter: a string without the needle cannot match
  // (exact — see RequiredLiteralSubstring), so skip the table walk.
  if (!required_literal_.empty() &&
      !simd::ContainsLiteral(s, required_literal_)) {
    return false;
  }
  if (nfa_sets_.size() >= max_states_) ResetMemo();
  uint32_t state = start_state_;
  for (const char c : s) {
    state = Transition(state, byte_class_[static_cast<unsigned char>(c)]);
    if (state == kDead) return false;
  }
  return accept_[state] != 0;
}

size_t Dfa::ScanPrefixes(std::string_view s,
                         std::vector<uint32_t>* out) const {
  out->clear();
  if (nfa_sets_.size() >= max_states_) ResetMemo();
  uint32_t state = start_state_;
  if (accept_[state]) out->push_back(0);
  for (size_t i = 0; i < s.size(); ++i) {
    state = Transition(state, byte_class_[static_cast<unsigned char>(s[i])]);
    if (state == kDead) break;
    if (accept_[state]) out->push_back(static_cast<uint32_t>(i + 1));
  }
  return out->size();
}

std::vector<uint32_t> Dfa::MatchingPrefixLengths(std::string_view s) const {
  std::vector<uint32_t> lengths;
  ScanPrefixes(s, &lengths);
  return lengths;
}

void FlattenConjuncts(const Pattern& p, std::vector<const Pattern*>* out) {
  for (const Pattern& c : p.conjuncts()) {
    out->push_back(&c);
    FlattenConjuncts(c, out);
  }
}

bool DfaMatchesWithConjuncts(const Pattern& p, std::string_view s) {
  if (!Dfa::Compile(p).Matches(s)) return false;
  std::vector<const Pattern*> conjuncts;
  FlattenConjuncts(p, &conjuncts);
  for (const Pattern* c : conjuncts) {
    if (!Dfa::Compile(*c).Matches(s)) return false;
  }
  return true;
}

}  // namespace anmat
