#include "discovery/inverted_list.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <unordered_map>

#include "pattern/generalizer.h"
#include "util/string_util.h"
#include "util/tokenizer.h"

namespace anmat {

namespace {

/// A key while its list is built: the text views the dictionary's value.
struct KeyView {
  std::string_view text;
  uint32_t position = 0;

  bool operator==(const KeyView& other) const {
    return position == other.position && text == other.text;
  }
};

struct KeyViewHash {
  size_t operator()(const KeyView& k) const {
    return static_cast<size_t>(
        HashCombine(Fnv1a64(k.text), k.position * 0x9E3779B97F4A7C15ULL));
  }
};

}  // namespace

bool CarriesKeys(std::string_view value, size_t max_value_length) {
  if (TrimView(value).empty()) return false;
  return max_value_length == 0 || value.size() <= max_value_length;
}

KeyList BuildKeyList(const ColumnDictionary& dict, TokenMode mode,
                     size_t gram_len, size_t max_value_length) {
  KeyList list;
  std::unordered_map<KeyView, uint32_t, KeyViewHash> index;
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    if (!CarriesKeys(dict.value(id), max_value_length)) continue;
    const std::string_view value = dict.value(id);
    std::vector<Token> keys;
    switch (mode) {
      case TokenMode::kTokens:
        keys = Tokenize(value);
        break;
      case TokenMode::kNGrams:
        keys = NGrams(value, gram_len);
        break;
      case TokenMode::kPrefix:
        keys = PrefixGrams(value, gram_len);
        break;
    }
    const size_t rows = dict.rows(id).size();
    for (const Token& t : keys) {
      const KeyView view{value.substr(t.offset, t.text.size()), t.position};
      auto [it, inserted] =
          index.try_emplace(view, static_cast<uint32_t>(list.size()));
      if (inserted) list.push_back(KeyEntry{t.text, t.position, {}, 0});
      KeyEntry& entry = list[it->second];
      entry.postings.push_back(Posting{id, t.offset});
      entry.rows += rows;
    }
  }
  return list;
}

KeyList BuildSignatureList(const ColumnDictionary& dict,
                           size_t max_value_length,
                           std::vector<Pattern>* patterns) {
  std::map<std::string, std::pair<KeyEntry, Pattern>> by_text;
  for (uint32_t id = 0; id < dict.num_values(); ++id) {
    if (!CarriesKeys(dict.value(id), max_value_length)) continue;
    Pattern sig =
        GeneralizeString(dict.value(id), GeneralizationLevel::kClassExact);
    std::string text = sig.ToString();
    auto [it, inserted] = by_text.try_emplace(std::move(text));
    if (inserted) {
      it->second.first.text = it->first;
      it->second.second = std::move(sig);
    }
    it->second.first.postings.push_back(Posting{id, 0});
    it->second.first.rows += dict.rows(id).size();
  }
  KeyList list;
  patterns->clear();
  for (auto& [text, entry] : by_text) {
    list.push_back(std::move(entry.first));
    patterns->push_back(std::move(entry.second));
  }
  return list;
}

PairCounts::PairCounts(const Relation& relation, size_t lhs_col,
                       size_t rhs_col)
    : lhs_(&relation.dictionary(lhs_col)),
      rhs_(&relation.dictionary(rhs_col)) {
  rhs_blank_.resize(rhs_->num_values());
  for (uint32_t id = 0; id < rhs_->num_values(); ++id) {
    rhs_blank_[id] = TrimView(rhs_->value(id)).empty();
  }
  begin_.reserve(lhs_->num_values() + 1);
  begin_.push_back(0);
  std::vector<uint32_t> rhs_ids;
  for (uint32_t id = 0; id < lhs_->num_values(); ++id) {
    if (!TrimView(lhs_->value(id)).empty()) {
      rhs_ids.clear();
      for (const RowId r : lhs_->rows(id)) rhs_ids.push_back(rhs_->value_id(r));
      std::sort(rhs_ids.begin(), rhs_ids.end());
      for (size_t i = 0; i < rhs_ids.size();) {
        size_t j = i;
        while (j < rhs_ids.size() && rhs_ids[j] == rhs_ids[i]) ++j;
        pairs_.push_back(Pair{rhs_ids[i], static_cast<uint32_t>(j - i)});
        i = j;
      }
    }
    begin_.push_back(static_cast<uint32_t>(pairs_.size()));
  }
}

void PairCounts::SumByRhs(std::vector<Pair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const Pair& a, const Pair& b) { return a.rhs_id < b.rhs_id; });
  size_t out = 0;
  for (size_t i = 0; i < pairs->size(); ++i) {
    if (out > 0 && (*pairs)[out - 1].rhs_id == (*pairs)[i].rhs_id) {
      (*pairs)[out - 1].rows += (*pairs)[i].rows;
    } else {
      (*pairs)[out++] = (*pairs)[i];
    }
  }
  pairs->resize(out);
}

}  // namespace anmat
