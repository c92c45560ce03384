// anmat_lint: the in-repo invariant checker.
//
// Enforces the codebase's load-bearing conventions at lint time, before a
// regression can surface as a flaky test or a corrupted project:
//
//   layer-dag       The source tree is layered (see the table below and the
//                   "Static analysis & correctness tooling" section of
//                   ROADMAP.md). A file may include its own directory and
//                   strictly lower layers only — no upward and no
//                   sibling-layer includes.
//   durable-write   Everything durable in src/store and src/anmat goes
//                   through util/fs.h (`WriteFileAtomic`) or the WAL; raw
//                   `ofstream`/`fopen`/`rename` would bypass the fsync +
//                   rename + parent-fsync protocol and the fault-injection
//                   harness.
//   unordered-iter  Iterating an unordered container feeds hash-table
//                   ordering into whatever the loop produces. Any range-for
//                   or .begin() loop over an unordered_map/unordered_set
//                   must either be rewritten over a deterministic order or
//                   carry an annotation arguing why the order cannot leak.
//   banned-call     sprintf/strcpy/atoi are banned in src/ (unbounded
//                   writes, silent parse failures).
//   naked-new       Bare `new` is banned in src/ — use make_unique /
//                   make_shared / containers. (Intentionally leaked
//                   process-lifetime singletons carry an annotation.)
//
// Suppressions: a finding is suppressed by an inline annotation on the same
// line or on a standalone comment line directly above it:
//
//     // lint: unordered-ok (order folded through a sort before output)
//
// The tag is rule-specific (layer-ok, durable-ok, unordered-ok, banned-ok,
// new-ok) and the parenthesized reason is mandatory — a bare tag does not
// suppress.
//
// Output: one `file:line: rule-id: message` per finding; exit 0 when clean,
// 1 on findings, 2 on usage/IO errors. Dependency-free by design (std only,
// no anmat library) so the checker itself sits outside the layer DAG.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// The layer DAG. A file under <root>/<dir>/ may include "<dir>/..." and any
// "<other>/..." whose layer number is strictly lower. Keep in sync with the
// ROADMAP.md "Static analysis & correctness tooling" section.
// ---------------------------------------------------------------------------
const std::map<std::string, int>& LayerOf() {
  static const std::map<std::string, int> kLayers = {
      {"util", 0},     {"relation", 1}, {"csv", 2},      {"pattern", 2},
      {"pfd", 3},      {"dispatch", 4}, {"store", 4},    {"detect", 5},
      {"discovery", 6}, {"repair", 6},  {"datagen", 6},  {"baseline", 6},
      {"anmat", 7},    {"service", 8},
  };
  return kLayers;
}

/// Directories whose writes must go through util/fs.h / the WAL.
bool IsDurableLayer(const std::string& layer) {
  return layer == "store" || layer == "anmat";
}

struct Finding {
  std::string file;
  size_t line = 0;  // 1-based
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

// ---------------------------------------------------------------------------
// Scrubber: splits a translation unit into per-line code text (string and
// character literals blanked, comments removed) and per-line comment text
// (for suppression annotations). Handles // and /* */ comments, escape
// sequences, and R"delim(...)delim" raw strings.
// ---------------------------------------------------------------------------
struct ScrubbedFile {
  std::vector<std::string> code;      // [i] = code text of line i+1
  std::vector<std::string> comments;  // [i] = comment text of line i+1
};

ScrubbedFile Scrub(const std::string& content) {
  ScrubbedFile out;
  std::string code, comment;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of an open raw string
  const size_t n = content.size();
  for (size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      out.code.push_back(code);
      out.comments.push_back(comment);
      code.clear();
      comment.clear();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string? Look back over an optional encoding prefix for R.
          bool raw = false;
          if (i > 0 && content[i - 1] == 'R') {
            // Exclude identifiers ending in R (e.g. `kVarR"..."` cannot
            // appear; `MACRO_R"x"` could — require non-ident before R).
            raw = i < 2 || (!std::isalnum(static_cast<unsigned char>(
                                content[i - 2])) &&
                            content[i - 2] != '_');
          }
          if (raw) {
            size_t j = i + 1;
            std::string delim;
            while (j < n && content[j] != '(' && content[j] != '\n') {
              delim.push_back(content[j]);
              ++j;
            }
            if (j < n && content[j] == '(') {
              state = State::kRawString;
              raw_delim = ")" + delim + "\"";
              code += "\"\"";  // leave an empty literal in the code text
              i = j;           // skip past the opening paren
              break;
            }
          }
          state = State::kString;
          code += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code += '\'';
        } else {
          code += c;
        }
        break;
      case State::kLineComment:
        comment += c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment += c;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          ++i;  // skip the escaped character
        } else if (c == '"') {
          state = State::kCode;
          code += '"';
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          code += '\'';
        }
        break;
      case State::kRawString: {
        if (c == ')' && content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
      }
    }
  }
  out.code.push_back(code);
  out.comments.push_back(comment);
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Does `comment` carry `lint: <tag> (<nonempty reason>)`?
bool CommentSuppresses(const std::string& comment, const std::string& tag) {
  size_t pos = comment.find("lint:");
  while (pos != std::string::npos) {
    size_t p = pos + 5;
    while (p < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[p]))) {
      ++p;
    }
    if (comment.compare(p, tag.size(), tag) == 0) {
      p += tag.size();
      while (p < comment.size() &&
             std::isspace(static_cast<unsigned char>(comment[p]))) {
        ++p;
      }
      if (p < comment.size() && comment[p] == '(') {
        const size_t close = comment.find(')', p);
        if (close != std::string::npos) {
          const std::string reason = comment.substr(p + 1, close - p - 1);
          if (reason.find_first_not_of(" \t") != std::string::npos) {
            return true;
          }
        }
      }
    }
    pos = comment.find("lint:", pos + 5);
  }
  return false;
}

/// A finding at `line` (1-based) is suppressed by an annotation on that
/// line, or on a directly preceding standalone comment line.
bool Suppressed(const ScrubbedFile& f, size_t line, const std::string& tag) {
  const size_t i = line - 1;
  if (i < f.comments.size() && CommentSuppresses(f.comments[i], tag)) {
    return true;
  }
  // Walk up over standalone comment lines (code part blank).
  for (size_t j = i; j > 0; --j) {
    const size_t prev = j - 1;
    const bool blank_code =
        f.code[prev].find_first_not_of(" \t") == std::string::npos;
    if (!blank_code) break;
    if (f.comments[prev].empty()) break;
    if (CommentSuppresses(f.comments[prev], tag)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Token helpers over scrubbed code text
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Finds `word` in `s` at a word boundary, starting at `from`.
size_t FindWord(const std::string& s, const std::string& word, size_t from) {
  size_t pos = s.find(word, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(s[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !IsIdentChar(s[end]);
    if (left_ok && right_ok) return pos;
    pos = s.find(word, pos + 1);
  }
  return std::string::npos;
}

/// The trailing identifier of an expression: `(*other.map_)` -> "map_",
/// `dict.postings()` -> "postings", `items` -> "items".
std::string TrailingIdentifier(std::string_view expr) {
  // Strip trailing non-identifier characters (parens of a call, `)`, `;`).
  size_t end = expr.size();
  while (end > 0 && !IsIdentChar(expr[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
  return std::string(expr.substr(begin, end - begin));
}

// ---------------------------------------------------------------------------
// One file's lint state
// ---------------------------------------------------------------------------
class FileLinter {
 public:
  FileLinter(std::string display_path, std::string layer,
             const std::string& content)
      : path_(std::move(display_path)),
        layer_(std::move(layer)),
        scrubbed_(Scrub(content)) {
    // Join the code text for multi-line constructs, remembering where each
    // line starts.
    for (const std::string& line : scrubbed_.code) {
      line_offset_.push_back(joined_.size());
      joined_ += line;
      joined_ += '\n';
    }
  }

  std::vector<Finding> Run() {
    if (IsDurableLayer(layer_)) CheckDurableWrites();
    CheckBannedCalls();
    CollectUnorderedNames();
    CheckUnorderedLoops();
    std::sort(findings_.begin(), findings_.end());
    return std::move(findings_);
  }

 private:
  size_t LineAt(size_t offset) const {
    // line_offset_ is ascending; the line of `offset` is the last start
    // <= offset. 1-based.
    const auto it = std::upper_bound(line_offset_.begin(), line_offset_.end(),
                                     offset);
    return static_cast<size_t>(it - line_offset_.begin());
  }

  void Report(size_t line, const std::string& rule, const std::string& tag,
              std::string message) {
    if (Suppressed(scrubbed_, line, tag)) return;
    findings_.push_back(Finding{path_, line, rule, std::move(message)});
  }

 public:
  // ----- layer-dag ---------------------------------------------------------
  /// Includes must be parsed from raw lines (Scrub blanks string-literal
  /// contents), so the driver feeds them in separately.
  void CheckIncludeLine(size_t line_index, const std::string& raw_line) {
    const auto& layers = LayerOf();
    const auto self = layers.find(layer_);
    if (self == layers.end()) return;
    size_t h = raw_line.find("#");
    if (h == std::string::npos) return;
    size_t inc = raw_line.find("include", h);
    if (inc == std::string::npos) return;
    size_t q1 = raw_line.find('"', inc);
    if (q1 == std::string::npos) return;
    size_t q2 = raw_line.find('"', q1 + 1);
    if (q2 == std::string::npos) return;
    const std::string target = raw_line.substr(q1 + 1, q2 - q1 - 1);
    const size_t slash = target.find('/');
    if (slash == std::string::npos) return;
    const std::string dir = target.substr(0, slash);
    const auto tgt = layers.find(dir);
    if (tgt == layers.end()) return;
    if (dir == layer_) return;
    if (tgt->second < self->second) return;
    std::ostringstream msg;
    msg << "'" << layer_ << "' (layer " << self->second
        << ") must not include '" << dir << "' (layer " << tgt->second
        << "): \"" << target
        << "\" — the layer DAG allows includes into strictly lower layers "
           "only (see ROADMAP.md)";
    Report(line_index + 1, "layer-dag", "layer-ok", msg.str());
  }

 private:
  // ----- durable-write -----------------------------------------------------
  void CheckDurableWrites() {
    static const char* kBanned[] = {"ofstream", "fopen", "rename", "fwrite"};
    for (size_t i = 0; i < scrubbed_.code.size(); ++i) {
      for (const char* word : kBanned) {
        if (FindWord(scrubbed_.code[i], word, 0) != std::string::npos) {
          Report(i + 1, "durable-write", "durable-ok",
                 std::string("direct '") + word + "' in " + layer_ +
                     "/ bypasses the durability protocol — route writes "
                     "through util/fs.h (WriteFileAtomic) or the WAL");
        }
      }
    }
  }

  // ----- banned-call + naked-new ------------------------------------------
  void CheckBannedCalls() {
    static const char* kBanned[] = {"sprintf", "strcpy", "atoi"};
    for (size_t i = 0; i < scrubbed_.code.size(); ++i) {
      const std::string& line = scrubbed_.code[i];
      for (const char* word : kBanned) {
        if (FindWord(line, word, 0) != std::string::npos) {
          Report(i + 1, "banned-call", "banned-ok",
                 std::string("'") + word +
                     "' is banned in src/ (unbounded write / silent parse "
                     "failure) — use snprintf/std::string/StrToInt-style "
                     "checked parsing");
        }
      }
      size_t pos = FindWord(line, "new", 0);
      while (pos != std::string::npos) {
        // `operator new` declarations are not allocations.
        const std::string before = line.substr(0, pos);
        const bool op_decl =
            before.size() >= 8 &&
            before.find("operator") != std::string::npos;
        if (!op_decl) {
          Report(i + 1, "naked-new", "new-ok",
                 "bare 'new' in src/ — use std::make_unique/std::make_shared "
                 "or a container (annotate intentionally leaked "
                 "process-lifetime singletons)");
          break;  // one finding per line is enough
        }
        pos = FindWord(line, "new", pos + 3);
      }
    }
  }

  // ----- unordered-iter ----------------------------------------------------
  void CollectUnorderedNames() {
    static const char* kTypes[] = {"unordered_map", "unordered_set",
                                   "unordered_multimap",
                                   "unordered_multiset"};
    for (const char* type : kTypes) {
      size_t pos = FindWord(joined_, type, 0);
      while (pos != std::string::npos) {
        size_t p = pos + std::strlen(type);
        if (p < joined_.size() && joined_[p] == '<') {
          // Bracket-match the template argument list.
          int depth = 0;
          size_t q = p;
          for (; q < joined_.size(); ++q) {
            if (joined_[q] == '<') ++depth;
            if (joined_[q] == '>' && --depth == 0) break;
          }
          if (q < joined_.size()) {
            // The next identifier after the closing '>' (skipping
            // whitespace, '*', '&') is the declared name — if the next
            // token is anything else (e.g. '(' of a temporary, ';' of a
            // using-alias, ':' of an mem-initializer) there is none.
            size_t r = q + 1;
            while (r < joined_.size() &&
                   (std::isspace(static_cast<unsigned char>(joined_[r])) ||
                    joined_[r] == '*' || joined_[r] == '&')) {
              ++r;
            }
            size_t e = r;
            while (e < joined_.size() && IsIdentChar(joined_[e])) ++e;
            if (e > r) {
              unordered_names_.insert(joined_.substr(r, e - r));
            }
          }
        }
        pos = FindWord(joined_, type, pos + 1);
      }
    }
  }

  void CheckUnorderedLoops() {
    size_t pos = FindWord(joined_, "for", 0);
    while (pos != std::string::npos) {
      size_t p = pos + 3;
      while (p < joined_.size() &&
             std::isspace(static_cast<unsigned char>(joined_[p]))) {
        ++p;
      }
      if (p < joined_.size() && joined_[p] == '(') {
        int depth = 0;
        size_t q = p;
        for (; q < joined_.size(); ++q) {
          if (joined_[q] == '(') ++depth;
          if (joined_[q] == ')' && --depth == 0) break;
        }
        if (q < joined_.size()) {
          const std::string_view inner(joined_.data() + p + 1, q - p - 1);
          CheckOneLoop(pos, inner);
        }
      }
      pos = FindWord(joined_, "for", pos + 3);
    }
  }

  void CheckOneLoop(size_t for_offset, std::string_view inner) {
    const size_t line = LineAt(for_offset);
    // Range-for: a top-level single ':' (not '::').
    int depth = 0;
    size_t colon = std::string_view::npos;
    for (size_t i = 0; i < inner.size(); ++i) {
      const char c = inner[i];
      if (c == '(' || c == '[' || c == '<' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '>' || c == '}') --depth;
      if (c == ':' && depth == 0) {
        if ((i + 1 < inner.size() && inner[i + 1] == ':') ||
            (i > 0 && inner[i - 1] == ':')) {
          continue;  // '::' qualifier
        }
        colon = i;
        break;
      }
    }
    if (colon != std::string_view::npos) {
      const std::string_view range = inner.substr(colon + 1);
      const std::string base = TrailingIdentifier(range);
      const bool named = unordered_names_.count(base) > 0;
      const bool inline_unordered =
          range.find("unordered_") != std::string_view::npos;
      if (named || inline_unordered) {
        Report(line, "unordered-iter", "unordered-ok",
               "range-for over unordered container '" +
                   (named ? base : std::string("<temporary>")) +
                   "' — hash iteration order must not reach user-visible "
                   "output; iterate a sorted view or annotate why the order "
                   "cannot leak");
      }
      return;
    }
    // Iterator form: for (auto it = X.begin(); ...)
    for (const std::string& name : unordered_names_) {
      const size_t at = inner.find(name + ".begin()");
      const size_t at2 = inner.find(name + ".cbegin()");
      if (at != std::string_view::npos || at2 != std::string_view::npos) {
        Report(line, "unordered-iter", "unordered-ok",
               "iterator loop over unordered container '" + name +
                   "' — hash iteration order must not reach user-visible "
                   "output; iterate a sorted view or annotate why the order "
                   "cannot leak");
        return;
      }
    }
  }

  std::string path_;
  std::string layer_;
  ScrubbedFile scrubbed_;
  std::string joined_;
  std::vector<size_t> line_offset_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

bool LintableExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

/// Lints one file; `layer` is the directory name under the lint root ("" =
/// no layer, layer rules skipped).
bool LintFile(const fs::path& file, const std::string& display,
              const std::string& layer, std::vector<Finding>* findings) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    std::cerr << "anmat_lint: cannot read " << display << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();

  FileLinter linter(display, layer, content);
  // Layer rule needs the raw include lines (the scrubber blanks string
  // contents).
  std::istringstream lines(content);
  std::string raw;
  size_t idx = 0;
  std::vector<std::pair<size_t, std::string>> include_lines;
  while (std::getline(lines, raw)) {
    if (raw.find("#") != std::string::npos &&
        raw.find("include") != std::string::npos) {
      include_lines.emplace_back(idx, raw);
    }
    ++idx;
  }
  for (const auto& [i, l] : include_lines) linter.CheckIncludeLine(i, l);
  std::vector<Finding> fs_found = linter.Run();
  findings->insert(findings->end(), fs_found.begin(), fs_found.end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: anmat_lint <dir|file>...\n"
              << "lints .h/.cc files; directory arguments are walked "
                 "recursively,\nwith their immediate subdirectories as "
                 "layers of the DAG\n";
    return 2;
  }
  std::vector<Finding> findings;
  bool io_ok = true;
  for (int a = 1; a < argc; ++a) {
    const fs::path root(argv[a]);
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      std::vector<fs::path> files;
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && LintableExtension(it->path())) {
          files.push_back(it->path());
        }
      }
      std::sort(files.begin(), files.end());
      for (const fs::path& f : files) {
        const fs::path rel = fs::relative(f, root, ec);
        std::string layer;
        if (!rel.empty() && rel.has_parent_path()) {
          layer = rel.begin()->string();
        }
        io_ok &= LintFile(f, f.generic_string(), layer, &findings);
      }
    } else if (fs::is_regular_file(root, ec)) {
      const std::string layer = root.parent_path().filename().string();
      io_ok &= LintFile(root, root.generic_string(),
                        LayerOf().count(layer) ? layer : "", &findings);
    } else {
      std::cerr << "anmat_lint: no such file or directory: " << argv[a]
                << "\n";
      io_ok = false;
    }
  }
  std::sort(findings.begin(), findings.end());
  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
              << f.message << "\n";
  }
  if (!io_ok) return 2;
  return findings.empty() ? 0 : 1;
}
