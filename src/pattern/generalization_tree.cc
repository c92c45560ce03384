#include "pattern/generalization_tree.h"

#include <string>

#include "util/string_util.h"

namespace anmat {

SymbolClass ClassOfChar(char c) {
  if (IsUpper(c)) return SymbolClass::kUpper;
  if (IsLower(c)) return SymbolClass::kLower;
  if (IsDigit(c)) return SymbolClass::kDigit;
  return SymbolClass::kSymbol;
}

bool ClassMatchesChar(SymbolClass cls, char c) {
  switch (cls) {
    case SymbolClass::kLiteral:
      return false;  // caller must compare the stored literal
    case SymbolClass::kUpper:
      return IsUpper(c);
    case SymbolClass::kLower:
      return IsLower(c);
    case SymbolClass::kDigit:
      return IsDigit(c);
    case SymbolClass::kSymbol:
      return IsSymbol(c);
    case SymbolClass::kAny:
      return true;
  }
  return false;
}

bool ClassContains(SymbolClass general, SymbolClass specific) {
  if (general == SymbolClass::kAny) return true;
  if (general == specific) return true;
  // Every class contains the literal leaves beneath it; the caller checks
  // which leaf. Here literal is only contained by itself and by kAny.
  return false;
}

SymbolClass JoinClasses(SymbolClass a, SymbolClass b) {
  if (a == b) return a;
  return SymbolClass::kAny;
}

const char* SymbolClassToken(SymbolClass cls) {
  switch (cls) {
    case SymbolClass::kLiteral:
      return "";
    case SymbolClass::kUpper:
      return "\\LU";
    case SymbolClass::kLower:
      return "\\LL";
    case SymbolClass::kDigit:
      return "\\D";
    case SymbolClass::kSymbol:
      return "\\S";
    case SymbolClass::kAny:
      return "\\A";
  }
  return "";
}

std::string RenderGeneralizationTree() {
  std::string out;
  out += "                         All [\\A]\n";
  out += "        +-----------+---------+-----------+\n";
  out += "   Upper [\\LU]  Lower [\\LL]  Digit [\\D]  Symbol [\\S]\n";
  out += "     A ... Z      a ... z      0 ... 9    . , - # ...\n";
  out += "  (epsilon is expressed by zero-width quantifiers)\n";
  return out;
}

}  // namespace anmat
