#include "hdl/ast.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

#include "common/error.hpp"

namespace hwpat::hdl {

std::string to_string(PortDir d) {
  switch (d) {
    case PortDir::In: return "in";
    case PortDir::Out: return "out";
    case PortDir::InOut: return "inout";
  }
  throw InternalError("unknown PortDir");
}

std::string Type::str() const {
  if (!is_vector) return "std_logic";
  return "std_logic_vector(" + std::to_string(high) + " downto " +
         std::to_string(low) + ")";
}

const Port* Entity::find_port(const std::string& pname) const {
  for (const auto& p : ports)
    if (p.name == pname) return &p;
  return nullptr;
}

std::vector<std::string> Entity::port_names() const {
  std::vector<std::string> names;
  names.reserve(ports.size());
  for (const auto& p : ports) names.push_back(p.name);
  return names;
}

namespace {

// The VHDL'93 reserved words (LRM Annex B), lowercase and sorted, so a
// lookup is a binary search.
constexpr std::array<std::string_view, 97> kReserved = {
    "abs",        "access",    "after",      "alias",     "all",
    "and",        "architecture", "array",   "assert",    "attribute",
    "begin",      "block",     "body",       "buffer",    "bus",
    "case",       "component", "configuration", "constant", "disconnect",
    "downto",     "else",      "elsif",      "end",       "entity",
    "exit",       "file",      "for",        "function",  "generate",
    "generic",    "group",     "guarded",    "if",        "impure",
    "in",         "inertial",  "inout",      "is",        "label",
    "library",    "linkage",   "literal",    "loop",      "map",
    "mod",        "nand",      "new",        "next",      "nor",
    "not",        "null",      "of",         "on",        "open",
    "or",         "others",    "out",        "package",   "port",
    "postponed",  "procedure", "process",    "pure",      "range",
    "record",     "register",  "reject",     "rem",       "report",
    "return",     "rol",       "ror",        "select",    "severity",
    "shared",     "signal",    "sla",        "sll",       "sra",
    "srl",        "subtype",   "then",       "to",        "transport",
    "type",       "unaffected", "units",     "until",     "use",
    "variable",   "wait",      "when",       "while",     "with",
    "xnor",       "xor",
};
static_assert(std::is_sorted(kReserved.begin(), kReserved.end()));

constexpr std::size_t kLongestReserved = std::max_element(
    kReserved.begin(), kReserved.end(),
    [](std::string_view a, std::string_view b) {
      return a.size() < b.size();
    })->size();

}  // namespace

bool is_reserved_word(const std::string& name) {
  // The validator asks this for every identifier it sees, so the
  // lowercase copy lives on the stack, not the heap.
  if (name.size() > kLongestReserved) return false;
  std::array<char, kLongestReserved> lower{};
  std::transform(name.begin(), name.end(), lower.begin(),
                 [](unsigned char c) {
                   return static_cast<char>(std::tolower(c));
                 });
  return std::binary_search(kReserved.begin(), kReserved.end(),
                            std::string_view(lower.data(), name.size()));
}

bool is_legal_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0]))) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    const auto c = static_cast<unsigned char>(name[i]);
    if (!std::isalnum(c) && name[i] != '_') return false;
    if (name[i] == '_' && name[i - 1] == '_') return false;
  }
  if (name.back() == '_') return false;
  return !is_reserved_word(name);
}

void validate_identifier(const std::string& name,
                         const std::string& field) {
  if (is_legal_identifier(name)) return;
  if (is_reserved_word(name))
    throw Error("hdl: " + field + " '" + name +
                "' is a VHDL reserved word — rename it (or run it "
                "through legalize_identifier)");
  throw Error("hdl: " + field + " '" + name +
              "' is not a legal VHDL identifier (letter first, "
              "letters/digits/underscores, no double or trailing "
              "underscore)");
}

}  // namespace hwpat::hdl
