#include "hdl/parse.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace hwpat::hdl {

namespace {

// The parser works on views into the text it was given: a line is
// trimmed once, a token is a view into its expression, and a string is
// copied only into the DesignUnit being built or into an error message.

/// Throws the parse error "hdl parse: " + the concatenated `parts`.
template <class... Parts>
[[noreturn]] void fail(const Parts&... parts) {
  std::string msg = "hdl parse: ";
  (msg.append(parts), ...);
  throw Error(msg);
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// True when `line` reads exactly prefix + name + suffix.
bool reads(std::string_view line, std::string_view prefix,
           std::string_view name, std::string_view suffix) {
  return line.size() == prefix.size() + name.size() + suffix.size() &&
         line.starts_with(prefix) && line.ends_with(suffix) &&
         line.substr(prefix.size(), name.size()) == name;
}

/// The parser's one integer conversion: `digits`, negated when
/// `negative`, as a value in [lo, hi].  Anything else (no digits, junk,
/// a value out of range) fails naming `text`, instead of leaking a
/// std::stoi exception or narrowing silently.
long long checked_integer(std::string_view digits, bool negative,
                          long long lo, long long hi,
                          std::string_view text) {
  unsigned long long mag = 0;
  const char* const end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, mag);
  const std::string_view sign = negative ? "-" : "";
  if (ec == std::errc::invalid_argument || ptr != end)
    fail("expected an integer, got '", sign, digits, "' in '", text, "'");
  // A long long holds magnitudes up to 2^63 negated, 2^63 - 1 otherwise.
  const unsigned long long limit = (1ULL << 63) - (negative ? 0 : 1);
  if (ec == std::errc::result_out_of_range || mag > limit)
    fail("integer '", sign, digits, "' is out of range in '", text, "'");
  const long long v = negative ? static_cast<long long>(0 - mag)
                               : static_cast<long long>(mag);
  if (v < lo || v > hi)
    fail("integer '", sign, digits, "' is out of range in '", text, "'");
  return v;
}

/// An optionally negative decimal integer in [lo, hi].
long long signed_integer(std::string_view s, long long lo, long long hi,
                         std::string_view text) {
  const bool negative = s.starts_with('-');
  return checked_integer(negative ? s.substr(1) : s, negative, lo, hi, text);
}

// -------------------------------------------------------------------
// Expression lexer/parser
// -------------------------------------------------------------------

struct Tok {
  enum Kind { Id, Num, Char, Str, Sym, End } kind = End;
  std::string_view s;
};

std::vector<Tok> lex_expr(std::string_view text) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  std::vector<Tok> toks;
  toks.reserve(n + 1);  // at most one token per character, plus End
  // A quote is an attribute tick only after something a postfix can
  // apply to: a *name* or a closing paren.  Keywords and word-operators
  // (else, when, and, ...) are followed by character literals instead.
  auto is_keyword = [](std::string_view s) {
    return s == "and" || s == "or" || s == "xor" || s == "nand" ||
           s == "nor" || s == "not" || s == "when" || s == "else" ||
           s == "downto" || s == "others";
  };
  auto prev_is_postfix = [&] {
    if (toks.empty()) return false;
    const Tok& t = toks.back();
    return (t.kind == Tok::Id && !is_keyword(t.s)) ||
           (t.kind == Tok::Sym && t.s == ")");
  };
  while (i < n) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t b = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_'))
        ++i;
      toks.push_back({Tok::Id, text.substr(b, i - b)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t b = i;
      while (i < n && std::isdigit(static_cast<unsigned char>(text[i])))
        ++i;
      toks.push_back({Tok::Num, text.substr(b, i - b)});
      continue;
    }
    if (c == '"') {
      std::size_t b = ++i;
      while (i < n && text[i] != '"') ++i;
      if (i == n) fail("unterminated bit-string literal in '", text, "'");
      toks.push_back({Tok::Str, text.substr(b, i - b)});
      ++i;
      continue;
    }
    if (c == '\'') {
      if (prev_is_postfix()) {
        toks.push_back({Tok::Sym, text.substr(i, 1)});
        ++i;
        continue;
      }
      if (i + 2 >= n || text[i + 2] != '\'')
        fail("bad character literal in '", text, "'");
      toks.push_back({Tok::Char, text.substr(i + 1, 1)});
      i += 3;
      continue;
    }
    if ((c == '/' && i + 1 < n && text[i + 1] == '=') ||
        (c == '=' && i + 1 < n && text[i + 1] == '>')) {
      toks.push_back({Tok::Sym, text.substr(i, 2)});  // "/=" or "=>"
      i += 2;
      continue;
    }
    if (std::string_view("()+-&=,").find(c) != std::string_view::npos) {
      toks.push_back({Tok::Sym, text.substr(i, 1)});
      ++i;
      continue;
    }
    fail("unexpected character '", text.substr(i, 1), "' in '", text, "'");
  }
  toks.push_back({Tok::End, {}});
  return toks;
}

bool is_known_function(std::string_view name) {
  return name == "unsigned" || name == "std_logic_vector" ||
         name == "resize" || name == "to_integer" ||
         name == "to_unsigned" || name == "shift_right" ||
         name == "shift_left" || name == "rising_edge" ||
         name == "falling_edge";
}

class ExprParser {
 public:
  explicit ExprParser(std::string_view text)
      : text_(text), toks_(lex_expr(text)) {}

  Expr parse() {
    Expr e = parse_cond();
    if (peek().kind != Tok::End)
      fail("trailing tokens after expression in '", text_, "'");
    return e;
  }

  Expr parse_cond() {
    Expr v = parse_logic();
    if (!accept_id("when")) return v;
    Expr c = parse_logic();
    expect_id("else");
    Expr e = parse_cond();
    Expr out;
    out.kind = ExprKind::Cond;
    out.args = {std::move(c), std::move(v), std::move(e)};
    return out;
  }

 private:
  const Tok& peek() const { return toks_[i_]; }
  const Tok& take() { return toks_[i_++]; }

  bool accept_id(std::string_view s) {
    if (peek().kind == Tok::Id && peek().s == s) {
      ++i_;
      return true;
    }
    return false;
  }

  bool accept_sym(std::string_view s) {
    if (peek().kind == Tok::Sym && peek().s == s) {
      ++i_;
      return true;
    }
    return false;
  }

  void expect_id(std::string_view s) {
    if (!accept_id(s)) fail("expected '", s, "' in '", text_, "'");
  }

  void expect_sym(std::string_view s) {
    if (!accept_sym(s)) fail("expected '", s, "' in '", text_, "'");
  }

  static Expr mk_binary(std::string_view op, Expr l, Expr r) {
    Expr e;
    e.kind = ExprKind::Binary;
    e.text = op;
    e.args = {std::move(l), std::move(r)};
    return e;
  }

  bool peek_logic_op() const {
    return peek().kind == Tok::Id &&
           (peek().s == "and" || peek().s == "or" || peek().s == "xor" ||
            peek().s == "nand" || peek().s == "nor");
  }

  Expr parse_logic() {
    Expr l = parse_rel();
    while (peek_logic_op()) {
      const std::string_view op = take().s;
      l = mk_binary(op, std::move(l), parse_rel());
    }
    return l;
  }

  Expr parse_rel() {
    Expr l = parse_add();
    if (peek().kind == Tok::Sym && (peek().s == "=" || peek().s == "/=")) {
      const std::string_view op = take().s;
      return mk_binary(op, std::move(l), parse_add());
    }
    return l;
  }

  Expr parse_add() {
    Expr l = parse_unary();
    while (peek().kind == Tok::Sym &&
           (peek().s == "+" || peek().s == "-" || peek().s == "&")) {
      const std::string_view op = take().s;
      l = mk_binary(op, std::move(l), parse_unary());
    }
    return l;
  }

  Expr parse_unary() {
    if (accept_id("not")) {
      Expr e;
      e.kind = ExprKind::Unary;
      e.text = "not";
      e.args.push_back(parse_unary());
      return e;
    }
    if (accept_sym("-")) {
      Expr e;
      e.kind = ExprKind::Unary;
      e.text = "-";
      e.args.push_back(parse_unary());
      return e;
    }
    return parse_primary();
  }

  /// A slice bound: an optionally negative integer that fits an int.
  int parse_int_token() {
    const bool neg = accept_sym("-");
    if (peek().kind != Tok::Num) fail("expected integer in '", text_, "'");
    return static_cast<int>(
        checked_integer(take().s, neg, INT_MIN, INT_MAX, text_));
  }

  Expr parse_primary() {
    const Tok& t = peek();
    if (t.kind == Tok::Sym && t.s == "(") {
      ++i_;
      if (accept_id("others")) {
        expect_sym("=>");
        if (peek().kind != Tok::Char || peek().s != "0")
          fail("only (others => '0') aggregates are supported, in '",
               text_, "'");
        ++i_;
        expect_sym(")");
        return others0();
      }
      Expr e = parse_cond();
      expect_sym(")");
      return parse_postfix(std::move(e));
    }
    if (t.kind == Tok::Num) {
      ++i_;
      return num(checked_integer(t.s, false, 0, LLONG_MAX, text_));
    }
    if (t.kind == Tok::Char) {
      ++i_;
      if (t.s != "0" && t.s != "1")
        fail("character literal '", t.s, "' is not a bit, in '", text_,
             "'");
      return bitl(t.s[0]);
    }
    if (t.kind == Tok::Str) {
      ++i_;
      return bitsl(std::string(t.s));
    }
    if (t.kind == Tok::Id) {
      ++i_;
      if (is_known_function(t.s) && peek().kind == Tok::Sym &&
          peek().s == "(") {
        ++i_;
        std::vector<Expr> args;
        if (!accept_sym(")")) {
          args.push_back(parse_cond());
          while (accept_sym(",")) args.push_back(parse_cond());
          expect_sym(")");
        }
        return parse_postfix(fcall(std::string(t.s), std::move(args)));
      }
      return parse_postfix(sig(std::string(t.s)));
    }
    fail("unexpected token in '", text_, "'");
  }

  /// Index, slice and attribute suffixes, applied left to right.
  Expr parse_postfix(Expr base) {
    for (;;) {
      if (peek().kind == Tok::Sym && peek().s == "(") {
        ++i_;
        // Lookahead for `N downto M` — a slice; anything else indexes.
        if ((peek().kind == Tok::Num || (peek().kind == Tok::Sym &&
                                         peek().s == "-")) &&
            is_downto_ahead()) {
          const int high = parse_int_token();
          expect_id("downto");
          const int low = parse_int_token();
          expect_sym(")");
          base = slice(std::move(base), high, low);
          continue;
        }
        Expr index = parse_cond();
        expect_sym(")");
        base = idx(std::move(base), std::move(index));
        continue;
      }
      if (peek().kind == Tok::Sym && peek().s == "'") {
        ++i_;
        if (peek().kind != Tok::Id)
          fail("expected attribute name in '", text_, "'");
        Expr a;
        a.kind = ExprKind::Attr;
        a.text = take().s;
        a.args.push_back(std::move(base));
        base = std::move(a);
        continue;
      }
      return base;
    }
  }

  bool is_downto_ahead() const {
    std::size_t j = i_;
    if (toks_[j].kind == Tok::Sym && toks_[j].s == "-") ++j;
    if (toks_[j].kind != Tok::Num) return false;
    ++j;
    return toks_[j].kind == Tok::Id && toks_[j].s == "downto";
  }

  std::string_view text_;
  std::vector<Tok> toks_;
  std::size_t i_ = 0;
};

Expr expr_of(std::string_view text) {
  return ExprParser(trim(text)).parse();
}

// -------------------------------------------------------------------
// Statement parsing (line-oriented, over trimmed lines)
// -------------------------------------------------------------------

/// Splits `text;  -- comment` into the pre-semicolon text and the
/// comment (empty when absent).
std::pair<std::string_view, std::string_view> split_comment(
    std::string_view line) {
  const std::size_t semi = line.rfind(';');
  if (semi == std::string_view::npos)
    fail("statement line without ';': '", line, "'");
  std::string_view comment;
  const std::string_view tail = trim(line.substr(semi + 1));
  if (!tail.empty()) {
    if (!tail.starts_with("-- "))
      fail("trailing junk after ';': '", line, "'");
    comment = tail.substr(3);
  }
  return {line.substr(0, semi), comment};
}

bool is_stmt_terminator(std::string_view t) {
  return t == "end if;" || t == "end case;" || t == "else" ||
         t.starts_with("elsif ") || t.starts_with("when ");
}

class StmtParser {
 public:
  explicit StmtParser(std::span<const std::string_view> lines)
      : lines_(lines) {}

  std::vector<Stmt> parse_all() {
    std::vector<Stmt> out = parse_until_terminator();
    if (i_ < lines_.size())
      fail("unexpected '", lines_[i_], "' outside any block");
    return out;
  }

 private:
  std::vector<Stmt> parse_until_terminator() {
    std::vector<Stmt> out;
    while (i_ < lines_.size() && !is_stmt_terminator(lines_[i_]))
      out.push_back(parse_stmt());
    return out;
  }

  Stmt parse_stmt() {
    const std::string_view line = lines_[i_];
    if (line.starts_with("if ") && line.ends_with(" then"))
      return parse_if();
    if (line.starts_with("case ") && line.ends_with(" is"))
      return parse_case();
    return parse_assign(line);
  }

  Stmt parse_assign(std::string_view line) {
    ++i_;
    const auto [text, comment] = split_comment(line);
    const std::size_t arrow = text.find(" <= ");
    if (arrow == std::string_view::npos)
      fail("expected an assignment: '", line, "'");
    return Stmt(SignalAssign{expr_of(text.substr(0, arrow)),
                             expr_of(text.substr(arrow + 4)),
                             std::string(comment)});
  }

  Stmt parse_if() {
    IfStmt f;
    std::string_view head = lines_[i_++];
    for (;;) {
      const bool is_first = head.starts_with("if ");
      const std::size_t skip = is_first ? 3 : 6;  // "if " / "elsif "
      IfArm arm;
      arm.cond = expr_of(
          head.substr(skip, head.size() - skip - 5));  // strip " then"
      arm.body = parse_until_terminator();
      f.arms.push_back(std::move(arm));
      if (i_ >= lines_.size()) fail("unterminated if statement");
      const std::string_view t = lines_[i_];
      if (t.starts_with("elsif ")) {
        head = lines_[i_++];
        continue;
      }
      if (t == "else") {
        ++i_;
        f.else_body = parse_until_terminator();
        if (i_ >= lines_.size() || lines_[i_] != "end if;")
          fail("unterminated else branch");
        ++i_;
        return Stmt(std::move(f));
      }
      if (t == "end if;") {
        ++i_;
        return Stmt(std::move(f));
      }
      fail("unexpected '", t, "' inside if statement");
    }
  }

  Stmt parse_case() {
    const std::string_view head = lines_[i_++];
    CaseStmt c;
    c.selector =
        expr_of(head.substr(5, head.size() - 5 - 3));  // case .. is
    while (i_ < lines_.size() && lines_[i_].starts_with("when ")) {
      const std::string_view line = lines_[i_++];
      CaseArm arm;
      const std::size_t arrow = line.find(" =>");
      if (arrow == std::string_view::npos)
        fail("malformed case arm: '", line, "'");
      const std::string_view choice = line.substr(5, arrow - 5);
      const std::string_view tail = trim(line.substr(arrow + 3));
      if (!tail.empty()) {
        if (!tail.starts_with("-- "))
          fail("trailing junk after '=>': '", line, "'");
        arm.comment = tail.substr(3);
      }
      if (choice == "others") {
        arm.is_others = true;
      } else {
        arm.choice = expr_of(choice);
      }
      arm.body = parse_until_terminator();
      c.arms.push_back(std::move(arm));
    }
    if (i_ >= lines_.size() || lines_[i_] != "end case;")
      fail("unterminated case statement");
    ++i_;
    return Stmt(std::move(c));
  }

  std::span<const std::string_view> lines_;
  std::size_t i_ = 0;
};

std::vector<Stmt> parse_stmts(std::span<const std::string_view> lines) {
  return StmtParser(lines).parse_all();
}

// -------------------------------------------------------------------
// Unit parsing
// -------------------------------------------------------------------

/// A `std_logic_vector(H downto L)` bound.
int range_bound(std::string_view s, std::string_view text) {
  return static_cast<int>(signed_integer(s, INT_MIN, INT_MAX, text));
}

Type parse_type(std::string_view text) {
  if (text == "std_logic") return Type::bit();
  if (text.starts_with("std_logic_vector(") && text.ends_with(")")) {
    const std::string_view inner = text.substr(17, text.size() - 18);
    const std::size_t d = inner.find(" downto ");
    if (d == std::string_view::npos)
      fail("bad vector range: '", text, "'");
    return Type::range(range_bound(inner.substr(0, d), text),
                       range_bound(inner.substr(d + 8), text));
  }
  fail("unsupported type: '", text, "'");
}

PortDir parse_dir(std::string_view text) {
  if (text == "in") return PortDir::In;
  if (text == "out") return PortDir::Out;
  if (text == "inout") return PortDir::InOut;
  fail("bad port direction: '", text, "'");
}

class UnitParser {
 public:
  explicit UnitParser(std::string_view text) {
    // One entry per '\n'-terminated line, plus an unterminated last
    // line if it is not empty; each line is trimmed once, here.
    const auto lines = std::count(text.begin(), text.end(), '\n') + 1;
    raw_.reserve(static_cast<std::size_t>(lines));
    lines_.reserve(static_cast<std::size_t>(lines));
    while (!text.empty()) {
      const std::size_t nl = text.find('\n');
      raw_.push_back(text.substr(0, nl));
      lines_.push_back(trim(raw_.back()));
      text = nl == std::string_view::npos ? std::string_view()
                                          : text.substr(nl + 1);
    }
  }

  DesignUnit parse() {
    DesignUnit u;
    u.libraries.clear();
    parse_context(u);
    parse_entity(u.entity);
    parse_architecture(u);
    return u;
  }

 private:
  [[nodiscard]] std::string_view raw() const {
    if (i_ >= raw_.size()) fail("unexpected end of file");
    return raw_[i_];
  }

  /// The current line, trimmed.
  [[nodiscard]] std::string_view cur() const {
    if (i_ >= lines_.size()) fail("unexpected end of file");
    return lines_[i_];
  }

  void parse_context(DesignUnit& u) {
    while (i_ < lines_.size() && !cur().starts_with("entity ")) {
      if (!cur().empty()) u.libraries.emplace_back(cur());
      ++i_;
    }
  }

  void parse_entity(Entity& e) {
    const std::string_view head = cur();
    if (!head.starts_with("entity ") || !head.ends_with(" is"))
      fail("expected 'entity NAME is', got '", head, "'");
    e.name = head.substr(7, head.size() - 7 - 3);
    ++i_;
    if (cur() == "generic (") {
      ++i_;
      while (cur() != ");") {
        std::string_view line = cur();
        ++i_;
        if (line.ends_with(";")) line.remove_suffix(1);
        Generic g;
        const std::size_t colon = line.find(" : ");
        if (colon == std::string_view::npos)
          fail("malformed generic: '", line, "'");
        g.name = line.substr(0, colon);
        std::string_view rest = line.substr(colon + 3);
        const std::size_t def = rest.find(" := ");
        if (def != std::string_view::npos) {
          g.default_value = rest.substr(def + 4);
          rest = rest.substr(0, def);
        }
        g.type_name = rest;
        e.generics.push_back(std::move(g));
      }
      ++i_;
    }
    if (cur() == "port (") {
      ++i_;
      std::string_view group;
      while (cur() != ");") {
        const std::string_view line = cur();
        ++i_;
        if (line.starts_with("-- ")) {
          group = line.substr(3);
          continue;
        }
        std::string_view body = line;
        if (body.ends_with(";")) body.remove_suffix(1);
        const std::size_t colon = body.find(" : ");
        if (colon == std::string_view::npos)
          fail("malformed port: '", line, "'");
        Port p;
        p.name = body.substr(0, colon);
        const std::string_view rest = body.substr(colon + 3);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos)
          fail("malformed port: '", line, "'");
        p.dir = parse_dir(rest.substr(0, sp));
        p.type = parse_type(rest.substr(sp + 1));
        p.group = group;
        e.ports.push_back(std::move(p));
      }
      ++i_;
    }
    if (!reads(cur(), "end ", e.name, ";"))
      fail("expected 'end ", e.name, ";', got '", cur(), "'");
    ++i_;
  }

  void parse_architecture(DesignUnit& u) {
    while (i_ < lines_.size() && cur().empty()) ++i_;
    const std::string_view head = cur();
    if (!head.starts_with("architecture ") || !head.ends_with(" is"))
      fail("expected 'architecture A of E is', got '", head, "'");
    const std::string_view mid = head.substr(13, head.size() - 13 - 3);
    const std::size_t of = mid.find(" of ");
    if (of == std::string_view::npos)
      fail("expected 'architecture A of E is', got '", head, "'");
    Architecture& a = u.arch;
    a.name = mid.substr(0, of);
    a.of = mid.substr(of + 4);
    ++i_;
    parse_decls(a);
    if (cur() != "begin") fail("expected 'begin', got '", cur(), "'");
    ++i_;
    while (!reads(cur(), "end ", a.name, ";")) parse_concurrent(a);
    ++i_;
  }

  void parse_decls(Architecture& a) {
    while (cur() != "begin") {
      const std::string_view line = cur();
      if (line.starts_with("component ")) {
        // Verbatim capture, de-indented by the emitter's two spaces.
        std::string joined;
        for (bool first = true;; first = false) {
          std::string_view rawline = raw();
          if (rawline.starts_with("  ")) rawline.remove_prefix(2);
          if (!first) joined += '\n';
          joined += rawline;
          ++i_;
          if (trim(rawline).ends_with("end component;")) break;
        }
        a.component_decls.push_back(std::move(joined));
        continue;
      }
      if (line.starts_with("type ")) {
        a.types.push_back(parse_type_decl(line));
        ++i_;
        continue;
      }
      if (line.starts_with("signal ")) {
        a.signals.push_back(parse_signal_decl(line));
        ++i_;
        continue;
      }
      fail("unexpected declaration: '", line, "'");
    }
  }

  static TypeDecl parse_type_decl(std::string_view line) {
    // type N is array (0 to D-1) of std_logic_vector(W-1 downto 0);
    TypeDecl t;
    std::string_view s = line;
    if (s.ends_with(";")) s.remove_suffix(1);
    const std::size_t is_at = s.find(" is array (0 to ");
    const std::size_t of_at = s.find(") of std_logic_vector(");
    if (!s.starts_with("type ") || is_at == std::string_view::npos ||
        of_at == std::string_view::npos || !s.ends_with(" downto 0)"))
      fail("unsupported type declaration: '", line, "'");
    t.name = s.substr(5, is_at - 5);
    // D-1 and W-1 are stored plus one, so neither may be INT_MAX.
    t.depth = static_cast<int>(
                  signed_integer(s.substr(is_at + 16, of_at - (is_at + 16)),
                                 INT_MIN, INT_MAX - 1, line)) +
              1;
    const std::size_t wb = of_at + 22;  // past ") of std_logic_vector("
    t.elem_width = static_cast<int>(signed_integer(
                       s.substr(wb, s.size() - 10 - wb), INT_MIN,
                       INT_MAX - 1, line)) +
                   1;
    return t;
  }

  static SignalDecl parse_signal_decl(std::string_view line) {
    std::string_view s = line.substr(7);  // "signal "
    if (s.ends_with(";")) s.remove_suffix(1);
    SignalDecl d;
    const std::size_t colon = s.find(" : ");
    if (colon == std::string_view::npos)
      fail("malformed signal declaration: '", line, "'");
    d.name = s.substr(0, colon);
    std::string_view rest = s.substr(colon + 3);
    const std::size_t init = rest.find(" := ");
    if (init != std::string_view::npos) {
      d.init = rest.substr(init + 4);
      rest = rest.substr(0, init);
    }
    if (rest == "std_logic" || rest.starts_with("std_logic_vector(")) {
      d.type = parse_type(rest);
    } else {
      d.type_name = rest;
    }
    return d;
  }

  void parse_concurrent(Architecture& a) {
    const std::string_view line = cur();
    const std::size_t proc = line.find(" : process");
    if (proc != std::string_view::npos) {
      parse_process(a, line, proc);
      return;
    }
    if (i_ + 1 < lines_.size() && lines_[i_ + 1] == "port map (") {
      parse_instance(a, line);
      return;
    }
    ++i_;
    const auto [text, comment] = split_comment(line);
    const std::size_t arrow = text.find(" <= ");
    if (arrow == std::string_view::npos)
      fail("expected a concurrent statement: '", line, "'");
    Assign as;
    as.lhs = expr_of(text.substr(0, arrow));
    as.rhs = expr_of(text.substr(arrow + 4));
    as.comment = comment;
    a.body.push_back(std::move(as));
  }

  void parse_instance(Architecture& a, std::string_view head) {
    Instance inst;
    const std::size_t colon = head.find(" : ");
    if (colon == std::string_view::npos)
      fail("malformed instance header: '", head, "'");
    inst.label = head.substr(0, colon);
    inst.component = head.substr(colon + 3);
    i_ += 2;  // header + "port map ("
    while (cur() != ");") {
      std::string_view line = cur();
      ++i_;
      if (line.ends_with(",")) line.remove_suffix(1);
      const std::size_t arrow = line.find(" => ");
      if (arrow == std::string_view::npos)
        fail("malformed port map entry: '", line, "'");
      inst.port_map.emplace_back(line.substr(0, arrow),
                                 line.substr(arrow + 4));
    }
    ++i_;
    a.body.push_back(std::move(inst));
  }

  void parse_process(Architecture& a, std::string_view head,
                     std::size_t colon_at) {
    Process p;
    p.label = head.substr(0, colon_at);
    const std::string_view after = head.substr(colon_at + 3);  // "process..."
    if (after != "process") {
      if (!after.starts_with("process (") || !after.ends_with(")"))
        fail("malformed process header: '", head, "'");
      const std::string_view list = after.substr(9, after.size() - 10);
      std::size_t b = 0;
      while (b != std::string_view::npos) {
        const std::size_t comma = list.find(", ", b);
        p.sensitivity.emplace_back(list.substr(
            b, comma == std::string_view::npos ? comma : comma - b));
        b = comma == std::string_view::npos ? comma : comma + 2;
      }
    }
    ++i_;
    if (cur() != "begin")
      fail("expected 'begin' after process header, got '", cur(), "'");
    ++i_;
    const std::size_t body_begin = i_;
    while (cur() != "end process;") ++i_;
    fold_process_body(
        p, std::span(lines_).subspan(body_begin, i_ - body_begin));
    ++i_;
    a.body.push_back(std::move(p));
  }

  /// Detects the clocked idiom —
  ///   if <reset> = '1' then ... elsif rising_edge(<clock>) then ...
  ///   end if;
  /// with sensitivity (<clock>, <reset>) — and folds it back into
  /// Process{clocked=true}.  Anything else stays a plain combinational
  /// process.
  static void fold_process_body(Process& p,
                                std::span<const std::string_view> body) {
    if (p.sensitivity.size() == 2 && !body.empty() &&
        reads(body.front(), "if ", p.sensitivity[1], " = '1' then") &&
        body.back() == "end if;") {
      int depth = 1;
      for (std::size_t k = 1; k + 1 < body.size(); ++k) {
        if (depth == 1 && reads(body[k], "elsif rising_edge(",
                                p.sensitivity[0], ") then")) {
          p.clocked = true;
          p.clock = std::move(p.sensitivity[0]);
          p.reset = std::move(p.sensitivity[1]);
          p.sensitivity.clear();
          p.reset_body = parse_stmts(body.subspan(1, k - 1));
          p.body = parse_stmts(body.subspan(k + 1, body.size() - k - 2));
          return;
        }
        if (body[k].starts_with("if ") && body[k].ends_with(" then"))
          ++depth;
        else if (body[k] == "end if;")
          --depth;
      }
    }
    p.body = parse_stmts(body);
  }

  std::vector<std::string_view> raw_;
  std::vector<std::string_view> lines_;  ///< raw_, trimmed
  std::size_t i_ = 0;
};

}  // namespace

Expr parse_expr(const std::string& text) { return expr_of(text); }

DesignUnit parse_unit(const std::string& text) {
  return UnitParser(text).parse();
}

}  // namespace hwpat::hdl
