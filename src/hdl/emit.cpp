#include "hdl/emit.hpp"

#include <cctype>
#include <charconv>
#include <string_view>

#include "common/error.hpp"
#include "common/text.hpp"
#include "hdl/ir.hpp"

namespace hwpat::hdl {

namespace {

// -------------------------------------------------------------------
// Expressions
// -------------------------------------------------------------------

/// Precedence levels.  Parentheses are re-derived from these — the IR
/// never stores them — so the same tree always renders the same bytes,
/// and the parser can discard grouping parens on read without breaking
/// the re-emit byte-identity check.
enum Prec {
  kPrecCond = 0,    // a when c else b
  kPrecLogic = 1,   // and or xor nand nor
  kPrecRel = 2,     // = /=
  kPrecAdd = 3,     // + - &
  kPrecUnary = 4,   // not, unary -
  kPrecPrimary = 5,
};

int prec_of(const Expr& e) {
  switch (e.kind) {
    case ExprKind::Cond:
      return kPrecCond;
    case ExprKind::Unary:
      return kPrecUnary;
    case ExprKind::Binary: {
      const std::string& op = e.text;
      if (op == "and" || op == "or" || op == "xor" || op == "nand" ||
          op == "nor")
        return kPrecLogic;
      if (op == "=" || op == "/=") return kPrecRel;
      return kPrecAdd;  // + - &
    }
    default:
      return kPrecPrimary;
  }
}

/// Operators whose same-op chains emit without parentheses.
bool is_chain_op(const std::string& op) {
  return op == "and" || op == "or" || op == "xor" || op == "+" ||
         op == "&";
}

/// Appends each of `parts` (strings) to `out`.  The emitter builds
/// a whole unit in one string: no stream, no temporary per line.
template <class... Parts>
void put(std::string& out, const Parts&... parts) {
  (out.append(parts), ...);
}

/// Appends `v` in decimal, as `operator<<` would print it.
void put_int(std::string& out, long long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void emit_expr_rec(std::string& out, const Expr& e);

/// Emits `e` in parentheses when `parens`.
void emit_grouped(std::string& out, const Expr& e, bool parens) {
  if (parens) out += '(';
  emit_expr_rec(out, e);
  if (parens) out += ')';
}

/// Emits a child of a binary operator, adding parentheses when the
/// child binds looser than the parent, or equally loose but with a
/// different (or non-chainable) operator.
void emit_child(std::string& out, const Expr& child, const Expr& parent) {
  const int cp = prec_of(child);
  const int pp = prec_of(parent);
  bool parens = cp < pp;
  if (cp == pp && child.kind == ExprKind::Binary)
    parens = child.text != parent.text || !is_chain_op(parent.text);
  emit_grouped(out, child, parens);
}

void emit_expr_rec(std::string& out, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Name:
      out += e.text;
      return;
    case ExprKind::BitLit:
      put(out, "'", e.text, "'");
      return;
    case ExprKind::VecLit:
      put(out, "\"", e.text, "\"");
      return;
    case ExprKind::IntLit:
      put_int(out, e.value);
      return;
    case ExprKind::Others:
      out += "(others => '0')";
      return;
    case ExprKind::Unary: {
      put(out, e.text, " ");
      const Expr& a = e.args.at(0);
      emit_grouped(out, a, prec_of(a) < kPrecUnary);
      return;
    }
    case ExprKind::Binary:
      emit_child(out, e.args.at(0), e);
      put(out, " ", e.text, " ");
      emit_child(out, e.args.at(1), e);
      return;
    case ExprKind::Slice:
      emit_expr_rec(out, e.args.at(0));
      out += '(';
      put_int(out, e.high);
      out += " downto ";
      put_int(out, e.low);
      out += ')';
      return;
    case ExprKind::Index:
      emit_expr_rec(out, e.args.at(0));
      emit_grouped(out, e.args.at(1), true);
      return;
    case ExprKind::Call: {
      put(out, e.text, "(");
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) out += ", ";
        emit_expr_rec(out, e.args[i]);
      }
      out += ')';
      return;
    }
    case ExprKind::Attr:
      emit_expr_rec(out, e.args.at(0));
      put(out, "'", e.text);
      return;
    case ExprKind::Cond:
      // then-value when cond else else-value
      emit_child(out, e.args.at(1), e);
      out += " when ";
      emit_child(out, e.args.at(0), e);
      out += " else ";
      emit_child(out, e.args.at(2), e);
      return;
  }
  throw InternalError("unknown ExprKind");
}

/// `lhs <= rhs;` and its optional `  -- comment`, on one line.
void emit_assign(std::string& out, std::size_t indent, const Expr& lhs,
                 const Expr& rhs, const std::string& comment) {
  out.append(indent, ' ');
  emit_expr_rec(out, lhs);
  out += " <= ";
  emit_expr_rec(out, rhs);
  out += ';';
  if (!comment.empty()) put(out, "  -- ", comment);
  out += '\n';
}

// -------------------------------------------------------------------
// Statements
// -------------------------------------------------------------------

void emit_stmts(std::string& out, const std::vector<Stmt>& stmts,
                std::size_t indent);

struct StmtEmitter {
  std::string& out;
  std::size_t indent;

  /// Starts a line at this statement's indent plus `extra`.
  std::string& line(std::size_t extra = 0) const {
    return out.append(indent + extra, ' ');
  }

  void operator()(const SignalAssign& a) const {
    emit_assign(out, indent, a.lhs, a.rhs, a.comment);
  }

  void operator()(const IfStmt& f) const {
    for (std::size_t i = 0; i < f.arms.size(); ++i) {
      line() += i == 0 ? "if " : "elsif ";
      emit_expr_rec(out, f.arms[i].cond);
      out += " then\n";
      emit_stmts(out, f.arms[i].body, indent + 2);
    }
    if (!f.else_body.empty()) {
      line() += "else\n";
      emit_stmts(out, f.else_body, indent + 2);
    }
    line() += "end if;\n";
  }

  void operator()(const CaseStmt& c) const {
    line() += "case ";
    emit_expr_rec(out, c.selector);
    out += " is\n";
    for (const CaseArm& arm : c.arms) {
      line(2) += "when ";
      if (arm.is_others) {
        out += "others";
      } else {
        emit_expr_rec(out, arm.choice);
      }
      out += " =>";
      if (!arm.comment.empty()) put(out, "  -- ", arm.comment);
      out += '\n';
      emit_stmts(out, arm.body, indent + 4);
    }
    line() += "end case;\n";
  }
};

void emit_stmts(std::string& out, const std::vector<Stmt>& stmts,
                std::size_t indent) {
  for (const Stmt& s : stmts) std::visit(StmtEmitter{out, indent}, s.v);
}

// -------------------------------------------------------------------
// Concurrent items
// -------------------------------------------------------------------

void emit_ports(std::string& out, const Entity& e) {
  out += "  port (\n";
  std::string_view group;
  for (std::size_t i = 0; i < e.ports.size(); ++i) {
    const Port& p = e.ports[i];
    if (p.group != group) {
      group = p.group;
      if (!group.empty()) put(out, "    -- ", group, "\n");
    }
    put(out, "    ", p.name, " : ", to_string(p.dir), " ", p.type.str());
    if (i + 1 < e.ports.size()) out += ';';
    out += '\n';
  }
  out += "  );\n";
}

struct ConcurrentEmitter {
  std::string& out;

  void operator()(const Assign& a) const {
    emit_assign(out, 2, a.lhs, a.rhs, a.comment);
  }

  void operator()(const Instance& inst) const {
    put(out, "  ", inst.label, " : ", inst.component, "\n",
        "    port map (\n");
    for (std::size_t i = 0; i < inst.port_map.size(); ++i) {
      put(out, "      ", inst.port_map[i].first, " => ",
          inst.port_map[i].second);
      if (i + 1 < inst.port_map.size()) out += ',';
      out += '\n';
    }
    out += "    );\n";
  }

  void operator()(const Process& p) const {
    put(out, "  ", p.label, " : process");
    if (p.clocked) {
      put(out, " (", p.clock, ", ", p.reset, ")");
    } else if (!p.sensitivity.empty()) {
      put(out, " (", join(p.sensitivity, ", "), ")");
    }
    out += "\n  begin\n";
    if (p.clocked) {
      put(out, "    if ", p.reset, " = '1' then\n");
      emit_stmts(out, p.reset_body, 6);
      put(out, "    elsif rising_edge(", p.clock, ") then\n");
      emit_stmts(out, p.body, 6);
      out += "    end if;\n";
    } else {
      emit_stmts(out, p.body, 4);
    }
    out += "  end process;\n";
  }
};

void emit_entity_into(std::string& out, const Entity& e) {
  put(out, "entity ", e.name, " is\n");
  if (!e.generics.empty()) {
    out += "  generic (\n";
    for (std::size_t i = 0; i < e.generics.size(); ++i) {
      const Generic& g = e.generics[i];
      put(out, "    ", g.name, " : ", g.type_name);
      if (!g.default_value.empty()) put(out, " := ", g.default_value);
      if (i + 1 < e.generics.size()) out += ';';
      out += '\n';
    }
    out += "  );\n";
  }
  if (!e.ports.empty()) emit_ports(out, e);
  put(out, "end ", e.name, ";\n");
}

void emit_architecture_into(std::string& out, const Architecture& a) {
  put(out, "architecture ", a.name, " of ", a.of, " is\n");
  // Each line of a component declaration, indented two spaces; a final
  // newline ends the last line rather than starting an empty one.
  for (const std::string& c : a.component_decls) {
    for (std::string_view rest = c; !rest.empty();) {
      const std::size_t nl = rest.find('\n');
      put(out, "  ", rest.substr(0, nl), "\n");
      rest = nl == std::string_view::npos ? std::string_view()
                                          : rest.substr(nl + 1);
    }
  }
  for (const auto& t : a.types) {
    put(out, "  type ", t.name, " is array (0 to ");
    put_int(out, t.depth - 1LL);
    out += ") of std_logic_vector(";
    put_int(out, t.elem_width - 1LL);
    out += " downto 0);\n";
  }
  for (const auto& s : a.signals) {
    put(out, "  signal ", s.name, " : ",
        s.type_name.empty() ? s.type.str() : s.type_name);
    if (!s.init.empty()) put(out, " := ", s.init);
    out += ";\n";
  }
  out += "begin\n";
  for (const auto& c : a.body) std::visit(ConcurrentEmitter{out}, c);
  put(out, "end ", a.name, ";\n");
}

}  // namespace

std::string emit_expr(const Expr& e) {
  std::string out;
  emit_expr_rec(out, e);
  return out;
}

std::string emit_entity(const Entity& e) {
  std::string out;
  emit_entity_into(out, e);
  return out;
}

std::string emit_architecture(const Architecture& a) {
  std::string out;
  emit_architecture_into(out, a);
  return out;
}

std::string emit_unit(const DesignUnit& u) {
  validate_unit(u);
  std::string out;
  for (const auto& lib : u.libraries) put(out, lib, "\n");
  out += '\n';
  emit_entity_into(out, u.entity);
  out += '\n';
  emit_architecture_into(out, u.arch);
  return out;
}

std::string legalize_identifier(const std::string& name) {
  std::string out;
  for (char ch : name) {
    const auto c = static_cast<unsigned char>(ch);
    if (std::isalnum(c)) {
      out += static_cast<char>(std::tolower(c));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty()) return "u_x";
  if (std::isdigit(static_cast<unsigned char>(out[0]))) out = "u_" + out;
  if (is_reserved_word(out)) out = "u_" + out;
  return out;
}

}  // namespace hwpat::hdl
