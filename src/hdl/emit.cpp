#include "hdl/emit.hpp"

#include <cctype>
#include <sstream>

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

void emit_expr_rec(std::ostringstream& os, const Expr& e);

/// Emits a child of a binary operator, adding parentheses when the
/// child binds looser than the parent, or equally loose but with a
/// different (or non-chainable) operator.
void emit_child(std::ostringstream& os, const Expr& child,
                const Expr& parent) {
  const int cp = prec_of(child);
  const int pp = prec_of(parent);
  bool parens = cp < pp;
  if (cp == pp && child.kind == ExprKind::Binary)
    parens = child.text != parent.text || !is_chain_op(parent.text);
  if (parens) {
    os << "(";
    emit_expr_rec(os, child);
    os << ")";
  } else {
    emit_expr_rec(os, child);
  }
}

void emit_expr_rec(std::ostringstream& os, const Expr& e) {
  switch (e.kind) {
    case ExprKind::Name:
      os << e.text;
      return;
    case ExprKind::BitLit:
      os << "'" << e.text << "'";
      return;
    case ExprKind::VecLit:
      os << "\"" << e.text << "\"";
      return;
    case ExprKind::IntLit:
      os << e.value;
      return;
    case ExprKind::Others:
      os << "(others => '0')";
      return;
    case ExprKind::Unary: {
      os << e.text << " ";
      const Expr& a = e.args.at(0);
      if (prec_of(a) < kPrecUnary) {
        os << "(";
        emit_expr_rec(os, a);
        os << ")";
      } else {
        emit_expr_rec(os, a);
      }
      return;
    }
    case ExprKind::Binary:
      emit_child(os, e.args.at(0), e);
      os << " " << e.text << " ";
      emit_child(os, e.args.at(1), e);
      return;
    case ExprKind::Slice:
      emit_expr_rec(os, e.args.at(0));
      os << "(" << e.high << " downto " << e.low << ")";
      return;
    case ExprKind::Index:
      emit_expr_rec(os, e.args.at(0));
      os << "(";
      emit_expr_rec(os, e.args.at(1));
      os << ")";
      return;
    case ExprKind::Call: {
      os << e.text << "(";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i) os << ", ";
        emit_expr_rec(os, e.args[i]);
      }
      os << ")";
      return;
    }
    case ExprKind::Attr:
      emit_expr_rec(os, e.args.at(0));
      os << "'" << e.text;
      return;
    case ExprKind::Cond:
      // then-value when cond else else-value
      emit_child(os, e.args.at(1), e);
      os << " when ";
      emit_child(os, e.args.at(0), e);
      os << " else ";
      emit_child(os, e.args.at(2), e);
      return;
  }
  throw InternalError("unknown ExprKind");
}

// -------------------------------------------------------------------
// Statements
// -------------------------------------------------------------------

void emit_stmts(std::ostringstream& os, const std::vector<Stmt>& stmts,
                int indent);

struct StmtEmitter {
  std::ostringstream& os;
  int indent;

  [[nodiscard]] std::string ind(int extra = 0) const {
    return std::string(static_cast<std::size_t>(indent + extra), ' ');
  }

  void operator()(const SignalAssign& a) const {
    os << ind();
    emit_expr_rec(os, a.lhs);
    os << " <= ";
    emit_expr_rec(os, a.rhs);
    os << ";";
    if (!a.comment.empty()) os << "  -- " << a.comment;
    os << "\n";
  }

  void operator()(const IfStmt& f) const {
    for (std::size_t i = 0; i < f.arms.size(); ++i) {
      os << ind() << (i == 0 ? "if " : "elsif ");
      emit_expr_rec(os, f.arms[i].cond);
      os << " then\n";
      emit_stmts(os, f.arms[i].body, indent + 2);
    }
    if (!f.else_body.empty()) {
      os << ind() << "else\n";
      emit_stmts(os, f.else_body, indent + 2);
    }
    os << ind() << "end if;\n";
  }

  void operator()(const CaseStmt& c) const {
    os << ind() << "case ";
    emit_expr_rec(os, c.selector);
    os << " is\n";
    for (const CaseArm& arm : c.arms) {
      os << ind(2) << "when ";
      if (arm.is_others) {
        os << "others";
      } else {
        emit_expr_rec(os, arm.choice);
      }
      os << " =>";
      if (!arm.comment.empty()) os << "  -- " << arm.comment;
      os << "\n";
      emit_stmts(os, arm.body, indent + 4);
    }
    os << ind() << "end case;\n";
  }
};

void emit_stmts(std::ostringstream& os, const std::vector<Stmt>& stmts,
                int indent) {
  for (const Stmt& s : stmts) std::visit(StmtEmitter{os, indent}, s.v);
}

// -------------------------------------------------------------------
// Concurrent items
// -------------------------------------------------------------------

void emit_ports(std::ostringstream& os, const Entity& e) {
  os << "  port (\n";
  std::string group;
  for (std::size_t i = 0; i < e.ports.size(); ++i) {
    const Port& p = e.ports[i];
    if (p.group != group) {
      group = p.group;
      if (!group.empty()) os << "    -- " << group << "\n";
    }
    os << "    " << p.name << " : " << to_string(p.dir) << " "
       << p.type.str();
    if (i + 1 < e.ports.size()) os << ";";
    os << "\n";
  }
  os << "  );\n";
}

struct ConcurrentEmitter {
  std::ostringstream& os;

  void operator()(const Assign& a) const {
    os << "  ";
    emit_expr_rec(os, a.lhs);
    os << " <= ";
    emit_expr_rec(os, a.rhs);
    os << ";";
    if (!a.comment.empty()) os << "  -- " << a.comment;
    os << "\n";
  }

  void operator()(const Instance& inst) const {
    os << "  " << inst.label << " : " << inst.component << "\n"
       << "    port map (\n";
    for (std::size_t i = 0; i < inst.port_map.size(); ++i) {
      os << "      " << inst.port_map[i].first << " => "
         << inst.port_map[i].second;
      if (i + 1 < inst.port_map.size()) os << ",";
      os << "\n";
    }
    os << "    );\n";
  }

  void operator()(const Process& p) const {
    os << "  " << p.label << " : process";
    if (p.clocked) {
      os << " (" << p.clock << ", " << p.reset << ")";
    } else if (!p.sensitivity.empty()) {
      os << " (" << join(p.sensitivity, ", ") << ")";
    }
    os << "\n  begin\n";
    if (p.clocked) {
      os << "    if " << p.reset << " = '1' then\n";
      emit_stmts(os, p.reset_body, 6);
      os << "    elsif rising_edge(" << p.clock << ") then\n";
      emit_stmts(os, p.body, 6);
      os << "    end if;\n";
    } else {
      emit_stmts(os, p.body, 4);
    }
    os << "  end process;\n";
  }
};

}  // namespace

std::string emit_expr(const Expr& e) {
  std::ostringstream os;
  emit_expr_rec(os, e);
  return os.str();
}

std::string emit_entity(const Entity& e) {
  std::ostringstream os;
  os << "entity " << e.name << " is\n";
  if (!e.generics.empty()) {
    os << "  generic (\n";
    for (std::size_t i = 0; i < e.generics.size(); ++i) {
      const Generic& g = e.generics[i];
      os << "    " << g.name << " : " << g.type_name;
      if (!g.default_value.empty()) os << " := " << g.default_value;
      if (i + 1 < e.generics.size()) os << ";";
      os << "\n";
    }
    os << "  );\n";
  }
  if (!e.ports.empty()) emit_ports(os, e);
  os << "end " << e.name << ";\n";
  return os.str();
}

std::string emit_architecture(const Architecture& a) {
  std::ostringstream os;
  os << "architecture " << a.name << " of " << a.of << " is\n";
  for (const auto& c : a.component_decls) {
    std::istringstream lines(c);
    std::string line;
    while (std::getline(lines, line)) os << "  " << line << "\n";
  }
  for (const auto& t : a.types) {
    os << "  type " << t.name << " is array (0 to " << (t.depth - 1)
       << ") of std_logic_vector(" << (t.elem_width - 1)
       << " downto 0);\n";
  }
  for (const auto& s : a.signals) {
    os << "  signal " << s.name << " : "
       << (s.type_name.empty() ? s.type.str() : s.type_name);
    if (!s.init.empty()) os << " := " << s.init;
    os << ";\n";
  }
  os << "begin\n";
  for (const auto& c : a.body) std::visit(ConcurrentEmitter{os}, c);
  os << "end " << a.name << ";\n";
  return os.str();
}

std::string emit_unit(const DesignUnit& u) {
  validate_unit(u);
  std::ostringstream os;
  for (const auto& lib : u.libraries) os << lib << "\n";
  os << "\n" << emit_entity(u.entity) << "\n"
     << emit_architecture(u.arch);
  return os.str();
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
