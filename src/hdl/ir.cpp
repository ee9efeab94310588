#include "hdl/ir.hpp"

#include <string_view>
#include <unordered_map>

#include "common/error.hpp"
#include "hdl/ast.hpp"

namespace hwpat::hdl {

// ---------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------

Expr sig(std::string name) {
  Expr e;
  e.kind = ExprKind::Name;
  e.text = std::move(name);
  return e;
}

Expr bitl(char v) {
  HWPAT_ASSERT(v == '0' || v == '1');
  Expr e;
  e.kind = ExprKind::BitLit;
  e.text = std::string(1, v);
  return e;
}

Expr bitsl(std::string bits) {
  HWPAT_ASSERT(!bits.empty());
  Expr e;
  e.kind = ExprKind::VecLit;
  e.text = std::move(bits);
  return e;
}

Expr num(long long v) {
  Expr e;
  e.kind = ExprKind::IntLit;
  e.value = v;
  return e;
}

Expr others0() {
  Expr e;
  e.kind = ExprKind::Others;
  return e;
}

namespace {

Expr unary(std::string op, Expr operand) {
  Expr e;
  e.kind = ExprKind::Unary;
  e.text = std::move(op);
  e.args.push_back(std::move(operand));
  return e;
}

Expr binary(std::string op, Expr l, Expr r) {
  Expr e;
  e.kind = ExprKind::Binary;
  e.text = std::move(op);
  e.args.push_back(std::move(l));
  e.args.push_back(std::move(r));
  return e;
}

}  // namespace

Expr not_(Expr e) { return unary("not", std::move(e)); }
Expr and_(Expr l, Expr r) {
  return binary("and", std::move(l), std::move(r));
}
Expr or_(Expr l, Expr r) { return binary("or", std::move(l), std::move(r)); }
Expr xor_(Expr l, Expr r) {
  return binary("xor", std::move(l), std::move(r));
}
Expr eq(Expr l, Expr r) { return binary("=", std::move(l), std::move(r)); }
Expr ne(Expr l, Expr r) { return binary("/=", std::move(l), std::move(r)); }
Expr add(Expr l, Expr r) { return binary("+", std::move(l), std::move(r)); }
Expr sub(Expr l, Expr r) { return binary("-", std::move(l), std::move(r)); }
Expr concat(Expr l, Expr r) {
  return binary("&", std::move(l), std::move(r));
}

Expr slice(Expr e, int high, int low) {
  Expr s;
  s.kind = ExprKind::Slice;
  s.high = high;
  s.low = low;
  s.args.push_back(std::move(e));
  return s;
}

Expr idx(Expr e, Expr index) {
  Expr s;
  s.kind = ExprKind::Index;
  s.args.push_back(std::move(e));
  s.args.push_back(std::move(index));
  return s;
}

Expr fcall(std::string fn, std::vector<Expr> args) {
  Expr e;
  e.kind = ExprKind::Call;
  e.text = std::move(fn);
  e.args = std::move(args);
  return e;
}

Expr uns(Expr e) { return fcall("unsigned", {std::move(e)}); }
Expr slv(Expr e) { return fcall("std_logic_vector", {std::move(e)}); }
Expr resize_(Expr e, Expr width) {
  return fcall("resize", {std::move(e), std::move(width)});
}
Expr to_int(Expr e) { return fcall("to_integer", {std::move(e)}); }
Expr shr(Expr e, int by) {
  return fcall("shift_right", {std::move(e), num(by)});
}
Expr rising_edge_(Expr clk) {
  return fcall("rising_edge", {std::move(clk)});
}

Expr attr_len(Expr e) {
  Expr a;
  a.kind = ExprKind::Attr;
  a.text = "length";
  a.args.push_back(std::move(e));
  return a;
}

Expr when_else(Expr cond, Expr then_v, Expr else_v) {
  Expr e;
  e.kind = ExprKind::Cond;
  e.args.push_back(std::move(cond));
  e.args.push_back(std::move(then_v));
  e.args.push_back(std::move(else_v));
  return e;
}

Stmt assign(Expr lhs, Expr rhs) {
  return Stmt(SignalAssign{std::move(lhs), std::move(rhs), ""});
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

namespace {

/// Inferred value class of an expression.  kWild stands for a width
/// that adapts to its context ((others => '0')).
constexpr int kWild = -1;

struct VInfo {
  enum class Cls { Logic, Vector, Unsigned, Integer, Boolean, Memory };
  Cls cls = Cls::Logic;
  int width = 1;
  // Declared index range, for slice-bound checking (set for declared
  // vector signals/ports).
  bool has_range = false;
  int high = 0;
  int low = 0;
  int elem_width = 0;  ///< Memory
};

const char* cls_name(VInfo::Cls c) {
  switch (c) {
    case VInfo::Cls::Logic: return "std_logic";
    case VInfo::Cls::Vector: return "std_logic_vector";
    case VInfo::Cls::Unsigned: return "unsigned";
    case VInfo::Cls::Integer: return "integer";
    case VInfo::Cls::Boolean: return "boolean";
    case VInfo::Cls::Memory: return "memory array";
  }
  return "?";
}

/// Validation runs on every emit, so its success path allocates
/// nothing per identifier: symbols are views into the unit being
/// validated, and error text is built only on a failure path.
struct Validator {
  const DesignUnit& u;
  std::unordered_map<std::string_view, VInfo> syms;

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error("hdl validate ('" + u.entity.name + "'): " + msg);
  }

  /// validate_identifier() with the field text built only when `name`
  /// is bad; `in_entity` appends " (entity 'NAME')" to the field.
  void check_name(const std::string& name, const char* field,
                  bool in_entity = false) const {
    if (is_legal_identifier(name)) return;
    std::string f = field;
    if (in_entity) f += " (entity '" + u.entity.name + "')";
    validate_identifier(name, f);
  }

  void declare(const std::string& name, VInfo info, const char* field,
               bool in_entity = false) {
    check_name(name, field, in_entity);
    if (!syms.emplace(name, info).second)
      fail("duplicate declaration of '" + name + "'");
  }

  static VInfo of_type(const Type& t) {
    VInfo v;
    if (t.is_vector) {
      v.cls = VInfo::Cls::Vector;
      v.width = t.width();
      v.has_range = true;
      v.high = t.high;
      v.low = t.low;
    }
    return v;
  }

  void build_symbols() {
    check_name(u.entity.name, "entity name");
    syms.reserve(u.entity.generics.size() + u.entity.ports.size() +
                 u.arch.signals.size());
    for (const auto& g : u.entity.generics)
      declare(g.name, VInfo{.cls = VInfo::Cls::Integer}, "generic name",
              true);
    for (const auto& p : u.entity.ports) {
      if (p.type.is_vector && p.type.width() == 0)
        fail("port '" + p.name + "' has a null (degenerate) range " +
             p.type.str());
      declare(p.name, of_type(p.type), "port name", true);
    }
    std::unordered_map<std::string_view, const TypeDecl*> types;
    for (const auto& t : u.arch.types) {
      check_name(t.name, "type name");
      if (t.elem_width < 1 || t.depth < 1)
        fail("array type '" + t.name + "' has a degenerate shape");
      if (!types.emplace(t.name, &t).second)
        fail("duplicate type declaration '" + t.name + "'");
    }
    for (const auto& s : u.arch.signals) {
      if (!s.type_name.empty()) {
        const auto it = types.find(s.type_name);
        if (it == types.end())
          fail("signal '" + s.name + "' uses undeclared type '" +
               s.type_name + "'");
        VInfo v;
        v.cls = VInfo::Cls::Memory;
        v.elem_width = it->second->elem_width;
        declare(s.name, v, "signal name");
        continue;
      }
      if (s.type.is_vector && s.type.width() == 0)
        fail("signal '" + s.name + "' has a null (degenerate) range " +
             s.type.str());
      declare(s.name, of_type(s.type), "signal name");
    }
  }

  VInfo lookup(const std::string& name) const {
    const auto it = syms.find(name);
    if (it == syms.end()) fail("reference to undeclared name '" + name + "'");
    return it->second;
  }

  static bool widths_agree(int a, int b) {
    return a == kWild || b == kWild || a == b;
  }

  VInfo infer(const Expr& e) const {
    using Cls = VInfo::Cls;
    switch (e.kind) {
      case ExprKind::Name:
        return lookup(e.text);
      case ExprKind::BitLit:
        return VInfo{.cls = Cls::Logic};
      case ExprKind::VecLit:
        return VInfo{.cls = Cls::Vector,
                     .width = static_cast<int>(e.text.size())};
      case ExprKind::IntLit:
        return VInfo{.cls = Cls::Integer};
      case ExprKind::Others:
        return VInfo{.cls = Cls::Vector, .width = kWild};
      case ExprKind::Unary: {
        const VInfo a = infer(e.args.at(0));
        if (e.text == "not") {
          if (a.cls == Cls::Integer || a.cls == Cls::Memory)
            fail("'not' applied to " + std::string(cls_name(a.cls)));
          return a;
        }
        if (e.text == "-") {
          if (a.cls != Cls::Integer && a.cls != Cls::Unsigned)
            fail("unary '-' applied to " + std::string(cls_name(a.cls)));
          return a;
        }
        fail("unknown unary operator '" + e.text + "'");
      }
      case ExprKind::Binary:
        return infer_binary(e);
      case ExprKind::Slice: {
        const Expr& base = e.args.at(0);
        if (base.kind != ExprKind::Name)
          fail("slice of a non-name expression is not supported");
        const VInfo b = lookup(base.text);
        if (b.cls != Cls::Vector && b.cls != Cls::Unsigned)
          fail("slice of non-vector '" + base.text + "'");
        if (e.high < e.low)
          fail("slice " + base.text + "(" + std::to_string(e.high) +
               " downto " + std::to_string(e.low) + ") is a null range");
        if (b.has_range && (e.low < b.low || e.high > b.high))
          fail("slice " + base.text + "(" + std::to_string(e.high) +
               " downto " + std::to_string(e.low) +
               ") exceeds the declared range (" + std::to_string(b.high) +
               " downto " + std::to_string(b.low) + ")");
        VInfo r;
        r.cls = b.cls;
        r.width = e.high - e.low + 1;
        return r;
      }
      case ExprKind::Index: {
        const VInfo b = infer(e.args.at(0));
        const VInfo i = infer(e.args.at(1));
        if (i.cls != Cls::Integer)
          fail("index expression must be integer-valued (use "
               "to_integer)");
        if (b.cls == Cls::Memory)
          return VInfo{.cls = Cls::Vector, .width = b.elem_width};
        if (b.cls == Cls::Vector)
          return VInfo{.cls = Cls::Logic};
        fail("indexing into " + std::string(cls_name(b.cls)));
      }
      case ExprKind::Call:
        return infer_call(e);
      case ExprKind::Attr: {
        if (e.text != "length")
          fail("unsupported attribute '" + e.text + "'");
        const VInfo b = infer(e.args.at(0));
        if (b.cls != Cls::Vector && b.cls != Cls::Unsigned)
          fail("'length of non-vector");
        return VInfo{.cls = Cls::Integer};
      }
      case ExprKind::Cond: {
        require_boolean(e.args.at(0), "when-else condition");
        const VInfo t = infer(e.args.at(1));
        const VInfo f = infer(e.args.at(2));
        if (t.cls != f.cls &&
            !(t.width == kWild || f.width == kWild))
          fail("when-else branches have different types (" +
               std::string(cls_name(t.cls)) + " vs " + cls_name(f.cls) +
               ")");
        if (!widths_agree(t.width, f.width))
          fail("when-else branches have different widths (" +
               std::to_string(t.width) + " vs " + std::to_string(f.width) +
               ")");
        return t.width == kWild ? f : t;
      }
    }
    throw InternalError("unknown ExprKind");
  }

  VInfo infer_binary(const Expr& e) const {
    using Cls = VInfo::Cls;
    const std::string& op = e.text;
    const VInfo l = infer(e.args.at(0));
    const VInfo r = infer(e.args.at(1));
    const bool logical = op == "and" || op == "or" || op == "xor" ||
                         op == "nand" || op == "nor";
    if (logical) {
      if (l.cls != r.cls)
        fail("'" + op + "' mixes " + cls_name(l.cls) + " and " +
             cls_name(r.cls));
      if (l.cls == Cls::Integer || l.cls == Cls::Memory)
        fail("'" + op + "' applied to " + std::string(cls_name(l.cls)));
      if ((l.cls == Cls::Vector || l.cls == Cls::Unsigned) &&
          !widths_agree(l.width, r.width))
        fail("'" + op + "' width mismatch (" + std::to_string(l.width) +
             " vs " + std::to_string(r.width) + ")");
      VInfo res = l;
      res.has_range = false;
      if (res.width == kWild) res.width = r.width;
      return res;
    }
    if (op == "=" || op == "/=") {
      const bool numeric_mix =
          (l.cls == Cls::Unsigned && r.cls == Cls::Integer) ||
          (l.cls == Cls::Integer && r.cls == Cls::Unsigned);
      if (!numeric_mix) {
        if (l.cls != r.cls)
          fail("'" + op + "' compares " + cls_name(l.cls) + " with " +
               cls_name(r.cls));
        if ((l.cls == Cls::Vector || l.cls == Cls::Unsigned) &&
            !widths_agree(l.width, r.width))
          fail("'" + op + "' width mismatch (" + std::to_string(l.width) +
               " vs " + std::to_string(r.width) + ")");
      }
      return VInfo{.cls = Cls::Boolean};
    }
    if (op == "+" || op == "-") {
      if (l.cls == Cls::Integer && r.cls == Cls::Integer)
        return VInfo{.cls = Cls::Integer};
      if (l.cls == Cls::Unsigned &&
          (r.cls == Cls::Integer || r.cls == Cls::Unsigned)) {
        if (r.cls == Cls::Unsigned && !widths_agree(l.width, r.width))
          fail("'" + op + "' width mismatch (" + std::to_string(l.width) +
               " vs " + std::to_string(r.width) + ")");
        VInfo res = l;
        res.has_range = false;
        return res;
      }
      fail("'" + op + "' needs unsigned/integer operands (cast "
           "std_logic_vector with unsigned() first); got " +
           std::string(cls_name(l.cls)) + " and " + cls_name(r.cls));
    }
    if (op == "&") {
      auto bits = [&](const VInfo& v) -> int {
        if (v.cls == Cls::Logic) return 1;
        if (v.cls == Cls::Vector) return v.width;
        fail("'&' operand is " + std::string(cls_name(v.cls)));
      };
      const int lw = bits(l), rw = bits(r);
      if (lw == kWild || rw == kWild) fail("'&' operand width unknown");
      return VInfo{.cls = Cls::Vector, .width = lw + rw};
    }
    fail("unknown binary operator '" + op + "'");
  }

  VInfo infer_call(const Expr& e) const {
    using Cls = VInfo::Cls;
    const std::string& fn = e.text;
    auto arity = [&](std::size_t n) {
      if (e.args.size() != n)
        fail(fn + "() takes " + std::to_string(n) + " argument(s), got " +
             std::to_string(e.args.size()));
    };
    if (fn == "unsigned") {
      arity(1);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Vector)
        fail("unsigned() argument is " + std::string(cls_name(a.cls)));
      return VInfo{.cls = Cls::Unsigned, .width = a.width};
    }
    if (fn == "std_logic_vector") {
      arity(1);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Unsigned)
        fail("std_logic_vector() argument is " +
             std::string(cls_name(a.cls)) + " (only unsigned supported)");
      return VInfo{.cls = Cls::Vector, .width = a.width};
    }
    if (fn == "resize") {
      arity(2);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Unsigned)
        fail("resize() argument is " + std::string(cls_name(a.cls)));
      return VInfo{.cls = Cls::Unsigned, .width = length_of(e.args[1])};
    }
    if (fn == "to_integer") {
      arity(1);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Unsigned)
        fail("to_integer() argument is " + std::string(cls_name(a.cls)));
      return VInfo{.cls = Cls::Integer};
    }
    if (fn == "to_unsigned") {
      arity(2);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Integer)
        fail("to_unsigned() first argument must be integer");
      return VInfo{.cls = Cls::Unsigned, .width = length_of(e.args[1])};
    }
    if (fn == "shift_right" || fn == "shift_left") {
      arity(2);
      const VInfo a = infer(e.args[0]);
      if (a.cls != Cls::Unsigned)
        fail(fn + "() argument is " + std::string(cls_name(a.cls)));
      if (infer(e.args[1]).cls != Cls::Integer)
        fail(fn + "() shift count must be integer");
      VInfo res = a;
      res.has_range = false;
      return res;
    }
    if (fn == "rising_edge" || fn == "falling_edge") {
      arity(1);
      if (infer(e.args[0]).cls != Cls::Logic)
        fail(fn + "() argument must be std_logic");
      return VInfo{.cls = Cls::Boolean};
    }
    fail("unknown function '" + fn + "'");
  }

  /// Width denoted by a resize/to_unsigned width argument: an integer
  /// literal, or `name'length` resolving to the name's declared width.
  int length_of(const Expr& w) const {
    if (w.kind == ExprKind::IntLit) return static_cast<int>(w.value);
    if (w.kind == ExprKind::Attr && w.text == "length" &&
        w.args.at(0).kind == ExprKind::Name) {
      const VInfo b = lookup(w.args[0].text);
      if (b.cls == VInfo::Cls::Vector || b.cls == VInfo::Cls::Unsigned)
        return b.width;
    }
    fail("width argument must be an integer literal or name'length");
  }

  void require_boolean(const Expr& e, const char* what) const {
    if (infer(e).cls != VInfo::Cls::Boolean)
      fail(std::string(what) + " must be boolean (compare with = or /=)");
  }

  void check_assign(const Expr& lhs, const Expr& rhs) const {
    using Cls = VInfo::Cls;
    VInfo t;
    switch (lhs.kind) {
      case ExprKind::Name:
      case ExprKind::Slice:
      case ExprKind::Index:
        t = infer(lhs);
        break;
      default:
        fail("assignment target must be a name, slice or index");
    }
    if (t.cls == Cls::Memory)
      fail("whole-array assignment to a memory signal is not supported "
           "(index it)");
    const VInfo r = infer(rhs);
    if (r.cls == Cls::Unsigned)
      fail("assigning unsigned to " + std::string(cls_name(t.cls)) +
           " — wrap the rhs in std_logic_vector()");
    if (r.cls == Cls::Boolean || r.cls == Cls::Integer ||
        r.cls == Cls::Memory)
      fail("assigning " + std::string(cls_name(r.cls)) + " to " +
           cls_name(t.cls));
    if (t.cls != r.cls && r.width != kWild)
      fail("assigning " + std::string(cls_name(r.cls)) + " to " +
           cls_name(t.cls));
    if (t.cls == Cls::Vector && !widths_agree(t.width, r.width))
      fail("assignment width mismatch (" + std::to_string(t.width) +
           " <= " + std::to_string(r.width) + ")");
  }

  void check_stmts(const std::vector<Stmt>& stmts) const {
    for (const Stmt& s : stmts) check_stmt(s);
  }

  void check_stmt(const Stmt& s) const {
    if (const auto* a = std::get_if<SignalAssign>(&s.v)) {
      check_assign(a->lhs, a->rhs);
      return;
    }
    if (const auto* f = std::get_if<IfStmt>(&s.v)) {
      if (f->arms.empty()) fail("if statement with no arms");
      for (const IfArm& arm : f->arms) {
        require_boolean(arm.cond, "if/elsif condition");
        check_stmts(arm.body);
      }
      check_stmts(f->else_body);
      return;
    }
    const auto& c = std::get<CaseStmt>(s.v);
    const VInfo sel = infer(c.selector);
    if (sel.cls != VInfo::Cls::Vector)
      fail("case selector must be a std_logic_vector");
    if (c.arms.empty()) fail("case statement with no arms");
    for (const CaseArm& arm : c.arms) {
      if (!arm.is_others) {
        const VInfo ch = infer(arm.choice);
        if (ch.cls != VInfo::Cls::Vector ||
            !widths_agree(sel.width, ch.width))
          fail("case choice width does not match the selector");
      }
      check_stmts(arm.body);
    }
  }

  void check_process(const Process& p) const {
    check_name(p.label, "process label");
    if (p.clocked) {
      const VInfo clk = lookup(p.clock);
      const VInfo rst = lookup(p.reset);
      if (clk.cls != VInfo::Cls::Logic || rst.cls != VInfo::Cls::Logic)
        fail("process '" + p.label +
             "': clock/reset must be std_logic signals");
      check_stmts(p.reset_body);
    } else {
      for (const auto& s : p.sensitivity) lookup(s);
    }
    check_stmts(p.body);
  }

  void run() {
    build_symbols();
    for (const Concurrent& c : u.arch.body) {
      if (const auto* a = std::get_if<Assign>(&c)) {
        check_assign(a->lhs, a->rhs);
      } else if (const auto* inst = std::get_if<Instance>(&c)) {
        check_name(inst->label, "instance label");
        check_name(inst->component, "instance component name");
      } else if (const auto* p = std::get_if<Process>(&c)) {
        check_process(*p);
      }
    }
  }
};

}  // namespace

void validate_unit(const DesignUnit& u) { Validator{u, {}}.run(); }

}  // namespace hwpat::hdl
