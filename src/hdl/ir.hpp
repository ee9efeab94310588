// Typed statement/expression IR for the VHDL backend.
//
// Until this layer existed, hdl::Process bodies were opaque pre-rendered
// string lines ("parameterized code fragments"), which meant a malformed
// template was only discovered when the emitted text hit a synthesis
// tool.  The IR replaces those strings with structured trees:
//
//   Expr — signal references, bit/vector/integer literals, unary and
//          binary operators, slices, indexing, concatenation, the
//          numeric_std function casts (unsigned() / std_logic_vector() /
//          resize() / to_integer() / shift_right() ...), attributes
//          ('length) and the conditional a-when-c-else-b form;
//   Stmt — signal assignment, if/elsif/else and case.
//
// validate_unit() walks a whole DesignUnit with a symbol table built
// from its ports, generics, signals and array type declarations, and
// rejects malformed trees (undeclared names, width mismatches,
// out-of-range slices, non-boolean conditions, unsigned-into-vector
// assignments without a cast) at generation time — not in synthesis.
//
// The operator/cast lowering shape follows the tgt-vhdl backend of the
// icarus/macverilog lineage (expr.cc / cast.cc / expr_synth.cc): every
// arithmetic step is explicit about its numeric_std type so the emitted
// text analyzes cleanly under a strict VHDL'93 tool.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "common/bits.hpp"

namespace hwpat::hdl {

struct DesignUnit;  // ast.hpp

// ---------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------

enum class ExprKind {
  Name,    ///< signal/port/generic reference; `text` is the identifier
  BitLit,  ///< '0' / '1'; `text` is "0" or "1"
  VecLit,  ///< "0101"; `text` holds the bits
  IntLit,  ///< universal integer; `value`
  Others,  ///< the aggregate (others => '0')
  Unary,   ///< `text` is "not" or "-"; one operand in args
  Binary,  ///< `text` is the operator; args = {lhs, rhs}
  Slice,   ///< args = {operand}; bounds in high/low (downto)
  Index,   ///< args = {operand, index-expr}
  Call,    ///< `text` is the function name; args are the arguments
  Attr,    ///< args = {operand}; `text` is the attribute ("length")
  Cond,    ///< args = {cond, then-value, else-value}: `t when c else e`
};

struct Expr {
  ExprKind kind = ExprKind::Name;
  std::string text;
  long long value = 0;
  int high = 0;
  int low = 0;
  std::vector<Expr> args;

  friend bool operator==(const Expr&, const Expr&) = default;
};

// Builders.  Short names on purpose: generator code reads like the VHDL
// it produces.
[[nodiscard]] Expr sig(std::string name);
[[nodiscard]] Expr bitl(char v);              ///< '0' or '1'
[[nodiscard]] Expr bitsl(std::string bits);   ///< "0101"
[[nodiscard]] Expr num(long long v);
[[nodiscard]] Expr others0();                 ///< (others => '0')
[[nodiscard]] Expr not_(Expr e);
[[nodiscard]] Expr and_(Expr l, Expr r);
[[nodiscard]] Expr or_(Expr l, Expr r);
[[nodiscard]] Expr xor_(Expr l, Expr r);
[[nodiscard]] Expr eq(Expr l, Expr r);
[[nodiscard]] Expr ne(Expr l, Expr r);
[[nodiscard]] Expr add(Expr l, Expr r);
[[nodiscard]] Expr sub(Expr l, Expr r);
[[nodiscard]] Expr concat(Expr l, Expr r);
[[nodiscard]] Expr slice(Expr e, int high, int low);
[[nodiscard]] Expr idx(Expr e, Expr index);
[[nodiscard]] Expr fcall(std::string fn, std::vector<Expr> args);
[[nodiscard]] Expr uns(Expr e);               ///< unsigned(e)
[[nodiscard]] Expr slv(Expr e);               ///< std_logic_vector(e)
[[nodiscard]] Expr resize_(Expr e, Expr width);
[[nodiscard]] Expr to_int(Expr e);            ///< to_integer(e)
[[nodiscard]] Expr shr(Expr e, int by);       ///< shift_right(e, by)
[[nodiscard]] Expr rising_edge_(Expr clk);
[[nodiscard]] Expr attr_len(Expr e);          ///< e'length
[[nodiscard]] Expr when_else(Expr cond, Expr then_v, Expr else_v);

// ---------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------

struct Stmt;

/// `lhs <= rhs;` — lhs is a Name, a Slice of a Name, or an Index into a
/// memory signal.  `comment` is appended as `  -- comment`.
struct SignalAssign {
  Expr lhs;
  Expr rhs;
  std::string comment;

  friend bool operator==(const SignalAssign&,
                         const SignalAssign&) = default;
};

struct IfArm {
  Expr cond;
  std::vector<Stmt> body;

  friend bool operator==(const IfArm&, const IfArm&) = default;
};

/// if/elsif*/else — arms[0] is the `if`, the rest are `elsif`.
struct IfStmt {
  std::vector<IfArm> arms;
  std::vector<Stmt> else_body;

  friend bool operator==(const IfStmt&, const IfStmt&) = default;
};

struct CaseArm {
  bool is_others = false;
  Expr choice;  ///< ignored when is_others
  std::string comment;
  std::vector<Stmt> body;

  friend bool operator==(const CaseArm&, const CaseArm&) = default;
};

struct CaseStmt {
  Expr selector;
  std::vector<CaseArm> arms;

  friend bool operator==(const CaseStmt&, const CaseStmt&) = default;
};

struct Stmt {
  std::variant<SignalAssign, IfStmt, CaseStmt> v;

  Stmt(SignalAssign s) : v(std::move(s)) {}
  Stmt(IfStmt s) : v(std::move(s)) {}
  Stmt(CaseStmt s) : v(std::move(s)) {}

  friend bool operator==(const Stmt&, const Stmt&) = default;
};

/// Convenience: `lhs <= rhs;`.
[[nodiscard]] Stmt assign(Expr lhs, Expr rhs);

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Validates a whole design unit: every identifier is legal and
/// non-reserved, every name in every expression resolves against the
/// unit's ports/generics/signals/types, widths agree across operators
/// and assignments, slice bounds are inside the declared range, and
/// if/when conditions are boolean.  Throws hwpat::Error with a message
/// naming the offending entity/field.  Called by emit_unit(), so
/// nothing malformed can reach text.
void validate_unit(const DesignUnit& u);

}  // namespace hwpat::hdl
