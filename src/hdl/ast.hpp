// A small VHDL abstract syntax tree: entities, ports, architectures
// with signal/type declarations, concurrent assignments, component
// instances and processes.
//
// This is the output representation of the paper's metaprogramming
// backend (§3.4): the container/iterator generators build these nodes
// from their metamodels and the emitter renders synthesisable VHDL'93.
// Entities are fully structured (the Fig. 4/5 golden tests pin their
// port lists), and since the statement/expression IR landed (ir.hpp)
// process bodies and assignments are structured trees too — validated
// at generation time and re-readable by the structural parser
// (parse.hpp), so emitted RTL can never silently drift from the model.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "hdl/ir.hpp"

namespace hwpat::hdl {

enum class PortDir { In, Out, InOut };

[[nodiscard]] std::string to_string(PortDir d);

/// std_logic or std_logic_vector(high downto low).
struct Type {
  bool is_vector = false;
  int high = 0;
  int low = 0;

  [[nodiscard]] static Type bit() { return {false, 0, 0}; }
  [[nodiscard]] static Type vec(int width) {
    return {true, width - 1, 0};
  }
  /// Explicit `high downto low` range (non-zero low allowed).
  [[nodiscard]] static Type range(int high, int low) {
    return {true, high, low};
  }
  /// Width in bits.  Scalars are 1; a degenerate vector range
  /// (high < low — VHDL's null range) is width 0 and rejected by
  /// validate_unit() when declared.
  [[nodiscard]] int width() const {
    if (!is_vector) return 1;
    return high >= low ? high - low + 1 : 0;
  }
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Type&, const Type&) = default;
};

struct Port {
  std::string name;
  PortDir dir = PortDir::In;
  Type type;
  /// Section label; consecutive ports sharing a group are emitted under
  /// one "-- group" comment, reproducing the Fig. 4 layout
  /// (methods / params / implementation interface).
  std::string group;

  friend bool operator==(const Port&, const Port&) = default;
};

struct Generic {
  std::string name;
  std::string type_name;
  std::string default_value;

  friend bool operator==(const Generic&, const Generic&) = default;
};

struct Entity {
  std::string name;
  std::vector<Generic> generics;
  std::vector<Port> ports;

  [[nodiscard]] const Port* find_port(const std::string& pname) const;
  [[nodiscard]] std::vector<std::string> port_names() const;
};

/// Architecture-local array type, e.g. the dual-clock FIFO's storage:
///   type mem_t is array (0 to depth-1) of std_logic_vector(w-1 downto 0);
struct TypeDecl {
  std::string name;
  int elem_width = 8;
  int depth = 1;

  friend bool operator==(const TypeDecl&, const TypeDecl&) = default;
};

struct SignalDecl {
  std::string name;
  Type type;
  /// Non-empty: the signal is of an architecture-declared array type
  /// (TypeDecl) and `type` is ignored.
  std::string type_name;
  std::string init;  ///< optional ":=" initialiser

  friend bool operator==(const SignalDecl&, const SignalDecl&) = default;
};

/// Concurrent signal assignment: `lhs <= rhs;`.  The rhs may be a Cond
/// expression, rendering the `value when cond else value` form.
struct Assign {
  Expr lhs;
  Expr rhs;
  std::string comment;  ///< appended as `  -- comment`

  Assign() = default;
  Assign(Expr l, Expr r, std::string c = "")
      : lhs(std::move(l)), rhs(std::move(r)), comment(std::move(c)) {}

  friend bool operator==(const Assign&, const Assign&) = default;
};

/// Component instantiation with a positional-free named port map.
struct Instance {
  std::string label;
  std::string component;
  std::vector<std::pair<std::string, std::string>> port_map;
};

/// A process; `clocked` selects the rising_edge(clock) idiom with an
/// asynchronous reset branch.  The clock/reset names default to the
/// single-domain "clk"/"rst" and are overridden per clock domain by the
/// dual-clock generators (wr_clk/wr_rst, rd_clk/rd_rst).
struct Process {
  std::string label;
  bool clocked = false;
  std::string clock = "clk";
  std::string reset = "rst";
  std::vector<std::string> sensitivity;  ///< combinational processes
  std::vector<Stmt> reset_body;          ///< clocked: reset branch
  std::vector<Stmt> body;
};

using Concurrent = std::variant<Assign, Instance, Process>;

struct Architecture {
  std::string name = "rtl";
  std::string of;  ///< entity name
  std::vector<std::string> component_decls;  ///< verbatim declarations
  std::vector<TypeDecl> types;
  std::vector<SignalDecl> signals;
  std::vector<Concurrent> body;
};

/// One generated design file: context clause + entity + architecture.
struct DesignUnit {
  std::vector<std::string> libraries = {
      "library ieee;", "use ieee.std_logic_1164.all;",
      "use ieee.numeric_std.all;"};
  Entity entity;
  Architecture arch;
};

// ---------------------------------------------------------------------
// Identifier hygiene
// ---------------------------------------------------------------------

/// True when `name` is a VHDL'93 reserved word (case-insensitive).
[[nodiscard]] bool is_reserved_word(const std::string& name);

/// True when `name` is a legal VHDL basic identifier that is not a
/// reserved word: letter first, letters/digits/underscores after, no
/// double or trailing underscore.
[[nodiscard]] bool is_legal_identifier(const std::string& name);

/// Throws hwpat::Error naming `field` when `name` is not a legal,
/// non-reserved identifier — the emitters call this on every entity,
/// port, generic, signal, type and label name so unanalyzable text is
/// rejected with a field-naming error instead of being emitted.
void validate_identifier(const std::string& name, const std::string& field);

}  // namespace hwpat::hdl
