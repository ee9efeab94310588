// Structural re-reader for emitted VHDL.
//
// parse_unit() parses text produced by emit_unit() back into a
// DesignUnit — context clause, entity (generics, grouped ports),
// architecture (types, signals, component declarations, concurrent
// assignments, instances, processes with the clocked reset/rising_edge
// shape folded back into Process{clocked=true}).  parse_expr() parses
// one expression into the Expr IR, discarding grouping parentheses;
// the emitter re-derives them deterministically, which is what makes
// the emit -> parse -> re-emit byte-identity gate possible.
//
// This is not a general VHDL front end: it accepts exactly the shapes
// the emitter produces (the generator's output language), and throws
// hwpat::Error on anything else.  That is the point: a generated unit
// that cannot be re-read has drifted out of the structured subset and
// fails CI.
#pragma once

#include <string>

#include "hdl/ast.hpp"

namespace hwpat::hdl {

/// Parses one VHDL expression (the emitter's output subset) into the
/// IR.  Also used by the algorithm generator to lift metamodel
/// operation strings ("not $x") into validated trees.
[[nodiscard]] Expr parse_expr(const std::string& text);

/// Parses a whole emitted design file back into a DesignUnit.
[[nodiscard]] DesignUnit parse_unit(const std::string& text);

}  // namespace hwpat::hdl
