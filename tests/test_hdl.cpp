// Unit tests of the VHDL AST, the statement/expression IR, the
// validator and the emitter.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "hdl/emit.hpp"

namespace hwpat::hdl {
namespace {

TEST(Type, Rendering) {
  EXPECT_EQ(Type::bit().str(), "std_logic");
  EXPECT_EQ(Type::vec(8).str(), "std_logic_vector(7 downto 0)");
  EXPECT_EQ(Type::vec(16).width(), 16);
  EXPECT_EQ(Type::bit().width(), 1);
}

TEST(Type, Width1VectorIsNotAScalar) {
  const Type v1 = Type::vec(1);
  EXPECT_TRUE(v1.is_vector);
  EXPECT_EQ(v1.width(), 1);
  EXPECT_EQ(v1.str(), "std_logic_vector(0 downto 0)");
  // Same width as a scalar, different type — they must not compare
  // equal, and they render differently.
  EXPECT_FALSE(v1 == Type::bit());
  EXPECT_EQ(Type::bit().width(), v1.width());
}

TEST(Type, NonZeroLowRange) {
  const Type r = Type::range(9, 2);
  EXPECT_EQ(r.width(), 8);
  EXPECT_EQ(r.str(), "std_logic_vector(9 downto 2)");
  EXPECT_EQ(Type::range(4, 4).width(), 1);
}

TEST(Type, DegenerateRangeHasWidthZero) {
  // VHDL's null range (high < low in a downto): width 0, and the
  // validator rejects declaring one (see Validate tests below).
  EXPECT_EQ(Type::range(0, 1).width(), 0);
  EXPECT_EQ(Type::range(-1, 0).width(), 0);
  EXPECT_EQ(Type::range(3, 7).width(), 0);
}

TEST(Identifiers, ReservedWordsAreCaseInsensitive) {
  // The VHDL'93 reserved words (LRM Annex B), as listed in ast.cpp.
  const std::vector<std::string> words = {
      "abs",       "access",   "after",      "alias",     "all",
      "and",       "architecture", "array",  "assert",    "attribute",
      "begin",     "block",    "body",       "buffer",    "bus",
      "case",      "component", "configuration", "constant", "disconnect",
      "downto",    "else",     "elsif",      "end",       "entity",
      "exit",      "file",     "for",        "function",  "generate",
      "generic",   "group",    "guarded",    "if",        "impure",
      "in",        "inertial", "inout",      "is",        "label",
      "library",   "linkage",  "literal",    "loop",      "map",
      "mod",       "nand",     "new",        "next",      "nor",
      "not",       "null",     "of",         "on",        "open",
      "or",        "others",   "out",        "package",   "port",
      "postponed", "procedure", "process",   "pure",      "range",
      "record",    "register", "reject",     "rem",       "report",
      "return",    "rol",      "ror",        "select",    "severity",
      "shared",    "signal",   "sla",        "sll",       "sra",
      "srl",       "subtype",  "then",       "to",        "transport",
      "type",      "unaffected", "units",    "until",     "use",
      "variable",  "wait",     "when",       "while",     "with",
      "xnor",      "xor",
  };
  ASSERT_EQ(words.size(), 97u);
  for (const std::string& w : words) {
    std::string upper = w, mixed = w;
    for (std::size_t i = 0; i < w.size(); ++i) {
      upper[i] = static_cast<char>(std::toupper(w[i]));
      if (i % 2 == 0) mixed[i] = upper[i];
    }
    EXPECT_TRUE(is_reserved_word(w)) << w;
    EXPECT_TRUE(is_reserved_word(upper)) << upper;
    EXPECT_TRUE(is_reserved_word(mixed)) << mixed;
  }
  // Non-words at the length edges: shorter than the shortest word,
  // one letter off a word, one letter past the longest, and a prefix.
  for (const char* w : {"", "a", "ins", "configurations", "signal_a"})
    EXPECT_FALSE(is_reserved_word(w)) << w;
}

TEST(Identifiers, Legality) {
  EXPECT_TRUE(is_legal_identifier("wr_clk"));
  EXPECT_TRUE(is_legal_identifier("a1_b2"));
  EXPECT_FALSE(is_legal_identifier(""));
  EXPECT_FALSE(is_legal_identifier("1abc"));      // digit first
  EXPECT_FALSE(is_legal_identifier("_abc"));      // underscore first
  EXPECT_FALSE(is_legal_identifier("a__b"));      // double underscore
  EXPECT_FALSE(is_legal_identifier("trailing_")); // trailing underscore
  EXPECT_FALSE(is_legal_identifier("a-b"));       // bad character
  EXPECT_FALSE(is_legal_identifier("process"));   // reserved
}

TEST(Identifiers, ValidateNamesTheField) {
  EXPECT_NO_THROW(validate_identifier("done", "port name"));
  try {
    validate_identifier("signal", "port name");
    FAIL() << "reserved word accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("port name"), std::string::npos);
    EXPECT_NE(msg.find("reserved word"), std::string::npos);
  }
  try {
    validate_identifier("2fast", "signal name");
    FAIL() << "illegal identifier accepted";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("signal name"), std::string::npos);
    EXPECT_NE(msg.find("not a legal"), std::string::npos);
  }
}

TEST(Entity, PortLookup) {
  Entity e{.name = "x",
           .generics = {},
           .ports = {{"a", PortDir::In, Type::bit(), ""},
                     {"b", PortDir::Out, Type::vec(4), ""}}};
  ASSERT_NE(e.find_port("b"), nullptr);
  EXPECT_EQ(e.find_port("b")->type.width(), 4);
  EXPECT_EQ(e.find_port("zz"), nullptr);
  EXPECT_EQ(e.port_names(), (std::vector<std::string>{"a", "b"}));
}

// ------------------------------------------------------ expressions

TEST(Expr, PrecedenceDrivenParens) {
  // Relational binds tighter than logical: no parens needed.
  EXPECT_EQ(emit_expr(and_(eq(sig("m_push"), bitl('1')),
                           eq(sig("m_pop"), bitl('0')))),
            "m_push = '1' and m_pop = '0'");
  // An or-child of an and gets parens (equal precedence, different op).
  EXPECT_EQ(emit_expr(and_(or_(sig("a"), sig("b")), sig("c"))),
            "(a or b) and c");
  // Same-op chains stay flat.
  EXPECT_EQ(emit_expr(and_(and_(sig("a"), sig("b")), sig("c"))),
            "a and b and c");
  // A logical child of a relational gets parens.
  EXPECT_EQ(emit_expr(eq(sig("wgray"), xor_(sig("rgray_w2"),
                                            bitsl("1100")))),
            "wgray = (rgray_w2 xor \"1100\")");
  // not binds tight; only looser operands need parens.
  EXPECT_EQ(emit_expr(and_(sig("m_done"), not_(sig("asm_valid")))),
            "m_done and not asm_valid");
  EXPECT_EQ(emit_expr(not_(and_(sig("a"), sig("b")))), "not (a and b)");
  // '-' is not chainable: both sides parenthesize at equal precedence.
  EXPECT_EQ(emit_expr(sub(sig("a"), sub(sig("b"), sig("c")))),
            "a - (b - c)");
  EXPECT_EQ(emit_expr(sub(sub(sig("a"), sig("b")), sig("c"))),
            "(a - b) - c");
}

TEST(Expr, CallsSlicesAndAttributes) {
  EXPECT_EQ(emit_expr(slv(add(uns(sig("count")), num(1)))),
            "std_logic_vector(unsigned(count) + 1)");
  EXPECT_EQ(emit_expr(concat(sig("m_data"),
                             slice(sig("shift_reg"), 23, 8))),
            "m_data & shift_reg(23 downto 8)");
  EXPECT_EQ(emit_expr(idx(sig("mem"),
                          to_int(uns(slice(sig("wbin"), 5, 0))))),
            "mem(to_integer(unsigned(wbin(5 downto 0))))");
  EXPECT_EQ(emit_expr(resize_(uns(sig("ptr_end")),
                              attr_len(sig("p_addr")))),
            "resize(unsigned(ptr_end), p_addr'length)");
  EXPECT_EQ(emit_expr(when_else(eq(sig("state"), bitsl("00")),
                                bitl('1'), bitl('0'))),
            "'1' when state = \"00\" else '0'");
  EXPECT_EQ(emit_expr(others0()), "(others => '0')");
}

// ------------------------------------------------------- emission

TEST(Emit, EntityWithGroupedPorts) {
  Entity e;
  e.name = "rbuffer_fifo";
  e.ports = {{"m_pop", PortDir::In, Type::bit(), "methods"},
             {"data", PortDir::Out, Type::vec(8), "params"},
             {"p_empty", PortDir::In, Type::bit(),
              "implementation interface"}};
  const std::string v = emit_entity(e);
  EXPECT_NE(v.find("entity rbuffer_fifo is"), std::string::npos);
  EXPECT_NE(v.find("-- methods"), std::string::npos);
  EXPECT_NE(v.find("-- params"), std::string::npos);
  EXPECT_NE(v.find("-- implementation interface"), std::string::npos);
  EXPECT_NE(v.find("m_pop : in std_logic;"), std::string::npos);
  EXPECT_NE(v.find("data : out std_logic_vector(7 downto 0);"),
            std::string::npos);
  // Last port: no trailing semicolon.
  EXPECT_NE(v.find("p_empty : in std_logic\n"), std::string::npos);
  EXPECT_NE(v.find("end rbuffer_fifo;"), std::string::npos);
}

TEST(Emit, EntityWithGenerics) {
  Entity e;
  e.name = "g";
  e.generics = {{"WIDTH", "natural", "8"}, {"DEPTH", "natural", ""}};
  const std::string v = emit_entity(e);
  EXPECT_NE(v.find("WIDTH : natural := 8;"), std::string::npos);
  EXPECT_NE(v.find("DEPTH : natural\n"), std::string::npos);
}

TEST(Emit, ArchitectureAssignsAndSignals) {
  Architecture a;
  a.of = "wrapper";
  a.signals.push_back({"tmp", Type::vec(8), "", "(others => '0')"});
  a.body.push_back(Assign{sig("data"), sig("p_data")});
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("architecture rtl of wrapper is"), std::string::npos);
  EXPECT_NE(
      v.find("signal tmp : std_logic_vector(7 downto 0) := (others => "
             "'0');"),
      std::string::npos);
  EXPECT_NE(v.find("data <= p_data;"), std::string::npos);
}

TEST(Emit, ArrayTypeAndTypedSignal) {
  Architecture a;
  a.of = "x";
  a.types.push_back({"mem_t", 8, 64});
  a.signals.push_back({"mem", Type::bit(), "mem_t", ""});
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("type mem_t is array (0 to 63) of "
                   "std_logic_vector(7 downto 0);"),
            std::string::npos);
  EXPECT_NE(v.find("signal mem : mem_t;"), std::string::npos);
}

TEST(Emit, ClockedProcessHasResetAndEdge) {
  Architecture a;
  a.of = "x";
  Process p;
  p.label = "fsm";
  p.clocked = true;
  p.reset_body = {assign(sig("count"), others0())};
  p.body = {assign(sig("count"), slv(add(uns(sig("count")), num(1))))};
  a.body.push_back(p);
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("fsm : process (clk, rst)"), std::string::npos);
  EXPECT_NE(v.find("if rst = '1' then"), std::string::npos);
  EXPECT_NE(v.find("elsif rising_edge(clk) then"), std::string::npos);
  EXPECT_NE(v.find("count <= std_logic_vector(unsigned(count) + 1);"),
            std::string::npos);
}

TEST(Emit, ClockedProcessWithPerDomainClock) {
  Architecture a;
  a.of = "x";
  Process p;
  p.label = "wr_ptr";
  p.clocked = true;
  p.clock = "wr_clk";
  p.reset = "wr_rst";
  p.reset_body = {assign(sig("wbin"), others0())};
  p.body = {assign(sig("wbin"), sig("wbin_next"))};
  a.body.push_back(p);
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("wr_ptr : process (wr_clk, wr_rst)"),
            std::string::npos);
  EXPECT_NE(v.find("if wr_rst = '1' then"), std::string::npos);
  EXPECT_NE(v.find("elsif rising_edge(wr_clk) then"), std::string::npos);
}

TEST(Emit, CombinationalProcessSensitivity) {
  Architecture a;
  a.of = "x";
  Process p;
  p.label = "mux";
  p.sensitivity = {"a", "b", "sel"};
  p.body = {assign(sig("y"), when_else(eq(sig("sel"), bitl('0')),
                                       sig("a"), sig("b")))};
  a.body.push_back(p);
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("mux : process (a, b, sel)"), std::string::npos);
  EXPECT_NE(v.find("y <= a when sel = '0' else b;"), std::string::npos);
}

TEST(Emit, CaseStatement) {
  Architecture a;
  a.of = "x";
  Process p;
  p.label = "fsm";
  p.clocked = true;
  p.body = {CaseStmt{
      sig("state"),
      {{false, bitsl("00"), "idle", {assign(sig("state"), bitsl("01"))}},
       {true, {}, "", {assign(sig("state"), bitsl("00"))}}}}};
  a.body.push_back(p);
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("case state is"), std::string::npos);
  EXPECT_NE(v.find("when \"00\" =>  -- idle"), std::string::npos);
  EXPECT_NE(v.find("when others =>"), std::string::npos);
  EXPECT_NE(v.find("end case;"), std::string::npos);
}

TEST(Emit, InstancePortMap) {
  Architecture a;
  a.of = "top";
  a.body.push_back(Instance{
      "u0", "fifo", {{"wr_en", "push"}, {"rd_en", "pop"}}});
  const std::string v = emit_architecture(a);
  EXPECT_NE(v.find("u0 : fifo"), std::string::npos);
  EXPECT_NE(v.find("wr_en => push,"), std::string::npos);
  EXPECT_NE(v.find("rd_en => pop\n"), std::string::npos);
}

TEST(Emit, UnitIncludesContextClause) {
  DesignUnit u;
  u.entity.name = "t";
  u.arch.of = "t";
  const std::string v = emit_unit(u);
  EXPECT_NE(v.find("library ieee;"), std::string::npos);
  EXPECT_NE(v.find("use ieee.std_logic_1164.all;"), std::string::npos);
}

// ------------------------------------------------------ validation

DesignUnit small_unit() {
  DesignUnit u;
  u.entity.name = "t";
  u.entity.ports = {{"clk", PortDir::In, Type::bit(), ""},
                    {"rst", PortDir::In, Type::bit(), ""},
                    {"data", PortDir::Out, Type::vec(8), ""},
                    {"done", PortDir::Out, Type::bit(), ""}};
  u.arch.of = "t";
  return u;
}

TEST(Validate, AcceptsAWellFormedUnit) {
  DesignUnit u = small_unit();
  u.arch.signals.push_back({"tmp", Type::vec(8), "", "(others => '0')"});
  u.arch.body.push_back(Assign{sig("data"), sig("tmp")});
  u.arch.body.push_back(Assign{sig("done"), bitl('1')});
  EXPECT_NO_THROW(validate_unit(u));
}

/// The hwpat::Error message validate_unit() throws for `u`, or ""
/// (and a test failure) when it accepts the unit.
std::string validation_error(const DesignUnit& u) {
  try {
    validate_unit(u);
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "validate_unit accepted the unit";
  return "";
}

TEST(Validate, RejectsUndeclaredName) {
  DesignUnit u = small_unit();
  u.arch.body.push_back(Assign{sig("done"), sig("nope")});
  EXPECT_NE(validation_error(u).find("undeclared name 'nope'"),
            std::string::npos);
}

TEST(Validate, RejectsWidthMismatch) {
  DesignUnit u = small_unit();
  u.arch.signals.push_back({"narrow", Type::vec(4), "", ""});
  u.arch.body.push_back(Assign{sig("data"), sig("narrow")});
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, RejectsUnsignedIntoVectorWithoutCast) {
  DesignUnit u = small_unit();
  u.arch.signals.push_back({"count", Type::vec(8), "", ""});
  u.arch.body.push_back(
      Assign{sig("count"), add(uns(sig("count")), num(1))});
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, RejectsNonBooleanCondition) {
  DesignUnit u = small_unit();
  Process p;
  p.label = "fsm";
  p.clocked = true;
  p.body = {IfStmt{{IfArm{sig("rst"),  // std_logic, not boolean
                          {assign(sig("done"), bitl('0'))}}},
                   {}}};
  u.arch.body.push_back(p);
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, RejectsOutOfRangeSlice) {
  DesignUnit u = small_unit();
  u.arch.body.push_back(
      Assign{sig("done"), idx(slice(sig("data"), 9, 2), num(0))});
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, RejectsReservedPortName) {
  DesignUnit u = small_unit();
  u.entity.ports.push_back({"signal", PortDir::In, Type::bit(), ""});
  const std::string msg = validation_error(u);
  EXPECT_NE(msg.find("port name (entity 't')"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reserved word"), std::string::npos) << msg;
}

TEST(Validate, RejectsDuplicateSignal) {
  DesignUnit u = small_unit();
  u.arch.signals.push_back({"tmp", Type::vec(8), "", ""});
  u.arch.signals.push_back({"tmp", Type::bit(), "", ""});
  EXPECT_NE(validation_error(u).find("duplicate declaration of 'tmp'"),
            std::string::npos);
}

TEST(Validate, RejectsDegenerateRangeDeclaration) {
  DesignUnit u = small_unit();
  u.arch.signals.push_back({"bad", Type::range(0, 1), "", ""});
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, RejectsLogicalMixOfScalarAndVector) {
  DesignUnit u = small_unit();
  u.arch.body.push_back(Assign{sig("done"), and_(sig("rst"), sig("data"))});
  EXPECT_THROW(validate_unit(u), Error);
}

TEST(Validate, MemorySignalsIndexAndRejectWholeAssign) {
  DesignUnit u = small_unit();
  u.arch.types.push_back({"mem_t", 8, 16});
  u.arch.signals.push_back({"mem", Type::bit(), "mem_t", ""});
  u.arch.body.push_back(
      Assign{sig("data"), idx(sig("mem"), num(3))});
  EXPECT_NO_THROW(validate_unit(u));
  DesignUnit bad = small_unit();
  bad.arch.types.push_back({"mem_t", 8, 16});
  bad.arch.signals.push_back({"mem", Type::bit(), "mem_t", ""});
  bad.arch.signals.push_back({"mem2", Type::bit(), "mem_t", ""});
  bad.arch.body.push_back(Assign{sig("mem2"), sig("mem")});
  EXPECT_THROW(validate_unit(bad), Error);
}

TEST(Validate, EmitUnitRunsTheValidator) {
  DesignUnit u = small_unit();
  u.arch.body.push_back(Assign{sig("done"), sig("ghost")});
  EXPECT_THROW((void)emit_unit(u), Error);
}

// ------------------------------------------------------- legalize

TEST(Legalize, Identifiers) {
  EXPECT_EQ(legalize_identifier("RBuffer Fifo"), "rbuffer_fifo");
  EXPECT_EQ(legalize_identifier("a--b__c"), "a_b_c");
  EXPECT_EQ(legalize_identifier("3stage"), "u_3stage");
  EXPECT_EQ(legalize_identifier("trailing_"), "trailing");
  // Empty input must still produce a *legal* identifier (the old "u_"
  // fallback had a trailing underscore).
  EXPECT_EQ(legalize_identifier(""), "u_x");
  EXPECT_TRUE(is_legal_identifier(legalize_identifier("")));
  // Reserved words get prefixed out of the way.
  EXPECT_EQ(legalize_identifier("Signal"), "u_signal");
  EXPECT_TRUE(is_legal_identifier(legalize_identifier("PROCESS")));
}

}  // namespace
}  // namespace hwpat::hdl
