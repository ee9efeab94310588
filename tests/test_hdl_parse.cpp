// Tests of the structural VHDL re-reader: expression round-trips,
// parse failures, and whole-unit emit -> parse -> re-emit byte
// identity (the contract that keeps generated output inside the
// structured subset).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <typeinfo>
#include <vector>

#include "common/error.hpp"
#include "hdl/emit.hpp"
#include "hdl/parse.hpp"

#ifndef HWPAT_GOLDEN_DIR
#define HWPAT_GOLDEN_DIR "tests/golden"
#endif

namespace hwpat::hdl {
namespace {

/// The hwpat::Error message `f` throws, or "" (and a test failure)
/// when it returns normally.
std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "no hwpat::Error thrown";
  return "";
}

TEST(ParseExpr, RoundTripsEmitterOutput) {
  // Every string here is exactly what the emitter produces for some
  // tree; parse must rebuild a tree that re-emits the same bytes.
  const char* cases[] = {
      "m_push = '1' and m_pop = '0'",
      "(a or b) and c",
      "a and b and c",
      "not (a and b)",
      "not a or not b",
      "a - (b - c)",
      "(a - b) - c",
      "x /= y",
      "std_logic_vector(unsigned(count) + 1)",
      "std_logic_vector(shift_right(unsigned(wbin_next), 1) xor "
      "unsigned(wbin_next))",
      "mem(to_integer(unsigned(wbin(5 downto 0))))",
      "resize(unsigned(ptr_end), p_addr'length) + 3",
      "to_unsigned(0, 4)",
      "m_data & shift_reg(23 downto 8)",
      "data(7 downto 0)",
      "(others => '0')",
      "'1' when wgray = (rgray_w2 xor \"1100\") else '0'",
      "a when c1 = '1' else b when c2 = '1' else d",
  };
  for (const char* text : cases) {
    EXPECT_EQ(emit_expr(parse_expr(text)), text) << "input: " << text;
  }
}

TEST(ParseExpr, DiscardsGroupingParens) {
  // Redundant parens are legal input; the emitter re-derives only the
  // needed ones, so they normalize away.
  EXPECT_EQ(emit_expr(parse_expr("(m_push = '1') and (m_pop = '0')")),
            "m_push = '1' and m_pop = '0'");
  EXPECT_EQ(emit_expr(parse_expr("((a)) and (b)")), "a and b");
}

TEST(ParseExpr, BuildsLeftAssociativeChains) {
  const Expr e = parse_expr("a and b and c");
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.text, "and");
  EXPECT_EQ(e.args.at(0).kind, ExprKind::Binary);  // (a and b)
  EXPECT_EQ(e.args.at(1).kind, ExprKind::Name);    // c
}

TEST(ParseExpr, DistinguishesSliceIndexCallAndAttr) {
  EXPECT_EQ(parse_expr("v(7 downto 0)").kind, ExprKind::Slice);
  EXPECT_EQ(parse_expr("v(3)").kind, ExprKind::Index);
  EXPECT_EQ(parse_expr("unsigned(v)").kind, ExprKind::Call);
  EXPECT_EQ(parse_expr("v'length").kind, ExprKind::Attr);
  // A non-function name followed by parens is an index, not a call.
  EXPECT_EQ(parse_expr("mem(i)").kind, ExprKind::Index);
}

TEST(ParseExpr, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_expr("wbin +"), Error);
  EXPECT_THROW((void)parse_expr("a b"), Error);
  EXPECT_THROW((void)parse_expr("foo(1 2)"), Error);
  EXPECT_THROW((void)parse_expr("'x'"), Error);
  EXPECT_THROW((void)parse_expr("(others => '1')"), Error);
  EXPECT_THROW((void)parse_expr("\"01"), Error);
  EXPECT_THROW((void)parse_expr(""), Error);
  // Integers fail as parse errors naming the text: no std::stoll
  // exception, and no slice bound silently narrowed to int.
  EXPECT_THROW((void)parse_expr("a(99999999999999999999)"), Error);
  EXPECT_NE(error_of([] { (void)parse_expr("a(99999999999 downto 0)"); })
                .find("in 'a(99999999999 downto 0)'"),
            std::string::npos);
}

TEST(ParseUnit, RejectsNonEmitterText) {
  EXPECT_THROW((void)parse_unit("this is not vhdl"), Error);
  EXPECT_THROW((void)parse_unit("entity x is\nend y;\n"), Error);

  // Integers in declarations fail as parse errors, not as std::stoi
  // exceptions.
  const std::string unit =
      "entity t is\n"
      "  port (\n"
      "    d : in std_logic_vector(7 downto 0)\n"
      "  );\n"
      "end t;\n"
      "\n"
      "architecture rtl of t is\n"
      "  type mem_t is array (0 to 15) of std_logic_vector(7 downto 0);\n"
      "begin\n"
      "end rtl;\n";
  EXPECT_NO_THROW((void)parse_unit(unit));
  auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = unit;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  EXPECT_THROW((void)parse_unit(edited("d : in std_logic_vector(7",
                                       "d : in std_logic_vector(x")),
               Error);
  EXPECT_THROW((void)parse_unit(edited("d : in std_logic_vector(7",
                                       "d : in std_logic_vector(99999999999")),
               Error);
  EXPECT_NE(error_of([&] { (void)parse_unit(edited("(0 to 15)", "(0 to x)")); })
                .find("'x'"),
            std::string::npos);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// `line` with every run of digits replaced by `with`.
std::string replace_digit_runs(const std::string& line,
                               const std::string& with) {
  std::string out;
  for (std::size_t i = 0; i < line.size();) {
    if (std::isdigit(static_cast<unsigned char>(line[i]))) {
      out += with;
      while (i < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[i])))
        ++i;
    } else {
      out += line[i++];
    }
  }
  return out;
}

/// Edits of the emitter's real output: every truncation at a line
/// boundary, and each line with its digit runs replaced by "x" and,
/// separately, by a 20-digit number.
std::vector<std::pair<std::string, std::string>> edited_goldens() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(HWPAT_GOLDEN_DIR))
    if (entry.path().extension() == ".vhd") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const auto& path : files) {
    const std::string text = read_file(path);
    const std::string name = path.filename().string();
    std::vector<std::size_t> starts = {0};
    for (std::size_t i = 0; i < text.size(); ++i)
      if (text[i] == '\n') starts.push_back(i + 1);
    for (std::size_t k = 0; k < starts.size(); ++k) {
      const std::size_t b = starts[k];
      if (b == text.size()) break;  // the whole file is no truncation
      inputs.emplace_back(name + " cut at line " + std::to_string(k + 1),
                          text.substr(0, b));
      const std::size_t e =
          k + 1 < starts.size() ? starts[k + 1] : text.size();
      const std::string line = text.substr(b, e - b);
      for (const char* with : {"x", "99999999999999999999"}) {
        const std::string edited = replace_digit_runs(line, with);
        if (edited == line) continue;
        inputs.emplace_back(
            name + " line " + std::to_string(k + 1) + " digits -> " + with,
            text.substr(0, b) + edited + text.substr(e));
      }
    }
  }
  return inputs;
}

TEST(ParseUnit, EditedGoldenFilesFailAsErrorsOrRoundTrip) {
  // Every input either fails with hwpat::Error (from parse_unit, or
  // from emit_unit's validation) or yields a unit whose emitted text
  // parses back to the same text.  Nothing else may escape.
  const auto inputs = edited_goldens();
  ASSERT_GT(inputs.size(), 1000u) << "golden files not found";
  int rejected = 0;
  for (const auto& [what, text] : inputs) {
    try {
      const std::string out = emit_unit(parse_unit(text));
      EXPECT_EQ(emit_unit(parse_unit(out)), out) << what;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << typeid(e).name()
                    << " escaped: " << e.what();
    }
  }
  EXPECT_GT(rejected, 0);
  std::printf("  %zu edited golden inputs, %d rejected with hwpat::Error\n",
              inputs.size(), rejected);
}

/// A unit exercising every construct the emitter can produce:
/// generics, grouped ports, array types, memory signals, component
/// declarations, instances, comments, a dual-domain clocked process
/// with nested if/case, and a combinational process.
DesignUnit full_feature_unit() {
  DesignUnit u;
  u.entity.name = "rt_demo";
  u.entity.generics = {{"DEPTH", "natural", "16"}};
  u.entity.ports = {
      {"wr_clk", PortDir::In, Type::bit(), "clocks"},
      {"wr_rst", PortDir::In, Type::bit(), "clocks"},
      {"m_push", PortDir::In, Type::bit(), "methods"},
      {"data", PortDir::Out, Type::vec(8), "params"},
      {"p_full", PortDir::Out, Type::bit(), "implementation interface"},
  };
  Architecture& a = u.arch;
  a.of = "rt_demo";
  a.component_decls.push_back(
      "component sync_ff\n  port (\n    d : in std_logic\n  );\nend "
      "component;");
  a.types.push_back({"mem_t", 8, 16});
  a.signals.push_back({"mem", Type::bit(), "mem_t", ""});
  a.signals.push_back({"state", Type::vec(2), "", "(others => '0')"});
  a.signals.push_back({"cnt", Type::vec(4), "", "(others => '0')"});
  a.signals.push_back({"flag", Type::bit(), "", ""});

  a.body.push_back(
      Assign{sig("data"), idx(sig("mem"), to_int(uns(sig("cnt"))))});
  a.body.push_back(Assign{sig("p_full"), sig("flag"), "combinational flag"});
  a.body.push_back(Instance{"u0", "sync_ff", {{"d", "flag"}}});

  Process step;
  step.label = "step";
  step.clocked = true;
  step.clock = "wr_clk";
  step.reset = "wr_rst";
  step.reset_body = {assign(sig("cnt"), others0()),
                     assign(sig("state"), others0())};
  step.body = {
      IfStmt{{IfArm{eq(sig("m_push"), bitl('1')),
                    {assign(sig("cnt"), slv(add(uns(sig("cnt")), num(1))))}},
              IfArm{eq(sig("flag"), bitl('1')),
                    {assign(sig("cnt"), others0())}}},
             {assign(sig("state"), bitsl("11"))}},
      CaseStmt{sig("state"),
               {{false, bitsl("00"), "idle",
                 {assign(sig("state"), bitsl("01"))}},
                {true, {}, "", {assign(sig("state"), bitsl("00"))}}}}};
  a.body.push_back(step);

  Process mirror;
  mirror.label = "mirror";
  mirror.sensitivity = {"cnt"};
  mirror.body = {assign(sig("flag"), idx(sig("cnt"), num(0)))};
  a.body.push_back(mirror);
  return u;
}

TEST(ParseUnit, EmitParseReEmitIsByteIdentical) {
  const DesignUnit u = full_feature_unit();
  const std::string first = emit_unit(u);
  const DesignUnit back = parse_unit(first);
  const std::string second = emit_unit(back);
  EXPECT_EQ(first, second);
}

TEST(ParseUnit, RecoversStructureNotJustText) {
  const DesignUnit back = parse_unit(emit_unit(full_feature_unit()));
  EXPECT_EQ(back.entity.name, "rt_demo");
  ASSERT_EQ(back.entity.generics.size(), 1u);
  EXPECT_EQ(back.entity.generics[0].default_value, "16");
  ASSERT_EQ(back.entity.ports.size(), 5u);
  EXPECT_EQ(back.entity.ports[2].group, "methods");
  EXPECT_EQ(back.entity.ports[3].type.width(), 8);
  ASSERT_EQ(back.arch.types.size(), 1u);
  EXPECT_EQ(back.arch.types[0].depth, 16);
  EXPECT_EQ(back.arch.types[0].elem_width, 8);
  ASSERT_EQ(back.arch.signals.size(), 4u);
  EXPECT_EQ(back.arch.signals[0].type_name, "mem_t");
  EXPECT_EQ(back.arch.signals[1].init, "(others => '0')");
  ASSERT_EQ(back.arch.body.size(), 5u);
  EXPECT_EQ(std::get<Assign>(back.arch.body[1]).comment,
            "combinational flag");
  EXPECT_EQ(std::get<Instance>(back.arch.body[2]).component, "sync_ff");

  // The clocked reset/rising_edge idiom folds back into
  // Process{clocked=true} with its per-domain clock and reset.
  const auto& step = std::get<Process>(back.arch.body[3]);
  EXPECT_TRUE(step.clocked);
  EXPECT_EQ(step.clock, "wr_clk");
  EXPECT_EQ(step.reset, "wr_rst");
  EXPECT_TRUE(step.sensitivity.empty());
  EXPECT_EQ(step.reset_body.size(), 2u);
  ASSERT_EQ(step.body.size(), 2u);
  EXPECT_NE(std::get_if<IfStmt>(&step.body[0].v), nullptr);
  EXPECT_NE(std::get_if<CaseStmt>(&step.body[1].v), nullptr);

  const auto& mirror = std::get<Process>(back.arch.body[4]);
  EXPECT_FALSE(mirror.clocked);
  EXPECT_EQ(mirror.sensitivity, (std::vector<std::string>{"cnt"}));
}

TEST(ParseUnit, ParsedUnitsSurviveValidation) {
  // Parsing must yield a tree the validator accepts — the re-reader
  // and the validator agree on what the structured subset is.
  const DesignUnit back = parse_unit(emit_unit(full_feature_unit()));
  EXPECT_NO_THROW(validate_unit(back));
}

}  // namespace
}  // namespace hwpat::hdl
