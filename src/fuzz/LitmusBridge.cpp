//===- fuzz/LitmusBridge.cpp - Fuzz cases as pinned .litmus tests ------------===//

#include "fuzz/LitmusBridge.h"

#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;

litmus::Program fuzz::toLitmusProgram(const litmus::Program &P,
                                      const std::string &Name,
                                      const Outcome *Weak) {
  litmus::Program L = P;
  L.Name = Name;
  L.Forbidden.clear();
  if (Weak) {
    const auto NumRegs = static_cast<unsigned>(L.Registers.size());
    assert(Weak->size() == NumRegs + L.Locations.size() &&
           "outcome does not match the program");
    for (unsigned I = 0; I != Weak->size(); ++I) {
      const bool IsReg = I < NumRegs;
      L.Forbidden.push_back({IsReg, IsReg ? I : I - NumRegs,
                             /*Negated=*/false, (*Weak)[I]});
    }
  }
  assert(L.validate().empty() && "conversion must produce a valid program");
  return L;
}
