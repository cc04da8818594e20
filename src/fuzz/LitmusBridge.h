//===- fuzz/LitmusBridge.h - Fuzz cases as pinned .litmus tests -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a fuzzed program and its observed non-SC outcome into a
/// replayable litmus test, so a failing fuzz case becomes a `.litmus`
/// artifact that `litmus --file`, `fuzz --shrink` and `hunt` consume.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_LITMUSBRIDGE_H
#define GPUWMM_FUZZ_LITMUSBRIDGE_H

#include "fuzz/ProgramFuzzer.h"
#include "litmus/Program.h"

#include <string>

namespace gpuwmm {
namespace fuzz {

/// \p P renamed to \p Name. When \p Weak is given (an outcome of \p P in
/// the layout of fuzz::Outcome), the forbidden clause pins it exactly:
/// every register's value and every final memory value; otherwise the
/// clause is empty and the test never reports weak.
litmus::Program toLitmusProgram(const litmus::Program &P,
                                const std::string &Name,
                                const Outcome *Weak = nullptr);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_LITMUSBRIDGE_H
