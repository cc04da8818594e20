//===- fuzz/ProgramFuzzer.h - Random-program differential fuzzing -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "fuzzing" half of the paper's title, generalised: generate random
/// two-thread straight-line litmus programs, enumerate their sequentially
/// consistent outcomes exhaustively, and classify the final states
/// LitmusRunner observes on the weak machine against them. With a fence
/// after every access no run may leave the SC set (the model-soundness
/// property); without fences, runs outside it are genuine weak behaviours
/// that the tuned stress should surface on programs nobody hand-picked.
/// Programs are plain litmus::Program values, so a fuzz case runs,
/// prints, shrinks and hardens exactly like a catalog test.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_PROGRAMFUZZER_H
#define GPUWMM_FUZZ_PROGRAMFUZZER_H

#include "litmus/Program.h"
#include "sim/ChipProfile.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace gpuwmm {
namespace fuzz {

/// An observable outcome: every register's final value by index, then
/// every location's final memory value by index (the layout of
/// LitmusRunner::countWeak's outcome export).
using Outcome = std::vector<sim::Word>;

/// Generates a random program: two threads in blocks 0 and 1, each of
/// \p OpsPerThread ops over locations v0.. (\p NumVars of them); registers
/// r0.. in load order. Stores and atomic adds write distinct non-zero
/// values so outcomes identify their writers. Fences are drawn only when
/// \p WithFences.
litmus::Program generateProgram(Rng &R, unsigned NumVars,
                                unsigned OpsPerThread, bool WithFences);

/// The number of interleavings enumerateScOutcomes walks for \p P: the
/// multinomial coefficient of the per-thread counts of loads, stores and
/// adds (saturating at UINT64_MAX).
uint64_t scInterleavings(const litmus::Program &P);

/// The largest scInterleavings a program may have to be fuzzed.
inline constexpr uint64_t MaxScInterleavings = 1000000;

/// Why \p P cannot be fuzzed, or empty when it can: it must be
/// well-formed, stay within the fuzzer's instruction set (no split-phase
/// loads), and have at most MaxScInterleavings interleavings.
std::string unfuzzableReason(const litmus::Program &P);

/// Exhaustively enumerates the outcomes of \p P under sequential
/// consistency: every interleaving of its threads from the initial state.
/// Fences are SC no-ops; a split-phase load reads at its issue point.
std::set<Outcome> enumerateScOutcomes(const litmus::Program &P);

/// Result of fuzzing one program for \p Runs executions.
struct FuzzResult {
  unsigned Runs = 0;
  unsigned WeakOutcomes = 0;     ///< Executions outside the SC set.
  unsigned DistinctWeak = 0;     ///< Distinct non-SC outcomes seen.
  unsigned DistinctScSeen = 0;   ///< Distinct SC outcomes seen.
  size_t ScSetSize = 0;
  /// The first non-SC outcome observed — the outcome a `.litmus` export
  /// pins as forbidden (fuzz/LitmusBridge.h). Meaningful only when
  /// WeakOutcomes > 0.
  Outcome FirstWeak;
};

/// Runs \p P (which must be fuzzable) \p Runs times through LitmusRunner
/// seeded with \p Seed, locations one chip patch apart, and classifies
/// each final state against the exhaustive SC set. Stressed runs go in
/// equal consecutive chunks over the chip's bank regions under the tuned
/// access sequence.
FuzzResult fuzzProgram(const litmus::Program &P, const sim::ChipProfile &Chip,
                       unsigned Runs, uint64_t Seed, bool Stressed);

/// A fuzzing batch: how many programs to generate and how to fuzz each.
struct BatchConfig {
  unsigned Programs = 20;
  unsigned RunsPerProgram = 40;
  unsigned NumVars = 3;
  unsigned OpsPerThread = 5;
  bool WithFences = false; ///< Generate fences too.
  bool Stressed = true;
};

/// One program of a batch, with its classification.
struct BatchEntry {
  litmus::Program P;
  FuzzResult R;
};

/// Generates and fuzzes \p Cfg.Programs random programs. Program I is
/// generated from stream deriveStream(Seed, 2I) and fuzzed with stream
/// deriveStream(Seed, 2I+1), so programs are mutually independent (no
/// generation-order coupling) and the batch distributes over \p Pool with
/// results bit-identical to serial execution, in program order.
std::vector<BatchEntry> fuzzBatch(const sim::ChipProfile &Chip,
                                  const BatchConfig &Cfg, uint64_t Seed,
                                  ThreadPool *Pool = nullptr);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_PROGRAMFUZZER_H
