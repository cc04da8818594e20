//===- hunt/Hunt.h - Closed-loop bug-mining pipeline ------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `gpuwmm hunt` pipeline (DESIGN.md Sec. 18): a closed loop that
/// mines a deduplicated corpus of minimal, hardened, oracle-verified weak
/// cases by composing the whole toolchain —
///
///   fuzz    generate a batch of random litmus programs and classify
///           each LitmusRunner final state against the program's
///           exhaustive SC set (fuzz/ProgramFuzzer.h),
///   shrink  delta-debug each weak case to its minimal core with every
///           acceptance cross-checked by both consistency checkers
///           (fuzz/Shrink.h),
///   dedupe  key the canonical printed form against the corpus
///           (hunt/Corpus.h) so isomorphic rediscoveries collapse,
///   harden  run the paper's Alg. 1 over each new entry at its provoking
///           stress region (harden/LitmusHarden.h), and
///   verify  execute the hardened program under the streaming oracle and
///           demand SC, with per-axiom violation accounting.
///
/// Determinism: round R draws four decoupled seed streams
/// (deriveStream(Seed, 4R + stage)), each parallel stage derives
/// per-index streams and writes per-index slots, and serial stages walk
/// in index order — so a bounded hunt's corpus and report are
/// bit-identical for every --jobs and --batch. Resume re-enters at the
/// first round without a durable round_done marker and re-runs it
/// identically; corpus dedupe turns the replayed discoveries into no-ops.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HUNT_HUNT_H
#define GPUWMM_HUNT_HUNT_H

#include "fuzz/ProgramFuzzer.h"
#include "hunt/Corpus.h"
#include "sim/ChipProfile.h"
#include "support/ThreadPool.h"

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gpuwmm {
namespace hunt {

/// Configuration of one hunt invocation.
struct HuntConfig {
  const sim::ChipProfile *Chip = nullptr;
  /// Total rounds the corpus should reach (a resumed hunt runs only the
  /// rounds past the durable round_done high-water mark).
  unsigned Rounds = 4;
  /// Per-round fuzzing batch (WithFences stays false: the hunt wants
  /// weak behaviours, not the soundness property).
  fuzz::BatchConfig Fuzz;
  /// Instance distance for shrink/harden/verify executions.
  unsigned Distance = 0;
  unsigned ShrinkRuns = 200; ///< Shrinker runs per stress location.
  unsigned HardenRuns = 32;  ///< Alg. 1 initial per-check iterations.
  unsigned StableRuns = 300; ///< Alg. 1 empirical-stability budget.
  unsigned VerifyRuns = 200; ///< Oracle-checked runs per new entry.
  uint64_t Seed = 1;
  std::string CorpusDir; ///< Empty = in-memory corpus.
  bool Resume = false;
  unsigned CrashAfterAppends = 0; ///< Crash-injection hook (tests).

  /// The manifest this config pins on a corpus directory.
  CorpusManifest manifest() const;
};

/// Accounting of one hunt invocation. The `totals` block counts this
/// invocation's pipeline work; the oracle block and \ref Entries describe
/// the whole corpus (including entries loaded on resume).
struct HuntReport {
  HuntConfig Config;
  unsigned StartRound = 0; ///< First round this invocation executed.
  unsigned RoundsRun = 0;  ///< Rounds this invocation executed.
  // Pipeline totals (this invocation).
  uint64_t ProgramsFuzzed = 0;
  uint64_t WeakPrograms = 0;
  uint64_t NotReproduced = 0; ///< Weak cases the shrinker could not re-provoke.
  uint64_t ShrinkCandidates = 0;
  uint64_t ShrinkAccepted = 0;
  uint64_t CrossChecks = 0; ///< Streaming-vs-post-hoc verdict comparisons.
  uint64_t Duplicates = 0;  ///< Shrunk cases whose key was already mined.
  uint64_t NewEntries = 0;
  // Corpus-wide oracle accounting (sums over \ref Entries).
  uint64_t OracleChecked = 0;
  uint64_t OracleWeak = 0;      ///< Hardened runs still weak (should be 0).
  uint64_t OracleForbidden = 0; ///< Hardened runs hitting the forbidden outcome.
  std::array<uint64_t, NumAxioms> AxiomCounts{};
  std::vector<CorpusEntry> Entries; ///< The full corpus, append order.
  std::vector<std::string> Warnings; ///< Corpus load warnings (torn tails).

  /// True when every corpus entry's hardened program stayed SC under the
  /// oracle (zero weak runs, zero axiom violations).
  bool clean() const;
};

/// Runs the pipeline: opens (or resumes) the corpus, executes the
/// outstanding rounds, and fills \p Report. False + \p Err on hard
/// failure — a corpus I/O error or, crucially, any streaming-vs-post-hoc
/// checker disagreement on a shrink acceptance run (a result built on a
/// diverging oracle must not be trusted). \p Pool may be null (serial);
/// results are bit-identical for every pool size and batch width.
bool runHunt(const HuntConfig &Cfg, ThreadPool *Pool, HuntReport &Report,
             std::string *Err);

/// Writes the hunt report ("gpuwmm-hunt-v1"). No wall-clock or host
/// facts: byte-identical across machines, job counts and batch widths
/// for one config.
void writeHuntJson(const HuntReport &Report, std::ostream &OS);

} // namespace hunt
} // namespace gpuwmm

#endif // GPUWMM_HUNT_HUNT_H
