//===- litmus/Litmus.h - GPU litmus tests -----------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The litmus runner: executes litmus::Program tests on the simulated GPU,
/// parameterised by the distance between their communication locations
/// (test instances T_d, Sec. 3.1), under configurable memory stress — the
/// micro-benchmark machinery behind the paper's entire Sec. 3 tuning
/// pipeline.
///
/// Tests are data (litmus/Program.h): the runner interprets any program —
/// a built-in catalog entry, a parsed `.litmus` file, or a generated fuzz
/// program. The historical LitmusKind enum API remains as a thin catalog
/// lookup and executes bit-identically to the original hand-written
/// kernels. Communication locations are placed in global memory with the
/// communicating threads in distinct blocks by default, matching the
/// paper's focus on inter-block idioms.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_LITMUS_LITMUS_H
#define GPUWMM_LITMUS_LITMUS_H

#include "litmus/Program.h"
#include "sim/BatchExec.h"
#include "sim/ChipProfile.h"
#include "sim/ExecutionContext.h"
#include "stress/AccessSequence.h"
#include "support/Rng.h"

#include <array>
#include <cstdint>
#include <vector>

namespace gpuwmm {
namespace litmus {

/// The three idioms of Fig. 2, plus three further classic two-location
/// shapes (R, S, 2+2W) the paper's Sec. 3.1 says the stress can be
/// re-tuned to if new buggy idioms emerge.
enum class LitmusKind { MP, LB, SB, R, S, TwoPlusTwoW };

/// The paper's tuning set (Fig. 2).
inline constexpr std::array<LitmusKind, 3> AllLitmusKinds = {
    LitmusKind::MP, LitmusKind::LB, LitmusKind::SB};

/// Every supported shape. Note: the weak outcomes of S and 2+2W hinge on
/// write-write reordering *observed through final memory states*; our
/// model's per-location coherence follows issue order, which forbids
/// them — a documented strengthening relative to real GPUs (tested in
/// LitmusTests). R is observable.
inline constexpr std::array<LitmusKind, 6> AllLitmusKindsExtended = {
    LitmusKind::MP, LitmusKind::LB,          LitmusKind::SB,
    LitmusKind::R,  LitmusKind::S,           LitmusKind::TwoPlusTwoW};

const char *litmusName(LitmusKind K);

/// The catalog program a LitmusKind names (the enum API is a thin lookup
/// into the data-driven catalog; see litmus/Program.h).
const Program &catalogProgram(LitmusKind K);

/// A test instance T_d: test T with communication locations d words apart.
struct LitmusInstance {
  LitmusKind Kind = LitmusKind::MP;
  unsigned Distance = 0;

  /// The address delta between x and y. A distance of 0 means contiguous
  /// locations (delta 1); x and y can never share an address.
  unsigned addressDelta() const { return Distance == 0 ? 1 : Distance; }
};

/// Per-execution litmus options.
struct LitmusRunOpts {
  bool WithFences = false; ///< Fence between each thread's two ops.
  bool Sequential = false; ///< SC reference mode (no weak behaviour).
  bool Randomise = false;  ///< Thread randomisation.
  /// Record the run's memory events (sim/TraceSink.h) for the axiomatic
  /// checker / --explain; read them back via LitmusRunner::trace().
  /// Tracing is pure observation: results are bit-identical either way.
  bool Trace = false;
  /// Streaming sink: feed the run's events to an external incremental
  /// consumer (e.g. model::StreamingChecker) instead of recording them.
  /// The caller brackets the run with the consumer's begin()/finish().
  /// Takes precedence over \ref Trace; equally pure observation.
  sim::TraceSink *Sink = nullptr;
};

/// Executes litmus instances under micro-benchmark stress configurations
/// (⟨T_d, σ@L⟩ in the paper's notation).
class LitmusRunner {
public:
  /// Micro-benchmark stress: the access sequence σ applied at explicit
  /// scratchpad word offsets, by a random population of stressing threads
  /// occupying 50-100% of the chip (paper Sec. 3.2).
  struct MicroStress {
    bool Enabled = false;
    stress::AccessSequence Seq;
    std::vector<unsigned> ScratchOffsets;
    double OccupancyLo = 0.5;
    double OccupancyHi = 1.0;

    /// No stress at all.
    static MicroStress none() { return {}; }

    /// σ applied at a single scratchpad offset (⟨T_d, σ@l⟩).
    static MicroStress at(stress::AccessSequence Seq, unsigned Offset) {
      MicroStress S;
      S.Enabled = true;
      S.Seq = Seq;
      S.ScratchOffsets = {Offset};
      return S;
    }

    /// σ applied at several offsets simultaneously (⟨T_d, σ@Lm⟩).
    static MicroStress atAll(stress::AccessSequence Seq,
                             std::vector<unsigned> Offsets) {
      MicroStress S;
      S.Enabled = true;
      S.Seq = Seq;
      S.ScratchOffsets = std::move(Offsets);
      return S;
    }
  };

  /// Per-execution options (see LitmusRunOpts).
  using RunOpts = LitmusRunOpts;

  /// A runner leases one recycled ExecutionContext from its thread's pool
  /// and reuses it for every execution, so tuning sweeps that perform
  /// thousands of runOnce calls allocate nothing per run in steady state.
  /// Use the runner on the thread that constructed it.
  LitmusRunner(const sim::ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Master(Seed) {}

  /// Executes \p P once with its communication locations \p Distance
  /// words apart; returns true iff the program's forbidden outcome was
  /// observed. \p P must satisfy Program::validate() and must not be
  /// mutated between executions on one runner (the runner caches a
  /// per-(program, distance) execution plan keyed by identity, so
  /// sweeps allocate nothing per run in steady state).
  bool runOnce(const Program &P, unsigned Distance, const MicroStress &S,
               const RunOpts &Opts = RunOpts());

  /// Executes \p P \p C times; returns the number of weak behaviours.
  ///
  /// Runs batched (see \ref countWeakBatch) unless the options request
  /// tracing or attach a streaming sink — those force the scalar
  /// \ref runOnce path per run, since the batched executor does not emit
  /// trace events. Either way, results, executions() accounting and the
  /// runner's derived seed streams are bit-identical, so `litmus
  /// --explain`, `--oracle=all` and `fuzz --shrink` outputs never change.
  /// When \p Outcomes is non-null it receives every run's final state in
  /// execution order, one stride per run: the registers by index, then the
  /// locations by index (the fuzzer's classification input).
  unsigned countWeak(const Program &P, unsigned Distance,
                     const MicroStress &S, unsigned C,
                     const RunOpts &Opts = RunOpts(),
                     std::vector<sim::Word> *Outcomes = nullptr);

  /// Executes \p P \p C times on the batched engine (sim/BatchExec.h):
  /// the program is compiled once into a flat op-stream plan, runs are
  /// grouped into batches of K seeds over the context's SoA slabs, and
  /// the per-run stress source is reused with only its intensity redrawn.
  /// Bit-identical, run for run, to a \ref runOnce loop at the same seed
  /// stream for every batch width (DESIGN.md Sec. 17). \p Opts must not
  /// request tracing or a sink (asserted). When \p PerRun is non-null it
  /// receives each run's weak verdict in execution order (0/1) — the A/B
  /// hook for the identity bench and property tests. \p Outcomes is
  /// \ref countWeak's final-state export.
  unsigned countWeakBatch(const Program &P, unsigned Distance,
                          const MicroStress &S, unsigned C,
                          const RunOpts &Opts = RunOpts(),
                          std::vector<uint8_t> *PerRun = nullptr,
                          std::vector<sim::Word> *Outcomes = nullptr);

  /// Batch width K for the batched path; 0 (default) resolves to the
  /// process-wide sim::defaultBatchWidth(). Width only sets the slab
  /// amortisation window — it never affects results.
  void setBatchWidth(unsigned K) { BatchWidth = K; }
  unsigned batchWidth() const {
    return BatchWidth != 0 ? BatchWidth : sim::defaultBatchWidth();
  }

  /// Executes the catalog program of \p T.Kind once (bit-identical to the
  /// original hand-written kernels); true iff the weak behaviour was
  /// observed.
  bool runOnce(const LitmusInstance &T, const MicroStress &S,
               const RunOpts &Opts = RunOpts()) {
    return runOnce(catalogProgram(T.Kind), T.Distance, S, Opts);
  }

  /// Executes \p C times; returns the number of weak behaviours.
  unsigned countWeak(const LitmusInstance &T, const MicroStress &S,
                     unsigned C, const RunOpts &Opts = RunOpts()) {
    return countWeak(catalogProgram(T.Kind), T.Distance, S, C, Opts);
  }

  /// Total executions performed by this runner (tuning-cost reporting).
  uint64_t executions() const { return Execs; }

  /// The events the most recent execution recorded (empty unless it ran
  /// with RunOpts::Trace). Valid until the next execution.
  const sim::EventTrace &trace() const { return Ctx.get().trace(); }

  /// Names an address of the most recent execution for explanations: a
  /// program location name, "wb(reg)" for a register writeback slot, or a
  /// raw "a<N>" for anything else (stress scratchpad words).
  std::string addrName(sim::Addr A) const;

private:
  /// The (program, distance)-invariant part of an execution: register
  /// writeback lists, the (block, lane) -> thread dispatch table and the
  /// launch geometry. Rebuilt only when the instance changes, so the
  /// million-run tuning sweeps reuse one plan (PR 3's zero-allocation
  /// steady state).
  struct Plan {
    const Program *P = nullptr;
    unsigned Distance = 0;
    unsigned Delta = 1;
    unsigned GridDim = 0;
    unsigned BlockDim = 0;
    std::vector<std::vector<unsigned>> Writeback; ///< Per thread.
    std::vector<int> ThreadAt; ///< block * BlockDim + lane -> thread.
  };

  /// The batched form of \ref Plan: the flat pre-resolved op stream plus
  /// the address layout the per-run allocations are guaranteed to produce
  /// (allocation on a freshly reset context is a deterministic
  /// patch-aligned bump from zero, so addresses are bakeable at
  /// plan-build time and asserted against the real allocs per run).
  struct BatchPlan {
    const Program *P = nullptr;
    unsigned Distance = 0;
    bool Fenced = false;
    unsigned Delta = 1;
    unsigned NumLocs = 0;
    unsigned NumRegs = 0;
    sim::Addr Base = 0;        ///< Location block (loc L at Base+L*Delta).
    sim::Addr Results = 0;     ///< Register writeback block.
    sim::Addr ScratchBase = 0; ///< Stress scratchpad (when stressed).
    std::vector<std::pair<sim::Addr, sim::Word>> InitWrites;
    sim::BatchProgram BP;
  };

  void rebuildPlan(const Program &P, unsigned Distance);
  void rebuildBatchPlan(const Program &P, unsigned Distance, bool Fenced);

  const sim::ChipProfile &Chip;
  Rng Master;
  sim::ContextLease Ctx; ///< Recycled engine state, reused every run.
  uint64_t Execs = 0;
  Plan Cached;
  BatchPlan Batched;
  unsigned BatchWidth = 0; ///< 0 = process default.
  // Per-run scratch, recycled across runs.
  std::vector<sim::Addr> LocAddr;
  std::vector<sim::Word> Regs, FinalRegs, FinalMem;
  sim::Addr ResultsBase = 0; ///< Writeback allocation (addrName).
};

} // namespace litmus
} // namespace gpuwmm

#endif // GPUWMM_LITMUS_LITMUS_H
