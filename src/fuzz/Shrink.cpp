//===- fuzz/Shrink.cpp - Delta-debugging reduction of weak cases -------------===//

#include "fuzz/Shrink.h"

#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "stress/Environment.h"
#include "support/Rng.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using litmus::CondAtom;
using litmus::ProgOp;
using litmus::Program;

namespace {

unsigned countOps(const Program &P) {
  unsigned N = 0;
  for (const litmus::ProgThread &T : P.Threads)
    N += static_cast<unsigned>(T.Ops.size());
  return N;
}

/// One removable unit: a whole thread (every op, plus the registers its
/// loads define), or op positions within one thread that must go together
/// — a single op, or a split-phase issue plus its await.
struct Unit {
  enum class Kind { Ops, Thread };
  Kind K = Kind::Ops;
  unsigned Thread = 0;
  std::vector<size_t> Ops; ///< Ascending positions (Kind::Ops only).
};

/// Registers pinned by the forbidden clause: their loads define the
/// outcome being reproduced and must survive.
std::vector<bool> pinnedRegisters(const Program &P) {
  std::vector<bool> Pinned(P.Registers.size(), false);
  for (const CondAtom &A : P.Forbidden)
    if (A.IsReg)
      Pinned[A.Index] = true;
  return Pinned;
}

/// Renumbers block placements by first appearance in thread order (block
/// of thread 0 becomes 0, the next distinct placement 1, ...). Keeps a
/// thread removal from leaving holes in the launch grid and is the block
/// normalisation step of the canonical form.
void renumberBlocks(Program &P) {
  std::vector<int> Map;
  unsigned Next = 0;
  for (litmus::ProgThread &T : P.Threads) {
    if (T.Block >= Map.size())
      Map.resize(T.Block + 1, -1);
    if (Map[T.Block] < 0)
      Map[T.Block] = static_cast<int>(Next++);
    T.Block = static_cast<unsigned>(Map[T.Block]);
  }
}

/// Deletes register \p R: erases its name and shifts every higher
/// register index (ops and forbidden atoms) down by one.
void eraseRegister(Program &P, unsigned R) {
  P.Registers.erase(P.Registers.begin() + R);
  for (litmus::ProgThread &T : P.Threads)
    for (ProgOp &O : T.Ops) {
      const bool HasReg = O.K == ProgOp::Kind::Load ||
                          O.K == ProgOp::Kind::AsyncLoad ||
                          O.K == ProgOp::Kind::AwaitLoad;
      if (HasReg && O.Reg > R)
        --O.Reg;
    }
  for (CondAtom &A : P.Forbidden)
    if (A.IsReg && A.Index > R)
      --A.Index;
}

std::vector<Unit> removableUnits(const Program &P) {
  const std::vector<bool> Pinned = pinnedRegisters(P);
  std::vector<Unit> Units;
  // Whole threads first (the most aggressive reduction): removable when
  // no register the thread defines is pinned by the forbidden clause and
  // at least one other thread remains.
  if (P.Threads.size() > 1)
    for (unsigned TI = 0; TI != P.Threads.size(); ++TI) {
      bool Removable = true;
      for (const ProgOp &O : P.Threads[TI].Ops)
        if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
            Pinned[O.Reg])
          Removable = false;
      if (Removable) {
        Unit U;
        U.K = Unit::Kind::Thread;
        U.Thread = TI;
        Units.push_back(std::move(U));
      }
    }
  for (unsigned TI = 0; TI != P.Threads.size(); ++TI) {
    const auto &Ops = P.Threads[TI].Ops;
    for (size_t I = 0; I != Ops.size(); ++I) {
      const ProgOp &O = Ops[I];
      switch (O.K) {
      case ProgOp::Kind::Store:
      case ProgOp::Kind::AtomicAdd:
      case ProgOp::Kind::Fence:
      case ProgOp::Kind::OptFence:
        Units.push_back({Unit::Kind::Ops, TI, {I}});
        break;
      case ProgOp::Kind::Load:
        if (!Pinned[O.Reg])
          Units.push_back({Unit::Kind::Ops, TI, {I}});
        break;
      case ProgOp::Kind::AsyncLoad: {
        if (Pinned[O.Reg])
          break;
        // The matching await (validate() guarantees exactly one, later).
        for (size_t J = I + 1; J != Ops.size(); ++J)
          if (Ops[J].K == ProgOp::Kind::AwaitLoad && Ops[J].Reg == O.Reg) {
            Units.push_back({Unit::Kind::Ops, TI, {I, J}});
            break;
          }
        break;
      }
      case ProgOp::Kind::AwaitLoad:
        break; // Removed with its issue.
      }
    }
  }
  return Units;
}

/// \p P minus \p U, with the registers of removed loads deleted and every
/// higher register index (ops and forbidden atoms) shifted down.
Program removeUnit(const Program &P, const Unit &U) {
  Program Q = P;
  if (U.K == Unit::Kind::Thread) {
    // Collect the registers the thread defines (each loaded exactly once,
    // so they are unique), erase the thread, then the registers
    // descending so lower indices stay valid.
    std::vector<unsigned> Regs;
    for (const ProgOp &O : Q.Threads[U.Thread].Ops)
      if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
        Regs.push_back(O.Reg);
    std::sort(Regs.rbegin(), Regs.rend());
    Q.Threads.erase(Q.Threads.begin() + U.Thread);
    for (unsigned R : Regs)
      eraseRegister(Q, R);
    renumberBlocks(Q);
    return Q;
  }
  int RemovedReg = -1;
  for (auto It = U.Ops.rbegin(); It != U.Ops.rend(); ++It) {
    const ProgOp &O = Q.Threads[U.Thread].Ops[*It];
    if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
      RemovedReg = static_cast<int>(O.Reg);
    Q.Threads[U.Thread].Ops.erase(Q.Threads[U.Thread].Ops.begin() +
                                  static_cast<ptrdiff_t>(*It));
  }
  if (RemovedReg >= 0)
    eraseRegister(Q, static_cast<unsigned>(RemovedReg));
  return Q;
}

/// Shared oracle state of one reduction: both checkers, recycled across
/// candidates, plus the cross-check accounting.
struct ShrinkOracle {
  model::StreamingChecker Streaming;
  model::ConsistencyChecker PostHoc;
  uint64_t CrossChecks = 0;
  std::string Error; ///< First disagreement (sticky).
};

enum class Repro { No, Yes, Disagree };

/// Whether \p P provokes its forbidden outcome as a checker-confirmed weak
/// behaviour within the attempt budget. Every consulted run is traced and
/// judged by BOTH the streaming and the post-hoc checker; a verdict
/// disagreement is a hard failure (Repro::Disagree), not a data point.
/// \p AttemptIdx seeds the attempt (one stream per candidate, so the
/// search is deterministic); \p PreferRegion is tried first (the stress
/// location that last worked).
Repro reproducesWeak(const Program &P, const sim::ChipProfile &Chip,
                     const ShrinkOptions &Opts, uint64_t AttemptIdx,
                     unsigned &PreferRegion, ShrinkOracle &Oracle) {
  litmus::LitmusRunner Runner(Chip, Rng::deriveStream(Opts.Seed, AttemptIdx));
  litmus::LitmusRunner::RunOpts RunOpts;
  // Trace (rather than sink-stream) so the same recorded events feed both
  // checkers. Tracing and sinking are equally pure observation on the
  // scalar path, so verdicts and run outcomes match the historical
  // sink-attached behaviour bit for bit.
  RunOpts.Trace = true;

  // Stress locations to try, most-recently-successful region first (the
  // effective region rarely changes between close candidates).
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  std::vector<std::pair<unsigned, litmus::LitmusRunner::MicroStress>> Configs;
  if (Opts.Stressed) {
    const unsigned First = PreferRegion % Chip.NumBanks;
    Configs.emplace_back(First, litmus::LitmusRunner::MicroStress::at(
                                    Tuned.Seq, First * Tuned.PatchWords));
    for (unsigned Region = 0; Region != Chip.NumBanks; ++Region)
      if (Region != First)
        Configs.emplace_back(Region,
                             litmus::LitmusRunner::MicroStress::at(
                                 Tuned.Seq, Region * Tuned.PatchWords));
  } else {
    Configs.emplace_back(0, litmus::LitmusRunner::MicroStress::none());
  }

  for (const auto &[Region, Stress] : Configs) {
    for (unsigned Run = 0; Run != Opts.RunsPerAttempt; ++Run) {
      const bool Forbidden = Runner.runOnce(P, Opts.Distance, Stress,
                                            RunOpts);
      if (!Forbidden)
        continue;
      // The forbidden outcome was observed; only a checker-confirmed
      // non-SC execution counts (a reduction that makes the outcome
      // sequentially reachable shrank the weakness away) — and both
      // oracles must say so about the same trace.
      const sim::EventTrace &Trace = Runner.trace();
      const model::StreamVerdict &SV = Oracle.Streaming.checkAll(Trace);
      const model::CheckResult CR = Oracle.PostHoc.check(Trace);
      ++Oracle.CrossChecks;
      if (SV.AxiomsOk != CR.AxiomsOk || SV.weak() != CR.weak()) {
        Oracle.Error =
            "streaming and post-hoc checkers disagree on a "
            "forbidden-outcome run of '" +
            P.Name + "' (streaming: axioms " +
            (SV.AxiomsOk ? "ok" : ("violated [" + SV.AxiomViolation + "]")) +
            (SV.weak() ? ", weak" : ", not weak") + "; post-hoc: axioms " +
            (CR.AxiomsOk ? "ok" : ("violated [" + CR.AxiomViolation + "]")) +
            (CR.weak() ? ", weak" : ", not weak") + ")";
        return Repro::Disagree;
      }
      if (SV.weak()) {
        PreferRegion = Region;
        return Repro::Yes;
      }
    }
  }
  return Repro::No;
}

/// Whether \p A and \p B execute alike: the same ops on the same
/// location, register and block indices, so the same banks. Names and
/// data values may differ (no op's timing depends on them).
bool sameLayout(const Program &A, const Program &B) {
  if (A.Locations.size() != B.Locations.size() ||
      A.Registers.size() != B.Registers.size() ||
      A.Threads.size() != B.Threads.size())
    return false;
  for (size_t T = 0; T != A.Threads.size(); ++T) {
    const auto &OA = A.Threads[T].Ops, &OB = B.Threads[T].Ops;
    if (A.Threads[T].Block != B.Threads[T].Block || OA.size() != OB.size())
      return false;
    for (size_t I = 0; I != OA.size(); ++I)
      if (OA[I].K != OB[I].K || OA[I].Loc != OB[I].Loc ||
          OA[I].Reg != OB[I].Reg)
        return false;
  }
  return true;
}

} // namespace

ShrinkResult fuzz::shrinkWeakProgram(const Program &P,
                                     const sim::ChipProfile &Chip,
                                     const ShrinkOptions &Opts) {
  ShrinkResult Result;
  Result.Reduced = P;
  Result.OriginalOps = countOps(P);
  Result.ReducedOps = Result.OriginalOps;

  ShrinkOracle Oracle;
  unsigned PreferRegion = 0;
  uint64_t AttemptIdx = 0;
  const Repro First =
      reproducesWeak(P, Chip, Opts, AttemptIdx++, PreferRegion, Oracle);
  Result.CrossChecks = Oracle.CrossChecks;
  Result.OracleError = Oracle.Error;
  if (First != Repro::Yes)
    return Result; // Nothing to shrink against (or oracle divergence).
  Result.Reproduced = true;
  Result.ProvokingRegion = PreferRegion;

  bool Improved = true;
  while (Improved) {
    Improved = false;
    for (const Unit &U : removableUnits(Result.Reduced)) {
      Program Candidate = removeUnit(Result.Reduced, U);
      if (!Candidate.validate().empty())
        continue;
      ++Result.Candidates;
      const Repro R = reproducesWeak(Candidate, Chip, Opts, AttemptIdx++,
                                     PreferRegion, Oracle);
      if (R == Repro::Disagree) {
        Result.CrossChecks = Oracle.CrossChecks;
        Result.OracleError = Oracle.Error;
        return Result; // Hard failure: stop reducing immediately.
      }
      if (R == Repro::Yes) {
        Result.Reduced = std::move(Candidate);
        Result.ProvokingRegion = PreferRegion;
        if (Opts.RecordSteps)
          Result.Steps.push_back(Result.Reduced);
        ++Result.Accepted;
        Improved = true;
        break; // Unit positions shifted; rebuild the unit list.
      }
    }
  }

  // Hunt hardens and verifies the canonical form at ProvokingRegion. When
  // canonicalisation moves a location, register slot or block, that form
  // stresses other banks, so find its region on it (keeping the last one
  // when it does not reproduce within the budget).
  const Program Canon = canonicalizeProgram(Result.Reduced);
  if (!sameLayout(Canon, Result.Reduced)) {
    const Repro R =
        reproducesWeak(Canon, Chip, Opts, AttemptIdx++, PreferRegion, Oracle);
    Result.OracleError = Oracle.Error;
    if (R == Repro::Yes)
      Result.ProvokingRegion = PreferRegion;
  }
  Result.ReducedOps = countOps(Result.Reduced);
  Result.CrossChecks = Oracle.CrossChecks;
  return Result;
}

bool fuzz::reproducesWeakProgram(const Program &P,
                                 const sim::ChipProfile &Chip,
                                 const ShrinkOptions &Opts,
                                 std::string *OracleError) {
  ShrinkOracle Oracle;
  unsigned PreferRegion = 0;
  const Repro R = reproducesWeak(P, Chip, Opts, /*AttemptIdx=*/0,
                                 PreferRegion, Oracle);
  if (OracleError)
    *OracleError = Oracle.Error;
  return R == Repro::Yes;
}

//===----------------------------------------------------------------------===//
// Canonical form
//===----------------------------------------------------------------------===//

namespace {

bool opUsesLoc(const ProgOp &O) {
  return O.K == ProgOp::Kind::Store || O.K == ProgOp::Kind::Load ||
         O.K == ProgOp::Kind::AsyncLoad || O.K == ProgOp::Kind::AtomicAdd;
}

/// The location index whose value map governs forbidden atom \p A: the
/// location itself for a memory atom, the defining load's location for a
/// register atom (-1 when the register has no defining load — impossible
/// for validated programs).
int atomLocation(const Program &P, const CondAtom &A) {
  if (!A.IsReg)
    return static_cast<int>(A.Index);
  for (const litmus::ProgThread &T : P.Threads)
    for (const ProgOp &O : T.Ops)
      if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
          O.Reg == A.Index)
        return static_cast<int>(O.Loc);
  return -1;
}

} // namespace

Program fuzz::canonicalizeProgram(const Program &P) {
  Program Q = P;
  renumberBlocks(Q);

  // --- Locations: rename/reorder to v0.. by first use in op scan order,
  // then forbidden-only locations in clause order; locations nothing
  // references are dropped (their init values are unobservable).
  {
    std::vector<int> Map(Q.Locations.size(), -1);
    std::vector<unsigned> Order;
    const auto Touch = [&](unsigned L) {
      if (Map[L] < 0) {
        Map[L] = static_cast<int>(Order.size());
        Order.push_back(L);
      }
    };
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops)
        if (opUsesLoc(O))
          Touch(O.Loc);
    for (const CondAtom &A : Q.Forbidden)
      if (!A.IsReg)
        Touch(A.Index);

    std::vector<std::string> Locs(Order.size());
    std::vector<sim::Word> Init(Order.size(), 0);
    for (size_t I = 0; I != Order.size(); ++I) {
      // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
      std::string Loc = "v";
      Loc += std::to_string(I);
      Locs[I] = std::move(Loc);
      Init[I] = Q.Init[Order[I]];
    }
    Q.Locations = std::move(Locs);
    Q.Init = std::move(Init);
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (opUsesLoc(O))
          O.Loc = static_cast<unsigned>(Map[O.Loc]);
    for (CondAtom &A : Q.Forbidden)
      if (!A.IsReg)
        A.Index = static_cast<unsigned>(Map[A.Index]);
  }

  // --- Registers: rename/reorder to r0.. by definition scan order (each
  // register is loaded exactly once in a validated program).
  {
    std::vector<int> Map(Q.Registers.size(), -1);
    unsigned Next = 0;
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops)
        if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
            Map[O.Reg] < 0)
          Map[O.Reg] = static_cast<int>(Next++);
    std::vector<std::string> Regs(Next);
    for (unsigned I = 0; I != Next; ++I) {
      // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
      std::string Reg = "r";
      Reg += std::to_string(I);
      Regs[I] = std::move(Reg);
    }
    Q.Registers = std::move(Regs);
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad ||
            O.K == ProgOp::Kind::AwaitLoad)
          O.Reg = static_cast<unsigned>(Map[O.Reg]);
    for (CondAtom &A : Q.Forbidden)
      if (A.IsReg)
        A.Index = static_cast<unsigned>(Map[A.Index]);
  }

  // --- Data values, per location: values are pure payload in a litmus
  // program (no data-dependent control flow), so any per-location
  // injective renaming is a behaviour isomorphism. Normalise to
  // 0 (the implicit default), 1 (a non-zero init), then store values in
  // scan order from 2 — EXCEPT for locations an AtomicAdd touches
  // (values accumulate) or whose forbidden atoms reference a value the
  // map does not cover (renaming could break the pinned outcome).
  for (unsigned L = 0; L != Q.Locations.size(); ++L) {
    bool Skip = false;
    std::map<sim::Word, sim::Word> M;
    M[0] = 0;
    if (Q.Init[L] != 0)
      M.emplace(Q.Init[L], 1);
    sim::Word NextValue = 2;
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops) {
        if (O.K == ProgOp::Kind::AtomicAdd && O.Loc == L)
          Skip = true;
        if (O.K == ProgOp::Kind::Store && O.Loc == L &&
            M.emplace(O.Value, NextValue).second)
          ++NextValue;
      }
    for (const CondAtom &A : Q.Forbidden)
      if (atomLocation(Q, A) == static_cast<int>(L) && !M.count(A.Value))
        Skip = true;
    if (Skip)
      continue;
    Q.Init[L] = M[Q.Init[L]];
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (O.K == ProgOp::Kind::Store && O.Loc == L)
          O.Value = M[O.Value];
    for (CondAtom &A : Q.Forbidden)
      if (atomLocation(Q, A) == static_cast<int>(L))
        A.Value = M[A.Value];
  }

  // --- Forbidden clause: a conjunction, so order and duplicates carry no
  // meaning — sort (registers first) and deduplicate.
  std::sort(Q.Forbidden.begin(), Q.Forbidden.end(),
            [](const CondAtom &A, const CondAtom &B) {
              return std::make_tuple(!A.IsReg, A.Index, A.Negated, A.Value) <
                     std::make_tuple(!B.IsReg, B.Index, B.Negated, B.Value);
            });
  Q.Forbidden.erase(std::unique(Q.Forbidden.begin(), Q.Forbidden.end()),
                    Q.Forbidden.end());
  return Q;
}

std::string fuzz::canonicalKey(const Program &P) {
  Program Q = canonicalizeProgram(P);
  Q.Name = "canonical";
  Q.Doc.clear();
  return litmus::printLitmus(Q);
}
