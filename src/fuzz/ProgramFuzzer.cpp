//===- fuzz/ProgramFuzzer.cpp - Random-program differential fuzzing ----------===//

#include "fuzz/ProgramFuzzer.h"

#include "litmus/Litmus.h"
#include "stress/Environment.h"

#include <cassert>
#include <functional>
#include <limits>
#include <numeric>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using litmus::ProgOp;
using sim::Word;

litmus::Program fuzz::generateProgram(Rng &R, unsigned NumVars,
                                      unsigned OpsPerThread,
                                      bool WithFences) {
  assert(NumVars > 0 && OpsPerThread > 0 && "need locations and ops");
  // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
  const auto Named = [](const char *Prefix, size_t I) {
    std::string S = Prefix;
    S += std::to_string(I);
    return S;
  };
  litmus::Program P;
  P.Name = "fuzz";
  P.Doc = "exported fuzz case";
  P.PhaseJitter = 8;
  for (unsigned V = 0; V != NumVars; ++V)
    P.Locations.push_back(Named("v", V));
  P.Init.assign(NumVars, 0);

  Word NextValue = 1;
  P.Threads.resize(2);
  for (unsigned T = 0; T != 2; ++T) {
    std::vector<ProgOp> &Ops = P.Threads[T].Ops;
    P.Threads[T].Block = T;
    for (unsigned I = 0; I != OpsPerThread; ++I) {
      const auto Kind = R.below(WithFences ? 4 : 3);
      if (Kind == 3) {
        Ops.push_back(ProgOp::fence());
        continue;
      }
      const auto Loc = static_cast<unsigned>(R.below(NumVars));
      if (Kind == 0) {
        Ops.push_back(ProgOp::store(Loc, NextValue++));
      } else if (Kind == 2) {
        Ops.push_back(ProgOp::atomicAdd(Loc, NextValue++));
      } else {
        const auto Reg = static_cast<unsigned>(P.Registers.size());
        Ops.push_back(ProgOp::load(Reg, Loc));
        P.Registers.push_back(Named("r", P.Registers.size()));
      }
    }
  }
  return P;
}

/// The ops enumerateScOutcomes interleaves: fences order nothing under SC
/// and an await completes a load that already read at its issue point.
static bool isScStep(const ProgOp &O) {
  return O.K != ProgOp::Kind::Fence && O.K != ProgOp::Kind::OptFence &&
         O.K != ProgOp::Kind::AwaitLoad;
}

uint64_t fuzz::scInterleavings(const litmus::Program &P) {
  // One factor Total/K per step (the K-th of its thread): K divides
  // Count * Total, so Total / (K / gcd(Count, K)) is exact and only an
  // unrepresentable count saturates.
  constexpr uint64_t Max = std::numeric_limits<uint64_t>::max();
  uint64_t Count = 1, Total = 0;
  for (const litmus::ProgThread &T : P.Threads) {
    uint64_t K = 0;
    for (const ProgOp &O : T.Ops) {
      if (!isScStep(O))
        continue;
      ++Total;
      ++K;
      const uint64_t G = std::gcd(Count, K);
      const uint64_t Factor = Total / (K / G);
      if (Count / G > Max / Factor)
        return Max;
      Count = Count / G * Factor;
    }
  }
  return Count;
}

std::string fuzz::unfuzzableReason(const litmus::Program &P) {
  const std::string Invalid = P.validate();
  if (!Invalid.empty())
    return "program is not well-formed: " + Invalid;
  for (const litmus::ProgThread &T : P.Threads)
    for (const ProgOp &O : T.Ops)
      if (O.K == ProgOp::Kind::AsyncLoad || O.K == ProgOp::Kind::AwaitLoad)
        return "split-phase loads (ldasync/await) are outside the fuzzer's "
               "instruction set";
  const uint64_t N = scInterleavings(P);
  if (N > MaxScInterleavings)
    return "its SC enumeration would walk " +
           (N == std::numeric_limits<uint64_t>::max()
                ? std::string("at least 2^64")
                : std::to_string(N)) +
           " interleavings (limit " + std::to_string(MaxScInterleavings) +
           ")";
  return "";
}

std::set<Outcome> fuzz::enumerateScOutcomes(const litmus::Program &P) {
  std::vector<std::vector<ProgOp>> Steps(P.Threads.size());
  size_t Left = 0;
  for (size_t T = 0; T != P.Threads.size(); ++T)
    for (const ProgOp &O : P.Threads[T].Ops)
      if (isScStep(O)) {
        Steps[T].push_back(O);
        ++Left;
      }

  // The outcome under construction: registers, then memory.
  const size_t NumRegs = P.Registers.size();
  Outcome State(NumRegs, 0);
  State.insert(State.end(), P.Init.begin(), P.Init.end());
  std::vector<size_t> Pc(Steps.size(), 0);
  std::set<Outcome> Outcomes;

  // DFS over interleavings: apply the next op of some thread, recurse,
  // undo.
  std::function<void()> Step = [&] {
    if (Left == 0) {
      Outcomes.insert(State);
      return;
    }
    for (size_t T = 0; T != Steps.size(); ++T) {
      if (Pc[T] == Steps[T].size())
        continue;
      const ProgOp &O = Steps[T][Pc[T]];
      const bool IsLoad =
          O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad;
      Word &Slot = IsLoad ? State[O.Reg] : State[NumRegs + O.Loc];
      const Word Saved = Slot;
      if (IsLoad)
        Slot = State[NumRegs + O.Loc];
      else if (O.K == ProgOp::Kind::Store)
        Slot = O.Value;
      else
        Slot += O.Value; // AtomicAdd.
      ++Pc[T];
      --Left;
      Step();
      ++Left;
      --Pc[T];
      Slot = Saved;
    }
  };
  Step();
  return Outcomes;
}

FuzzResult fuzz::fuzzProgram(const litmus::Program &P,
                             const sim::ChipProfile &Chip, unsigned Runs,
                             uint64_t Seed, bool Stressed) {
  assert(unfuzzableReason(P).empty() && "program is not fuzzable");
  FuzzResult Result;
  Result.Runs = Runs;
  const std::set<Outcome> Sc = enumerateScOutcomes(P);
  Result.ScSetSize = Sc.size();
  std::set<Outcome> WeakSeen, ScSeen;

  litmus::LitmusRunner Runner(Chip, Seed);
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const unsigned Regions = Stressed ? Chip.NumBanks : 1;
  const size_t Stride = P.Registers.size() + P.Locations.size();
  std::vector<Word> Finals;
  for (unsigned Region = 0; Region != Regions; ++Region) {
    const auto Chunk = static_cast<unsigned>(
        uint64_t{Runs} * (Region + 1) / Regions -
        uint64_t{Runs} * Region / Regions);
    const auto Stress =
        Stressed ? litmus::LitmusRunner::MicroStress::at(
                       Tuned.Seq, Region * Tuned.PatchWords)
                 : litmus::LitmusRunner::MicroStress::none();
    Runner.countWeak(P, Chip.PatchSizeWords, Stress, Chunk, {}, &Finals);
    for (auto It = Finals.begin(); It != Finals.end(); It += Stride) {
      Outcome O(It, It + static_cast<ptrdiff_t>(Stride));
      if (Sc.count(O)) {
        ScSeen.insert(std::move(O));
        continue;
      }
      if (Result.WeakOutcomes == 0)
        Result.FirstWeak = O;
      ++Result.WeakOutcomes;
      WeakSeen.insert(std::move(O));
    }
  }
  Result.DistinctWeak = static_cast<unsigned>(WeakSeen.size());
  Result.DistinctScSeen = static_cast<unsigned>(ScSeen.size());
  return Result;
}

std::vector<BatchEntry> fuzz::fuzzBatch(const sim::ChipProfile &Chip,
                                        const BatchConfig &Cfg,
                                        uint64_t Seed, ThreadPool *Pool) {
  std::vector<BatchEntry> Batch(Cfg.Programs);
  parallelFor(Pool, Cfg.Programs, [&](size_t I) {
    BatchEntry &Entry = Batch[I];
    Rng Gen(Rng::deriveStream(Seed, 2 * static_cast<uint64_t>(I)));
    Entry.P = generateProgram(Gen, Cfg.NumVars, Cfg.OpsPerThread,
                              Cfg.WithFences);
    Entry.R = fuzzProgram(
        Entry.P, Chip, Cfg.RunsPerProgram,
        Rng::deriveStream(Seed, 2 * static_cast<uint64_t>(I) + 1),
        Cfg.Stressed);
  });
  return Batch;
}
