//===- tests/FuzzTests.cpp - random-program fuzzing tests ------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests the exhaustive SC reference against hand-computed outcome sets and
// the catalog's forbidden clauses, and property-tests the memory model's
// soundness on random programs: with a fence after every access, the weak
// machine only ever produces SC-reachable outcomes, even under tuned
// stress.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramFuzzer.h"

#include "harden/LitmusHarden.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "sim/BatchExec.h"
#include "stress/Environment.h"

#include "gtest/gtest.h"

#include <limits>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using litmus::ProgOp;
using litmus::Program;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

/// A two-thread program over v0.. in the generator's shape: thread T in
/// block T, registers r0.. in load order.
Program twoThreads(unsigned NumVars, std::vector<ProgOp> T0,
                   std::vector<ProgOp> T1) {
  Program P;
  P.Name = "t";
  for (unsigned V = 0; V != NumVars; ++V)
    P.Locations.push_back("v" + std::to_string(V));
  P.Init.assign(NumVars, 0);
  P.Threads = {{0, std::move(T0)}, {1, std::move(T1)}};
  unsigned NumRegs = 0;
  for (const litmus::ProgThread &T : P.Threads)
    for (const ProgOp &O : T.Ops)
      NumRegs += O.K == ProgOp::Kind::Load;
  for (unsigned R = 0; R != NumRegs; ++R)
    P.Registers.push_back("r" + std::to_string(R));
  EXPECT_EQ(P.validate(), "");
  return P;
}

/// MP:  T0: st(v0,1) st(v1,1)      T1: r0=ld(v1) r1=ld(v0)
Program mpProgram() {
  return twoThreads(2, {ProgOp::store(0, 1), ProgOp::store(1, 1)},
                    {ProgOp::load(0, 1), ProgOp::load(1, 0)});
}

/// \p P with a fence after every access.
Program fullyFenced(const Program &P) {
  return harden::applyLitmusFences(
      P, sim::FencePolicy::all(static_cast<unsigned>(
             harden::litmusFenceSites(P).size())));
}

/// Restores the process-wide engine selection when a test ends.
struct EngineGuard {
  ~EngineGuard() { sim::setEngineMode(sim::EngineMode::Auto); }
};

} // namespace

//===----------------------------------------------------------------------===//
// SC enumerator
//===----------------------------------------------------------------------===//

TEST(ScEnumeratorTest, MpOutcomesMatchHandEnumeration) {
  // Outcome layout for MP: [r0=ld(v1), r1=ld(v0), final v0, final v1].
  const auto Sc = enumerateScOutcomes(mpProgram());
  // SC allows (0,0), (0,1)... r0=1 implies r1=1. Finals always (1,1).
  EXPECT_EQ(Sc.size(), 3u);
  EXPECT_TRUE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_FALSE(Sc.count({1, 0, 1, 1})) << "the MP weak outcome is not SC";
}

TEST(ScEnumeratorTest, SbOutcomesMatchHandEnumeration) {
  // SB: T0: st(v0,1) ld(v1); T1: st(v1,1) ld(v0).
  const Program P =
      twoThreads(2, {ProgOp::store(0, 1), ProgOp::load(0, 1)},
                 {ProgOp::store(1, 1), ProgOp::load(1, 0)});
  const auto Sc = enumerateScOutcomes(P);
  // Outcome layout: [r0=ld(v1), r1=ld(v0), v0, v1]. SC forbids (0,0).
  EXPECT_FALSE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 0, 1, 1}));
}

TEST(ScEnumeratorTest, AtomicsAccumulate) {
  const Program P = twoThreads(1, {ProgOp::atomicAdd(0, 3)},
                               {ProgOp::atomicAdd(0, 5)});
  const auto Sc = enumerateScOutcomes(P);
  ASSERT_EQ(Sc.size(), 1u);
  EXPECT_TRUE(Sc.count({8})) << "adds commute; one final state";
}

TEST(ScEnumeratorTest, FencesAreScNoOps) {
  const Program P = mpProgram();
  EXPECT_EQ(enumerateScOutcomes(P), enumerateScOutcomes(fullyFenced(P)));
  EXPECT_EQ(scInterleavings(P), scInterleavings(fullyFenced(P)));
}

TEST(ScEnumeratorTest, InitialStateSeedsMemory) {
  Program P = twoThreads(1, {ProgOp::atomicAdd(0, 2)}, {ProgOp::load(0, 0)});
  P.Init = {5};
  const auto Sc = enumerateScOutcomes(P);
  EXPECT_EQ(Sc, (std::set<Outcome>{{5, 7}, {7, 7}}));
}

TEST(ScEnumeratorTest, CatalogForbiddenOutcomesAreNeverSc) {
  // Every catalog test's forbidden clause names a non-SC outcome (the
  // split-phase idioms read at their issue point), over two, three and
  // four threads — and the enumerator reaches more than one outcome.
  for (const Program &P : litmus::catalog()) {
    const auto Sc = enumerateScOutcomes(P);
    EXPECT_GT(Sc.size(), 1u) << P.Name;
    const size_t NumRegs = P.Registers.size();
    for (const Outcome &O : Sc) {
      const std::vector<sim::Word> Regs(O.begin(), O.begin() + NumRegs);
      const std::vector<sim::Word> Mem(O.begin() + NumRegs, O.end());
      EXPECT_FALSE(P.evalForbidden(Regs, Mem)) << P.Name;
    }
  }
}

TEST(ScEnumeratorTest, InterleavingsAreTheMultinomial) {
  EXPECT_EQ(scInterleavings(mpProgram()), 6u); // C(4, 2).
  // IRIW: threads of 1, 1, 2 and 2 reads/writes (awaits are no steps):
  // 6! / (1! 1! 2! 2!) = 180.
  EXPECT_EQ(scInterleavings(*litmus::findCatalogProgram("IRIW")), 180u);
  Program Huge = mpProgram();
  for (litmus::ProgThread &T : Huge.Threads)
    T.Ops.assign(40, ProgOp::store(0, 1));
  Huge.Registers.clear();
  EXPECT_EQ(scInterleavings(Huge), std::numeric_limits<uint64_t>::max())
      << "C(80, 40) saturates";
}

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

TEST(ProgramTest, GenerateRespectsBounds) {
  Rng R(5);
  for (int I = 0; I != 50; ++I) {
    const Program P = generateProgram(R, 3, 6, /*WithFences=*/false);
    EXPECT_EQ(P.validate(), "");
    EXPECT_EQ(P.Locations.size(), 3u);
    EXPECT_EQ(P.PhaseJitter, 8u);
    ASSERT_EQ(P.Threads.size(), 2u);
    unsigned NextReg = 0;
    for (unsigned T = 0; T != 2; ++T) {
      EXPECT_EQ(P.Threads[T].Block, T);
      EXPECT_EQ(P.Threads[T].Ops.size(), 6u);
      for (const ProgOp &O : P.Threads[T].Ops) {
        EXPECT_NE(O.K, ProgOp::Kind::Fence);
        EXPECT_LT(O.Loc, 3u);
        if (O.K == ProgOp::Kind::Load) {
          EXPECT_EQ(O.Reg, NextReg++) << "registers in load order";
        }
      }
    }
  }
}

TEST(ProgramTest, FullyFencedDoublesAccesses) {
  Rng R(6);
  const Program P = generateProgram(R, 2, 5, false);
  const Program F = fullyFenced(P);
  for (unsigned T = 0; T != 2; ++T) {
    ASSERT_EQ(F.Threads[T].Ops.size(), 10u);
    for (size_t I = 1; I < 10; I += 2)
      EXPECT_EQ(F.Threads[T].Ops[I].K, ProgOp::Kind::Fence);
  }
}

TEST(ProgramTest, ListingMentionsEveryOpKind) {
  const Program P = twoThreads(1,
                               {ProgOp::store(0, 7), ProgOp::load(0, 0),
                                ProgOp::atomicAdd(0, 1), ProgOp::fence()},
                               {ProgOp::store(0, 2)});
  const std::string S = litmus::printLitmus(P);
  EXPECT_NE(S.find("st v0 7"), std::string::npos) << S;
  EXPECT_NE(S.find("ld r0 v0"), std::string::npos) << S;
  EXPECT_NE(S.find("add v0 1"), std::string::npos) << S;
  EXPECT_NE(S.find("fence"), std::string::npos) << S;
}

//===----------------------------------------------------------------------===//
// Weak-machine soundness (the headline property)
//===----------------------------------------------------------------------===//

TEST(FuzzSoundnessTest, FullyFencedOutcomesAreAlwaysScReachable) {
  // 60 random programs, each fully fenced, each run 8 times under tuned
  // stress (one run per bank region): every outcome must be SC-reachable.
  // This is the model-soundness property the whole reproduction rests on.
  Rng R(4242);
  for (int I = 0; I != 60; ++I) {
    const Program P = fullyFenced(generateProgram(R, 3, 4, false));
    const FuzzResult Result =
        fuzzProgram(P, titan(), /*Runs=*/8, 1000 + I, /*Stressed=*/true);
    EXPECT_EQ(Result.WeakOutcomes, 0u)
        << "non-SC outcome from a fully fenced program:\n"
        << litmus::printLitmus(P);
  }
}

TEST(FuzzSoundnessTest, SequentialOutcomesAreScReachableUnfenced) {
  // The same property for plain programs on rare native runs: most
  // executions are SC; the few that are not are genuine weak behaviours.
  Rng R(99);
  unsigned Weak = 0, Total = 0;
  for (int I = 0; I != 30; ++I) {
    const Program P = generateProgram(R, 3, 4, false);
    const FuzzResult Result =
        fuzzProgram(P, titan(), 10, 2000 + I, /*Stressed=*/false);
    Weak += Result.WeakOutcomes;
    Total += Result.Runs;
  }
  EXPECT_LT(Weak * 50, Total) << "native weak outcomes must be rare (<2%)";
}

TEST(FuzzWeaknessTest, StressExposesWeakOutcomesOnRandomPrograms) {
  // Black-box generality (the paper's Sec. 3 goal): the tuned stress
  // provokes non-SC outcomes on arbitrary unfenced programs, not just the
  // three hand-written litmus idioms.
  Rng R(77);
  unsigned ProgramsWithWeak = 0;
  for (int I = 0; I != 25; ++I) {
    const Program P = generateProgram(R, 3, 5, false);
    const FuzzResult Result =
        fuzzProgram(P, titan(), 40, 3000 + I, /*Stressed=*/true);
    ProgramsWithWeak += Result.WeakOutcomes > 0;
  }
  EXPECT_GE(ProgramsWithWeak, 5u)
      << "the tuned environment must surface weak behaviour on a healthy "
         "fraction of random programs";
}

TEST(FuzzWeaknessTest, MpWeakOutcomeIsObservableUnderStress) {
  const FuzzResult Result =
      fuzzProgram(mpProgram(), titan(), 300, 555, /*Stressed=*/true);
  EXPECT_GT(Result.WeakOutcomes, 5u);
  EXPECT_GE(Result.DistinctWeak, 1u);
  EXPECT_EQ(Result.ScSetSize, 3u);
  EXPECT_EQ(Result.FirstWeak, (Outcome{1, 0, 1, 1}));
}

//===----------------------------------------------------------------------===//
// Engine identity
//===----------------------------------------------------------------------===//

TEST(FuzzBatchedTest, CompiledRunsMatchInterpreterBitForBit) {
  // fuzzBatch's classification must not depend on the engine: the
  // batched (compiled) path and the scalar coroutine interpreter produce
  // the same programs, outcomes and verdicts, native and stressed alike.
  EngineGuard Guard;
  for (const bool Stressed : {false, true}) {
    BatchConfig Cfg;
    Cfg.Programs = 24;
    Cfg.RunsPerProgram = 20;
    Cfg.WithFences = true;
    Cfg.Stressed = Stressed;
    sim::setEngineMode(sim::EngineMode::Scalar);
    const auto Scalar = fuzzBatch(titan(), Cfg, 7100);
    sim::setEngineMode(sim::EngineMode::Batched);
    const auto Batched = fuzzBatch(titan(), Cfg, 7100);
    ASSERT_EQ(Scalar.size(), Batched.size());
    for (size_t I = 0; I != Scalar.size(); ++I) {
      EXPECT_TRUE(Scalar[I].P == Batched[I].P);
      EXPECT_EQ(Scalar[I].R.WeakOutcomes, Batched[I].R.WeakOutcomes)
          << "program " << I << " (stressed=" << Stressed << ")";
      EXPECT_EQ(Scalar[I].R.DistinctWeak, Batched[I].R.DistinctWeak);
      EXPECT_EQ(Scalar[I].R.DistinctScSeen, Batched[I].R.DistinctScSeen);
      EXPECT_EQ(Scalar[I].R.FirstWeak, Batched[I].R.FirstWeak);
    }
  }
}

TEST(FuzzBatchedTest, OutcomeExportIsIdenticalOnBothCountWeakPaths) {
  // LitmusRunner::countWeak's per-run final states: the scalar runOnce
  // loop and the batched executor agree run for run, including a
  // multi-thread catalog test with a non-zero initial state.
  EngineGuard Guard;
  Rng R(8100);
  std::vector<Program> Programs = {*litmus::findCatalogProgram("ISA2")};
  Programs.back().Init = {0, 4, 9};
  for (int I = 0; I != 10; ++I)
    Programs.push_back(generateProgram(R, 3, 5, /*WithFences=*/I % 3 == 0));
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto Stress =
      litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 3 * Tuned.PatchWords);
  for (const Program &P : Programs) {
    std::vector<sim::Word> Scalar, Batched;
    sim::setEngineMode(sim::EngineMode::Scalar);
    litmus::LitmusRunner A(titan(), 42);
    const unsigned WeakA = A.countWeak(P, 64, Stress, 30, {}, &Scalar);
    sim::setEngineMode(sim::EngineMode::Batched);
    litmus::LitmusRunner B(titan(), 42);
    const unsigned WeakB = B.countWeak(P, 64, Stress, 30, {}, &Batched);
    EXPECT_EQ(WeakA, WeakB) << P.Name;
    ASSERT_EQ(Scalar.size(),
              30 * (P.Registers.size() + P.Locations.size()));
    EXPECT_EQ(Scalar, Batched) << litmus::printLitmus(P);
  }
}
