//===- tests/ModelTests.cpp - Trace seam + axiomatic oracle tests -------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Covers the event-trace instrumentation layer (sim/TraceSink.h) and the
// axiomatic consistency checker (model/ConsistencyChecker.h): tracing is
// pure observation (results and the zero-allocation steady state are
// unchanged), hand-built traces trip each axiom, and — the differential
// oracle — the checker's SC-vs-weak classification agrees with the
// operational interpreter on every catalog litmus program at pinned seeds.
//
//===----------------------------------------------------------------------===//

#include "apps/Application.h"
#include "fuzz/Shrink.h"
#include "harness/Campaign.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "sim/Device.h"
#include "sim/ThreadContext.h"
#include "stress/Environment.h"

#include <gtest/gtest.h>

using namespace gpuwmm;
using model::CheckResult;
using model::ConsistencyChecker;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;

namespace {

const sim::ChipProfile &titan() {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup("titan");
  EXPECT_NE(Chip, nullptr);
  return *Chip;
}

/// Stressed per-bank scan (as `litmus --stress`), tracing every run and
/// cross-checking the checker's verdict against the interpreter's.
struct OracleTally {
  unsigned Checked = 0;
  unsigned Weak = 0;
  unsigned Disagreements = 0;
  unsigned AxiomViolations = 0;
};

OracleTally crossCheck(const litmus::Program &P, unsigned Runs,
                       uint64_t Seed, bool Fenced = false) {
  const sim::ChipProfile &Chip = titan();
  litmus::LitmusRunner Runner(Chip, Seed);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.WithFences = Fenced;
  Opts.Trace = true;
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  OracleTally T;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    for (unsigned I = 0; I != Runs; ++I) {
      const bool Forbidden =
          Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts);
      const CheckResult R = Checker.check(Runner.trace());
      ++T.Checked;
      T.Weak += Forbidden;
      T.AxiomViolations += !R.AxiomsOk;
      if (!R.AxiomsOk || R.weak() != Forbidden)
        ++T.Disagreements;
    }
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// The trace seam
//===----------------------------------------------------------------------===//

TEST(TraceTest, OffByDefaultAndEmpty) {
  litmus::LitmusRunner Runner(titan(), 1);
  (void)Runner.runOnce(litmus::catalogProgram(litmus::LitmusKind::MP), 64,
                       litmus::LitmusRunner::MicroStress::none());
  EXPECT_TRUE(Runner.trace().empty());
}

TEST(TraceTest, RecordsLitmusEvents) {
  litmus::LitmusRunner Runner(titan(), 1);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Trace = true;
  (void)Runner.runOnce(litmus::catalogProgram(litmus::LitmusKind::MP), 64,
                       litmus::LitmusRunner::MicroStress::none(), Opts);
  const auto &Events = Runner.trace().events();
  ASSERT_FALSE(Events.empty());
  unsigned Issues = 0, Drains = 0, Binds = 0;
  for (const TraceEvent &E : Events) {
    Issues += E.Kind == TraceEventKind::StoreIssue;
    Drains += E.Kind == TraceEventKind::StoreDrain;
    Binds += E.Kind == TraceEventKind::LoadBind;
  }
  // MP: 2 communication stores + 2 register writebacks, each drained
  // exactly once by the end of the run, and 2 loads.
  EXPECT_EQ(Issues, 4u);
  EXPECT_EQ(Drains, 4u);
  EXPECT_EQ(Binds, 2u);
}

TEST(TraceTest, TracingDoesNotPerturbResults) {
  // Two runners, same seed: one traced, one not. Weak sequences must be
  // bit-identical — tracing observes, it cannot steer.
  const litmus::Program &P = litmus::catalogProgram(litmus::LitmusKind::SB);
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto S = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 0);
  litmus::LitmusRunner Plain(titan(), 42), Traced(titan(), 42);
  litmus::LitmusRunner::RunOpts TraceOpts;
  TraceOpts.Trace = true;
  for (unsigned I = 0; I != 300; ++I) {
    const bool A = Plain.runOnce(P, 128, S);
    const bool B = Traced.runOnce(P, 128, S, TraceOpts);
    ASSERT_EQ(A, B) << "run " << I;
  }
}

TEST(TraceTest, SteadyStateTraceIsAllocationFree) {
  // Identical reruns on one context: after the first traced run the
  // recorder's backing buffer is warm, so rerunning the same seed must
  // reuse it (same capacity, same storage address) while recording the
  // same events — the PR 3 reuse contract extended to the recorder.
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  const auto RunOne = [&] {
    sim::Device Dev(Ctx, titan(), /*Seed=*/77);
    const sim::Addr Buf = Dev.alloc(64);
    Dev.run({2, 32}, [&](sim::ThreadContext &TC) -> sim::Kernel {
      co_await TC.st(Buf + TC.globalId(), TC.globalId() + 1);
      (void)co_await TC.ld(Buf + TC.globalId());
    });
  };
  RunOne();
  const std::vector<TraceEvent> First = Ctx.trace().events();
  ASSERT_FALSE(First.empty());
  const size_t Cap = Ctx.trace().capacity();
  const TraceEvent *Data = First.empty() ? nullptr
                                         : Ctx.trace().events().data();
  RunOne();
  EXPECT_EQ(Ctx.trace().capacity(), Cap);
  EXPECT_EQ(Ctx.trace().events().data(), Data);
  EXPECT_EQ(Ctx.trace().size(), First.size());
}

TEST(TraceTest, LeaseDisarmsTracing) {
  // A context returned to the pool must come back with tracing off.
  sim::ExecutionContext *Raw = nullptr;
  {
    sim::ContextLease Lease;
    Raw = &Lease.get();
    Lease.get().requestTracing(true);
  }
  {
    sim::ContextLease Lease;
    if (&Lease.get() == Raw) {
      EXPECT_FALSE(Lease.get().tracingRequested());
    }
  }
}

//===----------------------------------------------------------------------===//
// Checker unit tests over hand-built traces
//===----------------------------------------------------------------------===//

namespace {

TraceEvent storeIssue(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V,
                      uint64_t Id) {
  return {TraceEventKind::StoreIssue, LoadSource::Memory, false, Tid, Tid,
          Bank, A, V, Id, 0};
}
TraceEvent storeDrain(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V,
                      uint64_t Id, bool Applied = true) {
  return {TraceEventKind::StoreDrain, LoadSource::Memory, Applied, Tid, Tid,
          Bank, A, V, Id, 0};
}
TraceEvent loadBind(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V) {
  return {TraceEventKind::LoadBind, LoadSource::Memory, false, Tid, Tid,
          Bank, A, V, 0, 0};
}

} // namespace

TEST(CheckerTest, EmptyTraceIsSc) {
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(std::vector<TraceEvent>{});
  EXPECT_TRUE(R.AxiomsOk);
  EXPECT_TRUE(R.Sc);
}

TEST(CheckerTest, ClassifiesWeakMpTrace) {
  // The canonical MP weak run: y's store drains first, the reader sees
  // y = 1 but x = 0, x drains last.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, /*Bank=*/0, /*A=*/0, 1, 1), // st x
      storeIssue(0, /*Bank=*/1, /*A=*/8, 1, 2), // st y
      storeDrain(0, 1, 8, 1, 2),                // y visible first
      loadBind(1, 1, 8, 1),                     // r0 = y = 1
      loadBind(1, 0, 0, 0),                     // r1 = x = 0
      storeDrain(0, 0, 0, 1, 1),                // x visible last
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_FALSE(R.Sc);
  EXPECT_EQ(R.Cycle.size(), 4u);
  // The decisive pair is the from-read edge: the x-read against x's store.
  EXPECT_EQ(R.ViolatingA, 4u);
  EXPECT_EQ(R.ViolatingB, 0u);
}

TEST(CheckerTest, ClassifiesScMpTrace) {
  // Same shape, but x drains before the reader looks: both loads read the
  // writer's values — a sequential interleaving explains it.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 1, 8, 1, 2),
      storeDrain(0, 0, 0, 1, 1),
      storeDrain(0, 1, 8, 1, 2),
      loadBind(1, 1, 8, 1),
      loadBind(1, 0, 0, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
  EXPECT_TRUE(R.Cycle.empty());
}

TEST(CheckerTest, FlagsFifoViolation) {
  // Two same-bank stores by one thread draining in the wrong order.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 0, 1, 2, 2),
      storeDrain(0, 0, 1, 2, 2), // Should have been id 1 first.
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("FIFO"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsFenceDrainViolation) {
  // A device fence completing while the thread still buffers a store.
  std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      {TraceEventKind::FenceDevice, LoadSource::Memory, false, 0, 0, 0, 0,
       0, 0, 0},
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("fence-drain"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsReadValueViolation) {
  // A load binding a value no write produced.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeDrain(0, 0, 0, 1, 1),
      loadBind(1, 0, 0, 7),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("read-value"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsCoherenceViolation) {
  // A stale store (id 1) applied over a newer write (id 2).
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(1, 0, 0, 2, 2),
      storeDrain(1, 0, 0, 2, 2),
      storeDrain(0, 0, 0, 1, 1, /*Applied=*/true), // Must be dropped.
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("coherence"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, AcceptsCoherenceDrop) {
  // The same trace with the stale drain correctly dropped: axioms hold,
  // and the final value is the newer write's.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(1, 0, 0, 2, 2),
      storeDrain(1, 0, 0, 2, 2),
      storeDrain(0, 0, 0, 1, 1, /*Applied=*/false),
      loadBind(0, 0, 0, 2),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
}

TEST(CheckerTest, DroppedStoreAfterAtomicsStaysBeforeItsSuperseder) {
  // A store dropped after an atomic on its address takes its coherence
  // position just before the newer plain write that superseded it, not
  // between that atomic and a later RMW reading from it (which would fake
  // a co;fr atomicity cycle). Both checkers must call the run SC.
  const auto atomic = [](sim::Word Old, sim::Word New) {
    return TraceEvent{TraceEventKind::Atomic, LoadSource::Memory, true, 0,
                      0, 0, /*A=*/2, New, Old, 0};
  };
  const std::vector<TraceEvent> Events = {
      storeIssue(1, 0, 2, 8, 2),
      storeIssue(0, 0, 2, 1, 3),
      storeDrain(0, 0, 2, 1, 3),
      atomic(1, 4),
      storeDrain(1, 0, 2, 8, 2, /*Applied=*/false),
      atomic(4, 9),
  };
  ConsistencyChecker PostHoc;
  const CheckResult R = PostHoc.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
  model::StreamingChecker Streaming;
  const model::StreamVerdict &V = Streaming.checkAll(Events);
  EXPECT_TRUE(V.AxiomsOk) << V.AxiomViolation;
  EXPECT_FALSE(V.weak());
}

TEST(CheckerTest, FlagsSelfCoherenceViolation) {
  // A load binding from memory while its own bank still buffers a store.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      loadBind(0, 0, 1, 0), // Same bank (different address): must drain.
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("self-coherence"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, ExplanationRendersCycle) {
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 1, 8, 1, 2),
      storeDrain(0, 1, 8, 1, 2),
      loadBind(1, 1, 8, 1),
      loadBind(1, 0, 0, 0),
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  ASSERT_FALSE(R.Sc);
  const model::AddrNamer Namer = [](sim::Addr A) {
    return std::string(A == 0 ? "x" : "y");
  };
  const std::string Text = model::renderExplanation(Events, R, Namer);
  EXPECT_NE(Text.find("--rf-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("--fr-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("store-issue y = 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("load-bind x = 0"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// The differential oracle (checker vs operational interpreter)
//===----------------------------------------------------------------------===//

TEST(OracleTest, AgreesWithSimulatorOnAllCatalogPrograms) {
  // The acceptance pin: on every catalog program, per-run SC-vs-weak
  // classification agrees between the axiomatic checker and the
  // operational interpreter, at pinned seeds under tuned stress. S and
  // 2+2W never exhibit their weak outcome (the documented per-location-
  // coherence strengthening, DESIGN.md Sec. 6) — the checker concurs.
  unsigned TotalWeak = 0;
  for (const litmus::Program &P : litmus::catalog()) {
    const OracleTally T = crossCheck(P, /*Runs=*/40, /*Seed=*/42);
    EXPECT_EQ(T.Disagreements, 0u) << P.Name;
    EXPECT_EQ(T.AxiomViolations, 0u) << P.Name;
    if (P.Name == "S" || P.Name == "2+2W") {
      EXPECT_EQ(T.Weak, 0u) << P.Name;
    }
    TotalWeak += T.Weak;
  }
  // The oracle must actually have judged weak runs, not only SC ones.
  EXPECT_GT(TotalWeak, 0u);
}

TEST(OracleTest, FencedRunsStaySc) {
  for (litmus::LitmusKind K : litmus::AllLitmusKinds) {
    const OracleTally T = crossCheck(litmus::catalogProgram(K),
                                     /*Runs=*/25, /*Seed=*/7,
                                     /*Fenced=*/true);
    EXPECT_EQ(T.Disagreements, 0u) << litmus::litmusName(K);
    EXPECT_EQ(T.Weak, 0u) << litmus::litmusName(K);
  }
}

TEST(OracleTest, AppTracesSatisfyAxioms) {
  // Application runs exercise what litmus runs cannot: barriers, block
  // fences, overlay reads, spinlocks (failed CAS), multi-kernel launches.
  // The replay axioms must hold on every recorded run; SC classification
  // is deliberately not asserted (weak behaviour is the expected finding).
  const sim::ChipProfile &Chip = titan();
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  for (apps::AppKind App : {apps::AppKind::CbeDot, apps::AppKind::SdkRed,
                            apps::AppKind::CbeHt, apps::AppKind::CubScan}) {
    for (unsigned Run = 0; Run != 8; ++Run) {
      (void)apps::runApplicationOnce(Ctx, App, Chip, Env, Tuned,
                                     /*Policy=*/nullptr,
                                     Rng::deriveStream(11, Run));
      ASSERT_FALSE(Ctx.trace().empty());
      const CheckResult R = Checker.check(Ctx.trace());
      EXPECT_TRUE(R.AxiomsOk)
          << apps::appName(App) << " run " << Run << ": "
          << R.AxiomViolation << "\n"
          << model::renderExplanation(Ctx.trace().events(), R);
    }
  }
}

TEST(OracleTest, CampaignOracleSamplesAndStaysClean) {
  harness::CampaignConfig Config;
  Config.Chips = {&titan()};
  Config.Envs = {{stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot};
  Config.LitmusTests = {litmus::findCatalogProgram("MP")};
  Config.Runs = 12;
  Config.Seed = 3;
  Config.OracleEvery = 4;
  const harness::CampaignReport Report = harness::runCampaign(Config);
  ASSERT_EQ(Report.Cells.size(), 1u);
  EXPECT_EQ(Report.Cells[0].OracleChecked, 3u); // Runs 0, 4, 8.
  EXPECT_EQ(Report.Cells[0].OracleViolations, 0u);
  ASSERT_EQ(Report.LitmusCells.size(), 1u);
  EXPECT_GT(Report.LitmusCells[0].OracleChecked, 0u);
  EXPECT_EQ(Report.LitmusCells[0].OracleViolations, 0u);

  // Counts must be identical with the oracle off (tracing observes only).
  harness::CampaignConfig Off = Config;
  Off.OracleEvery = 0;
  const harness::CampaignReport Plain = harness::runCampaign(Off);
  EXPECT_EQ(Plain.Cells[0].Result.Errors,
            Report.Cells[0].Result.Errors);
  EXPECT_EQ(Plain.LitmusCells[0].Weak, Report.LitmusCells[0].Weak);
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

const char *ReplayDemoText = R"(
litmus "replay demo"
locations data flag aux
init { flag = 9 }
jitter 8
thread 0 @ block 1 {
  add aux 3
  st data 5
  st flag 1
}
thread 1 @ block 0 {
  ld r0 flag
  ld r1 data
  fence
}
forbidden r0 != 9 /\ r0 != 0 /\ r1 = 0
)";

} // namespace

TEST(ShrinkTest, ReducesReplayDemoToTheWeakCore) {
  litmus::ParseError Err;
  std::optional<litmus::Program> P =
      litmus::parseLitmus(ReplayDemoText, Err);
  ASSERT_TRUE(P.has_value()) << Err.render("replay-demo");

  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 150;
  Opts.Seed = 1;
  const fuzz::ShrinkResult R = fuzz::shrinkWeakProgram(*P, titan(), Opts);
  ASSERT_TRUE(R.Reproduced);
  EXPECT_EQ(R.OriginalOps, 6u);
  // The atomic bump of `aux` and the reader's too-late fence go; the two
  // communication stores and the two pinned loads must survive.
  EXPECT_EQ(R.ReducedOps, 4u);
  EXPECT_LT(R.ReducedOps, R.OriginalOps);
  EXPECT_TRUE(R.Reduced.validate().empty()) << R.Reduced.validate();
  ASSERT_EQ(R.Reduced.Threads.size(), 2u);
  EXPECT_EQ(R.Reduced.Threads[0].Ops.size(), 2u);
  EXPECT_EQ(R.Reduced.Threads[1].Ops.size(), 2u);
  for (const litmus::ProgOp &O : R.Reduced.Threads[0].Ops)
    EXPECT_EQ(O.K, litmus::ProgOp::Kind::Store);
  for (const litmus::ProgOp &O : R.Reduced.Threads[1].Ops)
    EXPECT_EQ(O.K, litmus::ProgOp::Kind::Load);
  // The forbidden clause is untouched: same outcome, smaller program.
  EXPECT_EQ(R.Reduced.Forbidden.size(), P->Forbidden.size());
}

TEST(ShrinkTest, UnprovokableCaseIsLeftAlone) {
  // MP with a real fence between each thread's accesses: the forbidden
  // outcome is never provoked weakly, so nothing may be shrunk.
  litmus::ParseError Err;
  std::optional<litmus::Program> P = litmus::parseLitmus(R"(
litmus fenced-mp
locations x y
thread 0 { st x 1
  fence
  st y 1 }
thread 1 { ld r0 y
  fence
  ld r1 x }
forbidden r0 = 1 /\ r1 = 0
)",
                                                        Err);
  ASSERT_TRUE(P.has_value()) << Err.render("fenced-mp");
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 60;
  Opts.Seed = 5;
  const fuzz::ShrinkResult R = fuzz::shrinkWeakProgram(*P, titan(), Opts);
  EXPECT_FALSE(R.Reproduced);
  EXPECT_EQ(R.ReducedOps, R.OriginalOps);
}

//===----------------------------------------------------------------------===//
// Explain plumbing (runner-provided address names)
//===----------------------------------------------------------------------===//

TEST(ExplainTest, RunnerNamesAddressesInExplanations) {
  const litmus::Program &P = litmus::catalogProgram(litmus::LitmusKind::MP);
  const sim::ChipProfile &Chip = titan();
  litmus::LitmusRunner Runner(Chip, 42);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Trace = true;
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    for (unsigned I = 0; I != 60; ++I) {
      if (!Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts))
        continue;
      const CheckResult R = Checker.check(Runner.trace());
      ASSERT_TRUE(R.weak());
      const std::string Text = model::renderExplanation(
          Runner.trace().events(), R,
          [&Runner](sim::Addr A) { return Runner.addrName(A); });
      EXPECT_NE(Text.find("load-bind y = 1"), std::string::npos) << Text;
      EXPECT_NE(Text.find("load-bind x = 0"), std::string::npos) << Text;
      return; // One explained weak run is what this test needs.
    }
  }
  FAIL() << "no weak MP outcome found to explain";
}
