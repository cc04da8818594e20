//===- tests/BatchedExecutionTests.cpp - batched-vs-scalar identity ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The batched litmus engine's determinism contract (DESIGN.md Sec. 17):
// LitmusRunner::countWeakBatch must be bit-identical, run for run, to a
// scalar runOnce loop at the same derived seed streams — for every batch
// width K, every option combination, fresh and reused contexts, and under
// host-level parallelism. These property tests pin that contract over the
// full built-in catalog and a population of random fuzz programs.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramFuzzer.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::litmus;

namespace {

const sim::ChipProfile &titan() { return *sim::ChipProfile::lookup("titan"); }

stress::AccessSequence tunedSeq() {
  return stress::AccessSequence::parse("ld st2 ld");
}

LitmusRunner::MicroStress tunedStress() {
  return LitmusRunner::MicroStress::at(tunedSeq(),
                                       2 * titan().PatchSizeWords);
}

/// One named option combination for the identity sweep.
struct OptCase {
  const char *Name;
  LitmusRunner::RunOpts Opts;
  bool Stressed;
};

std::vector<OptCase> optCases() {
  std::vector<OptCase> Cases;
  LitmusRunner::RunOpts O;
  Cases.push_back({"plain", O, false});
  O = {};
  O.WithFences = true;
  Cases.push_back({"fenced", O, false});
  O = {};
  O.Sequential = true;
  Cases.push_back({"sc", O, false});
  O = {};
  O.Randomise = true;
  Cases.push_back({"randomise", O, false});
  O = {};
  Cases.push_back({"stressed", O, true});
  O = {};
  O.Randomise = true;
  Cases.push_back({"stressed-randomise", O, true});
  return Cases;
}

/// The scalar reference: a runOnce loop on a fresh runner, collecting the
/// per-run weak verdicts.
std::vector<uint8_t> scalarVerdicts(const Program &P, unsigned Distance,
                                    const LitmusRunner::MicroStress &S,
                                    unsigned Runs,
                                    const LitmusRunner::RunOpts &Opts,
                                    uint64_t Seed) {
  LitmusRunner Runner(titan(), Seed);
  std::vector<uint8_t> V;
  V.reserve(Runs);
  for (unsigned I = 0; I != Runs; ++I)
    V.push_back(Runner.runOnce(P, Distance, S, Opts));
  return V;
}

/// The batched run at width K on a fresh runner.
std::vector<uint8_t> batchedVerdicts(const Program &P, unsigned Distance,
                                     const LitmusRunner::MicroStress &S,
                                     unsigned Runs,
                                     const LitmusRunner::RunOpts &Opts,
                                     uint64_t Seed, unsigned K) {
  LitmusRunner Runner(titan(), Seed);
  Runner.setBatchWidth(K);
  std::vector<uint8_t> V;
  const unsigned Weak = Runner.countWeakBatch(P, Distance, S, Runs, Opts, &V);
  EXPECT_EQ(Weak, static_cast<unsigned>(
                      std::count(V.begin(), V.end(), uint8_t(1))));
  EXPECT_EQ(Runner.executions(), Runs);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Full-catalog identity, all option combinations
//===----------------------------------------------------------------------===//

class CatalogIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(CatalogIdentity, BatchedMatchesScalarBitForBit) {
  const Program &P = catalog()[GetParam()];
  const unsigned Distance = 128;
  const unsigned Runs = 120;
  for (const OptCase &C : optCases()) {
    const auto S = C.Stressed ? tunedStress() : LitmusRunner::MicroStress::none();
    const uint64_t Seed = 9000 + GetParam();
    const auto Scalar = scalarVerdicts(P, Distance, S, Runs, C.Opts, Seed);
    const auto Batched =
        batchedVerdicts(P, Distance, S, Runs, C.Opts, Seed, 7);
    EXPECT_EQ(Scalar, Batched) << P.Name << " under " << C.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullCatalog, CatalogIdentity,
    ::testing::Range(0u, static_cast<unsigned>(catalog().size())),
    [](const ::testing::TestParamInfo<unsigned> &Info) {
      std::string N = catalog()[Info.param].Name;
      for (char &C : N)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return N;
    });

//===----------------------------------------------------------------------===//
// Batch width is purely an amortisation window
//===----------------------------------------------------------------------===//

TEST(BatchWidth, ResultsIdenticalForEveryK) {
  LitmusRunner::RunOpts Opts;
  Opts.Randomise = true;
  const auto S = tunedStress();
  for (LitmusKind Kind : AllLitmusKinds) {
    const Program &P = catalogProgram(Kind);
    const auto Ref = scalarVerdicts(P, 128, S, 150, Opts, 42);
    for (unsigned K : {1u, 2u, 7u, 64u})
      EXPECT_EQ(Ref, batchedVerdicts(P, 128, S, 150, Opts, 42, K))
          << litmusName(Kind) << " at K=" << K;
  }
}

TEST(BatchWidth, ZeroResolvesToProcessDefault) {
  LitmusRunner Runner(titan(), 1);
  EXPECT_EQ(Runner.batchWidth(), sim::defaultBatchWidth());
  Runner.setBatchWidth(5);
  EXPECT_EQ(Runner.batchWidth(), 5u);
  Runner.setBatchWidth(0);
  EXPECT_EQ(Runner.batchWidth(), sim::defaultBatchWidth());
}

//===----------------------------------------------------------------------===//
// Context reuse: plan switches and mixed scalar/batched streams
//===----------------------------------------------------------------------===//

TEST(ContextReuse, AlternatingInstancesMatchScalarSequence) {
  // One runner alternating programs/distances batched must replay the
  // exact verdict sequence of one scalar runner doing the same sequence:
  // plan rebuilds and slab reuse never leak state between instances.
  const Program &A = catalogProgram(LitmusKind::MP);
  const Program &B = catalogProgram(LitmusKind::SB);
  const auto S = tunedStress();
  const LitmusRunner::RunOpts Opts;

  LitmusRunner Scalar(titan(), 77);
  std::vector<uint8_t> Ref;
  for (unsigned Leg = 0; Leg != 4; ++Leg) {
    const Program &P = Leg % 2 ? B : A;
    const unsigned D = Leg % 2 ? 64 : 128;
    for (unsigned I = 0; I != 40; ++I)
      Ref.push_back(Scalar.runOnce(P, D, S, Opts));
  }

  LitmusRunner Batched(titan(), 77);
  Batched.setBatchWidth(16);
  std::vector<uint8_t> Got, Leg;
  for (unsigned L = 0; L != 4; ++L) {
    Batched.countWeakBatch(L % 2 ? B : A, L % 2 ? 64 : 128, S, 40, Opts,
                           &Leg);
    Got.insert(Got.end(), Leg.begin(), Leg.end());
  }
  EXPECT_EQ(Ref, Got);
  EXPECT_EQ(Scalar.executions(), Batched.executions());
}

TEST(ContextReuse, TracedRunsInterleaveWithBatchedRuns) {
  // Traced runs take the scalar path inside countWeak; the seed stream
  // must stay continuous across the seam so `litmus --explain` replays
  // are unaffected by batching around them.
  const Program &P = catalogProgram(LitmusKind::MP);
  const auto S = tunedStress();
  LitmusRunner::RunOpts Plain, Traced;
  Traced.Trace = true;

  LitmusRunner Ref(titan(), 5);
  std::vector<uint8_t> Want;
  for (unsigned I = 0; I != 100; ++I)
    Want.push_back(Ref.runOnce(P, 128, S, Plain));

  LitmusRunner Mixed(titan(), 5);
  std::vector<uint8_t> Got;
  for (unsigned I = 0; I != 3; ++I)
    Got.push_back(Mixed.countWeak(P, 128, S, 1, Traced) != 0);
  std::vector<uint8_t> Tail;
  Mixed.countWeakBatch(P, 128, S, 97, Plain, &Tail);
  Got.insert(Got.end(), Tail.begin(), Tail.end());
  EXPECT_EQ(Want, Got);
  EXPECT_EQ(Mixed.executions(), 100u);
}

TEST(ContextReuse, CountWeakDelegatesToBatchedPath) {
  // The public countWeak and the explicit batched call agree (they share
  // one code path when no trace/sink is requested).
  const Program &P = catalogProgram(LitmusKind::LB);
  const auto S = tunedStress();
  LitmusRunner A(titan(), 11), B(titan(), 11);
  std::vector<uint8_t> PerRun;
  EXPECT_EQ(A.countWeak(P, 128, S, 200),
            B.countWeakBatch(P, 128, S, 200, {}, &PerRun));
  EXPECT_EQ(PerRun.size(), 200u);
}

//===----------------------------------------------------------------------===//
// Host-level parallelism: pool vs serial
//===----------------------------------------------------------------------===//

TEST(PoolDeterminism, BatchedRunnersAreBitIdenticalUnderThreadPool) {
  // Each index runs a batched sweep on its own runner with a derived
  // seed; a 4-job pool must reproduce the serial results exactly (the
  // batched engine keeps all state in the per-thread leased context).
  const auto S = tunedStress();
  const auto RunIndex = [&](size_t I) {
    const Program &P = catalog()[I % catalog().size()];
    LitmusRunner Runner(titan(), 1234 + I);
    Runner.setBatchWidth(I % 2 ? 3 : 64);
    std::vector<uint8_t> V;
    Runner.countWeakBatch(P, 96, S, 80, {}, &V);
    return V;
  };

  constexpr size_t N = 12;
  std::vector<std::vector<uint8_t>> Serial(N), Pooled(N);
  for (size_t I = 0; I != N; ++I)
    Serial[I] = RunIndex(I);
  ThreadPool Pool(4);
  Pool.parallelFor(N, [&](size_t I) { Pooled[I] = RunIndex(I); });
  EXPECT_EQ(Serial, Pooled);
}

//===----------------------------------------------------------------------===//
// Random-program population: fuzz cases through the batched litmus path
//===----------------------------------------------------------------------===//

TEST(FuzzPrograms, FiftyRandomProgramsMatchScalarBitForBit) {
  // Fuzz-generated programs exercise op mixes (atomics, fences, repeated
  // loads of one variable) the hand-written catalog does not.
  Rng Gen(0xfeedu);
  unsigned Checked = 0;
  for (unsigned I = 0; I != 50; ++I) {
    Rng R = Gen.fork(I);
    const Program P = fuzz::generateProgram(R, 3, 5, I % 4 == 0);
    ASSERT_TRUE(P.validate().empty()) << P.validate();
    LitmusRunner::RunOpts Opts;
    Opts.Randomise = I % 2 == 0;
    const auto S = I % 3 == 0 ? LitmusRunner::MicroStress::none()
                              : tunedStress();
    const auto Scalar = scalarVerdicts(P, 32, S, 30, Opts, 5000 + I);
    const auto Batched =
        batchedVerdicts(P, 32, S, 30, Opts, 5000 + I, 1 + I % 9);
    ASSERT_EQ(Scalar, Batched) << printLitmus(P);
    ++Checked;
  }
  EXPECT_EQ(Checked, 50u);
}

//===----------------------------------------------------------------------===//
// Control-flow op semantics: the app-lowering ISA extensions (DESIGN.md
// Sec. 19) exercised directly through runBatchProgram, independent of any
// application emitter.
//===----------------------------------------------------------------------===//

namespace {

/// Runs a hand-assembled program once on a fresh context and returns the
/// RunResult; \p Regs receives the run's final register stripe.
sim::RunResult runRaw(const sim::BatchProgram &BP, sim::ExecutionContext &Ctx,
                      std::vector<sim::Word> &Regs) {
  sim::BatchRunConfig Cfg;
  Cfg.MaxTicks = 100000;
  Regs.assign(std::max(1u, BP.NumSlots), 0);
  return sim::runBatchProgram(BP, titan(), Ctx.memory(), Ctx.rng(),
                              Ctx.batchScratch(), Regs.data(), Cfg);
}

} // namespace

TEST(BatchOpSemantics, FreeOpLoopWithBackwardBranch) {
  // r0 = sum(0..4) computed entirely in free ops (MovImm/AddRR/AddImm/BrLt
  // form a register loop), then written back. The whole loop must execute
  // in the prefix of the single WbStore resume: exactly one suspending op
  // means the run completes in a handful of ticks, never a timeout.
  using sim::BatchOp;
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 7);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 2;
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 0}); // r0 = 0
  BP.Ops.push_back({Code::MovImm, 1, 0, 0, 0}); // r1 = 0
  BP.Ops.push_back({Code::AddRR, 0, 0, 1, 0});  // loop: r0 = r0 + r1
  BP.Ops.push_back({Code::AddImm, 1, 1, 0, 1}); // r1 += 1
  BP.Ops.push_back({Code::BrLt, 1, 0, 2, 5});   // if (r1 < 5) goto loop
  BP.Ops.push_back({Code::WbStore, 0, 0, Out, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  std::vector<sim::Word> Regs;
  const sim::RunResult R = runRaw(BP, Ctx, Regs);
  EXPECT_EQ(R.Status, sim::RunStatus::Completed);
  EXPECT_EQ(Ctx.memory().hostRead(Out), 10u);
  EXPECT_EQ(Regs[0], 10u);
  EXPECT_EQ(Regs[1], 5u);
}

TEST(BatchOpSemantics, IndexedAddressingRoundTrip) {
  // MulImm/ModImm compute a bucket index; StoreIdx writes through it and
  // LoadIdx reads it back — the cbe-ht addressing shape in isolation.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 11);
  const sim::Addr Table = Ctx.memory().alloc(8);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 3;
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 7});       // r0 = 7
  BP.Ops.push_back({Code::MulImm, 1, 0, 0, 3});       // r1 = 21
  BP.Ops.push_back({Code::ModImm, 1, 1, 0, 8});       // r1 = 5
  BP.Ops.push_back({Code::StoreIdx, 0, 1, Table, 9}); // Table[5] = 9
  BP.Ops.push_back({Code::LoadIdx, 2, 1, Table, 0});  // r2 = Table[5]
  BP.Ops.push_back({Code::WbStore, 2, 0, Out, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  std::vector<sim::Word> Regs;
  const sim::RunResult R = runRaw(BP, Ctx, Regs);
  EXPECT_EQ(R.Status, sim::RunStatus::Completed);
  EXPECT_EQ(Ctx.memory().hostRead(Table + 5), 9u);
  EXPECT_EQ(Ctx.memory().hostRead(Out), 9u);
}

TEST(BatchOpSemantics, AtomicReturnValueOps) {
  // AtomicCas packs (compare, value) into Imm's (low, high) halves and
  // returns the old word; AtomicAddReg returns the pre-add value (a ticket
  // draw); AtomicExch is fire-and-forget. Single lane, so the sequence is
  // fully determined.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 13);
  const sim::Addr M = Ctx.memory().alloc(1);
  const sim::Addr Out = Ctx.memory().alloc(3);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 3;
  // CAS(M, compare 0, value 1): succeeds, old value 0.
  BP.Ops.push_back({Code::AtomicCas, 0, 0, M, 1u << 16});
  // CAS(M, compare 0, value 7): fails (M == 1), old value 1.
  BP.Ops.push_back({Code::AtomicCas, 1, 0, M, 7u << 16});
  // Exch(M, 5), then AtomicAddReg returns the pre-add 5 and leaves 11.
  BP.Ops.push_back({Code::AtomicExch, 0, 0, M, 5});
  BP.Ops.push_back({Code::AtomicAddReg, 2, 0, M, 6});
  BP.Ops.push_back({Code::WbStore, 0, 0, Out + 0, 0});
  BP.Ops.push_back({Code::WbStore, 1, 0, Out + 1, 0});
  BP.Ops.push_back({Code::WbStore, 2, 0, Out + 2, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  std::vector<sim::Word> Regs;
  const sim::RunResult R = runRaw(BP, Ctx, Regs);
  EXPECT_EQ(R.Status, sim::RunStatus::Completed);
  EXPECT_EQ(Ctx.memory().hostRead(Out + 0), 0u);
  EXPECT_EQ(Ctx.memory().hostRead(Out + 1), 1u);
  EXPECT_EQ(Ctx.memory().hostRead(Out + 2), 5u);
  EXPECT_EQ(Ctx.memory().hostRead(M), 11u);
}

TEST(BatchOpSemantics, BarrierSynchronisesBlockStores) {
  // Producer stores then barriers; consumer barriers then loads. The
  // release fences every parked lane's store buffer (block scope), so the
  // consumer must observe the store — the sdk-red partial-sum handoff in
  // miniature.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 17);
  const sim::Addr A = Ctx.memory().alloc(1);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 2;
  BP.NumSlots = 1;
  const uint32_t P0 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Store, 0, 0, A, 1});
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  const uint32_t P1 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  BP.Ops.push_back({Code::Load, 0, 0, A, 0});
  BP.Ops.push_back({Code::WbStore, 0, 0, Out, 0});
  const uint32_t End = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({P0, P1});
  BP.Lanes.push_back({P1, End});

  std::vector<sim::Word> Regs;
  const sim::RunResult R = runRaw(BP, Ctx, Regs);
  EXPECT_EQ(R.Status, sim::RunStatus::Completed);
  EXPECT_EQ(Ctx.memory().hostRead(Out), 1u);
}

TEST(BatchOpSemantics, BarrierDivergenceIsDetected) {
  // One lane parks at a barrier its sibling never reaches (the sibling
  // sleeps and completes). CUDA calls this UB; the engine classifies it
  // as BarrierDivergence exactly as the coroutine scheduler does.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 19);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 2;
  BP.NumSlots = 1;
  const uint32_t P0 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  const uint32_t P1 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Sleep, 0, 0, 0, 5});
  const uint32_t End = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({P0, P1});
  BP.Lanes.push_back({P1, End});

  std::vector<sim::Word> Regs;
  const sim::RunResult R = runRaw(BP, Ctx, Regs);
  EXPECT_EQ(R.Status, sim::RunStatus::BarrierDivergence);
}
