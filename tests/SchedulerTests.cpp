//===- tests/SchedulerTests.cpp - scheduler and kernel execution tests --------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests kernel execution end to end through the Device facade: thread
// identifiers, barriers (including divergence detection), timeouts,
// faults, delayed policy fences, determinism and thread randomisation,
// and the hang watchdog's proofs over idle() spins (DESIGN.md Sec. 20).
//
//===----------------------------------------------------------------------===//

#include "model/StreamingChecker.h"
#include "sim/Device.h"
#include "sim/ThreadContext.h"

#include "gtest/gtest.h"

#include <set>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::sim;

namespace {

const ChipProfile &titan() { return *ChipProfile::lookup("titan"); }

Kernel writeIdsKernel(ThreadContext &Ctx, Addr Base) {
  co_await Ctx.st(Base + Ctx.globalId(),
                  (Ctx.blockIdx() << 16) | (Ctx.warpIdx() << 8) |
                      Ctx.threadIdx());
}

Kernel barrierSumKernel(ThreadContext &Ctx, Addr Cells, Addr Out) {
  co_await Ctx.st(Cells + Ctx.blockIdx() * Ctx.blockDim() + Ctx.threadIdx(),
                  Ctx.threadIdx() + 1);
  co_await Ctx.syncthreads();
  if (Ctx.threadIdx() != 0)
    co_return;
  Word Sum = 0;
  for (unsigned I = 0; I != Ctx.blockDim(); ++I)
    Sum += co_await Ctx.ld(Cells + Ctx.blockIdx() * Ctx.blockDim() + I);
  co_await Ctx.st(Out + Ctx.blockIdx(), Sum);
}

Kernel divergentBarrierKernel(ThreadContext &Ctx) {
  // Half the block skips the barrier: undefined behaviour in CUDA,
  // detected by the simulator.
  if (Ctx.threadIdx() % 2 == 0)
    co_await Ctx.syncthreads();
  co_await Ctx.yield(1);
}

Kernel spinForeverKernel(ThreadContext &Ctx, Addr Flag) {
  // Awaits must not appear in condition expressions (GCC 12 coroutine
  // bug: the frame is miscompiled and the kernel silently wedges); see
  // the regression test AwaitInConditionConventionHolds below.
  for (;;) {
    const Word V = co_await Ctx.ld(Flag);
    if (V != 0)
      co_return;
    co_await Ctx.yield(1);
  }
}

Kernel faultingKernel(ThreadContext &Ctx) {
  co_await Ctx.yield(1);
  if (Ctx.globalId() == 3) {
    Ctx.fault();
    co_return;
  }
  co_await Ctx.yield(5);
}

} // namespace

TEST(SchedulerTest, RunsAllThreadsToCompletion) {
  Device Dev(titan(), 1);
  const Addr Base = Dev.alloc(64);
  const RunResult R = Dev.run({2, 32}, [=](ThreadContext &Ctx) -> Kernel {
    return writeIdsKernel(Ctx, Base);
  });
  EXPECT_TRUE(R.completed());
  EXPECT_EQ(R.Mem.Stores, 64u);
  for (unsigned B = 0; B != 2; ++B)
    for (unsigned L = 0; L != 32; ++L)
      EXPECT_EQ(Dev.read(Base + B * 32 + L), (B << 16) | L);
}

TEST(SchedulerTest, MultiWarpBlocksKeepWarpIndexing) {
  Device Dev(titan(), 1);
  const Addr Base = Dev.alloc(64);
  const RunResult R = Dev.run({1, 64}, [=](ThreadContext &Ctx) -> Kernel {
    return writeIdsKernel(Ctx, Base);
  });
  EXPECT_TRUE(R.completed());
  EXPECT_EQ(Dev.read(Base + 40) >> 8 & 0xff, 1u) << "lane 40 is in warp 1";
}

TEST(SchedulerTest, BarrierMakesBlockStoresVisible) {
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    Device Dev(titan(), Seed);
    const Addr Cells = Dev.alloc(64);
    const Addr Out = Dev.alloc(2);
    const RunResult R = Dev.run({2, 32}, [=](ThreadContext &Ctx) -> Kernel {
      return barrierSumKernel(Ctx, Cells, Out);
    });
    ASSERT_TRUE(R.completed());
    // Sum 1..32 = 528, regardless of drain timing: the barrier guarantees
    // block-level consistency.
    EXPECT_EQ(Dev.read(Out), 528u);
    EXPECT_EQ(Dev.read(Out + 1), 528u);
  }
}

TEST(SchedulerTest, BarrierDivergenceIsDetected) {
  Device Dev(titan(), 1);
  const RunResult R = Dev.run({1, 32}, [](ThreadContext &Ctx) -> Kernel {
    return divergentBarrierKernel(Ctx);
  });
  EXPECT_EQ(R.Status, RunStatus::BarrierDivergence);
}

TEST(SchedulerTest, TimeoutIsDetected) {
  Device Dev(titan(), 1);
  Dev.setMaxTicks(500);
  const Addr Flag = Dev.alloc(1); // Never set.
  const RunResult R = Dev.run({1, 1}, [=](ThreadContext &Ctx) -> Kernel {
    return spinForeverKernel(Ctx, Flag);
  });
  EXPECT_EQ(R.Status, RunStatus::Timeout);
  EXPECT_EQ(Dev.lastResult().Status, RunStatus::Timeout);
}

TEST(SchedulerTest, KernelFaultIsReported) {
  Device Dev(titan(), 1);
  const RunResult R = Dev.run({1, 32}, [](ThreadContext &Ctx) -> Kernel {
    return faultingKernel(Ctx);
  });
  EXPECT_EQ(R.Status, RunStatus::KernelFault);
}

TEST(SchedulerTest, DeterministicForSeed) {
  auto Fingerprint = [](uint64_t Seed, bool Randomise) {
    Device Dev(titan(), Seed);
    Dev.setRandomiseThreads(Randomise);
    const Addr Counter = Dev.alloc(1);
    const Addr Order = Dev.alloc(64);
    Dev.run({2, 32}, [=](ThreadContext &Ctx) -> Kernel {
      return [](ThreadContext &C, Addr Cnt, Addr Ord) -> Kernel {
        co_await C.yield(1 + static_cast<unsigned>(C.rand(4)));
        const Word Slot = co_await C.atomicAdd(Cnt, 1);
        co_await C.st(Ord + Slot, C.globalId());
      }(Ctx, Counter, Order);
    });
    uint64_t H = 1469598103934665603ull;
    for (unsigned I = 0; I != 64; ++I)
      H = (H ^ Dev.read(Order + I)) * 1099511628211ull;
    return H;
  };
  EXPECT_EQ(Fingerprint(7, false), Fingerprint(7, false));
  EXPECT_EQ(Fingerprint(7, true), Fingerprint(7, true));
  EXPECT_NE(Fingerprint(7, false), Fingerprint(8, false));
}

TEST(SchedulerTest, RandomisationChangesInterleavings) {
  // With randomisation, different seeds produce different thread arrival
  // orders (block placement + priority jitter).
  auto ArrivalOrder = [](uint64_t Seed) {
    Device Dev(titan(), Seed);
    Dev.setRandomiseThreads(true);
    const Addr Counter = Dev.alloc(1);
    const Addr First = Dev.alloc(1);
    Dev.run({4, 32}, [=](ThreadContext &Ctx) -> Kernel {
      return [](ThreadContext &C, Addr Cnt, Addr Fst) -> Kernel {
        const Word Slot = co_await C.atomicAdd(Cnt, 1);
        if (Slot == 0)
          co_await C.st(Fst, C.globalId() + 1);
      }(Ctx, Counter, First);
    });
    return Dev.read(First);
  };
  std::set<Word> FirstArrivals;
  for (uint64_t Seed = 0; Seed != 16; ++Seed)
    FirstArrivals.insert(ArrivalOrder(Seed));
  EXPECT_GT(FirstArrivals.size(), 1u);
}

TEST(SchedulerTest, YieldConsumesTicks) {
  Device Fast(titan(), 1);
  const RunResult RFast =
      Fast.run({1, 1}, [](ThreadContext &Ctx) -> Kernel {
        return [](ThreadContext &C) -> Kernel { co_await C.yield(1); }(Ctx);
      });
  Device Slow(titan(), 1);
  const RunResult RSlow =
      Slow.run({1, 1}, [](ThreadContext &Ctx) -> Kernel {
        return
            [](ThreadContext &C) -> Kernel { co_await C.yield(500); }(Ctx);
      });
  EXPECT_GT(RSlow.Ticks, RFast.Ticks + 400);
}

TEST(SchedulerTest, MultipleLaunchesShareMemory) {
  Device Dev(titan(), 1);
  const Addr A = Dev.alloc(1);
  Dev.run({1, 1}, [=](ThreadContext &Ctx) -> Kernel {
    return [](ThreadContext &C, Addr X) -> Kernel {
      co_await C.st(X, 41);
    }(Ctx, A);
  });
  // Kernel boundary synchronises; the second launch reads the first's
  // result.
  Dev.run({1, 1}, [=](ThreadContext &Ctx) -> Kernel {
    return [](ThreadContext &C, Addr X) -> Kernel {
      const Word V = co_await C.ld(X);
      co_await C.st(X, V + 1);
    }(Ctx, A);
  });
  EXPECT_EQ(Dev.read(A), 42u);
  EXPECT_GT(Dev.totalTicks(), 0u);
}

TEST(SchedulerTest, PolicyFenceClosesStoreWindow) {
  // With a fence policy on the data-store site, a reader polling the flag
  // must never see stale data (MP with writer-side inserted fence).
  FencePolicy Policy = FencePolicy::ofSites(2, {0});
  unsigned Weak = 0;
  for (uint64_t Seed = 0; Seed != 200; ++Seed) {
    Device Dev(titan(), Seed);
    Dev.setFencePolicy(&Policy);
    const Addr Data = Dev.alloc(1);
    const Addr Flag = Dev.alloc(1);
    const Addr Result = Dev.alloc(1);
    Dev.run({2, 1}, [=](ThreadContext &Ctx) -> Kernel {
      if (Ctx.blockIdx() == 0)
        return [](ThreadContext &C, Addr D, Addr F) -> Kernel {
          co_await C.st(D, 1, /*Site=*/0); // Fenced by policy.
          co_await C.st(F, 1, /*Site=*/1);
        }(Ctx, Data, Flag);
      return [](ThreadContext &C, Addr D, Addr F, Addr R) -> Kernel {
        for (;;) {
          const Word V = co_await C.ld(F);
          if (V != 0)
            break;
          co_await C.yield(1);
        }
        co_await C.st(R, co_await C.ld(D));
      }(Ctx, Data, Flag, Result);
    });
    Weak += Dev.read(Result) == 0;
  }
  EXPECT_EQ(Weak, 0u);
}

TEST(SchedulerTest, PolicyFenceIsDelayedNotAtomicWithOp) {
  // The inserted fence is a separate instruction: there must exist a
  // window (>= 1 tick) between the access and the fence's drain. We
  // detect it by fencing the FLAG store: the data store (earlier, other
  // bank) is drained by the same fence, so weak outcomes become rare but
  // the flag itself stays buffered only until its own drain — meaning the
  // run still completes. Mostly this documents that fencing is modelled
  // as code, not as a side effect folded into the access.
  FencePolicy Policy = FencePolicy::ofSites(2, {1});
  Device Dev(titan(), 5);
  Dev.setFencePolicy(&Policy);
  const Addr Data = Dev.alloc(1);
  const RunResult R = Dev.run({1, 1}, [=](ThreadContext &Ctx) -> Kernel {
    return [](ThreadContext &C, Addr D) -> Kernel {
      co_await C.st(D, 1, /*Site=*/1);
      co_await C.yield(1);
    }(Ctx, Data);
  });
  ASSERT_TRUE(R.completed());
  // The fence executed: exactly one device fence in the stats.
  EXPECT_EQ(R.Mem.DeviceFences, 1u);
  EXPECT_EQ(Dev.read(Data), 1u);
}

TEST(SchedulerTest, RuntimeAndEnergyModelRespondToFences) {
  auto Measure = [](bool Fenced) {
    FencePolicy All = FencePolicy::all(1);
    Device Dev(titan(), 3);
    if (Fenced)
      Dev.setFencePolicy(&All);
    const Addr Base = Dev.alloc(64);
    Dev.run({2, 32}, [=](ThreadContext &Ctx) -> Kernel {
      return [](ThreadContext &C, Addr B) -> Kernel {
        for (unsigned I = 0; I != 8; ++I)
          co_await C.st(B + C.globalId(), I, /*Site=*/0);
      }(Ctx, Base);
    });
    return std::make_pair(Dev.runtimeMs(), Dev.energy().Joules);
  };
  const auto [PlainMs, PlainJ] = Measure(false);
  const auto [FencedMs, FencedJ] = Measure(true);
  EXPECT_GT(FencedMs, PlainMs * 1.5);
  EXPECT_GT(FencedJ, PlainJ * 1.2);
}

TEST(SchedulerTest, EnergyValidityTracksPowerInstrumentation) {
  size_t Count = 0;
  const ChipProfile *Chips = ChipProfile::all(Count);
  for (size_t I = 0; I != Count; ++I) {
    Device Dev(Chips[I], 1);
    Dev.run({1, 1}, [](ThreadContext &Ctx) -> Kernel {
      return [](ThreadContext &C) -> Kernel { co_await C.yield(1); }(Ctx);
    });
    EXPECT_EQ(Dev.energy().Valid, Chips[I].SupportsPowerQuery);
  }
}

//===----------------------------------------------------------------------===//
// Hang proofs (DESIGN.md Sec. 20)
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic spin: producers publish to watched words, then every thread
/// waits until each word reaches its target, rechecking (optionally under
/// a lock it restores) and ending each fruitless iteration with idle().
/// A lost publication, or a racy plain-store counter increment that loses
/// an update, leaves the spin hung.
struct SpinShape {
  static constexpr unsigned MaxWatched = 3;
  unsigned GridDim = 1;
  unsigned BlockDim = 8;
  unsigned Producers = 1;
  unsigned NumWatched = 1;
  /// Per word: a counter every producer increments (target Producers), or
  /// a flag its owner producer (K % Producers) sets (target 1).
  bool Counter[MaxWatched] = {};
  /// Per word: publish with an atomic rather than a plain store (for a
  /// counter, plain means a racy load + store increment).
  bool Atomic[MaxWatched] = {};
  int LostWord = -1; ///< The publication that never happens (-1: none).
  int LostProducer = -1;
  bool Lock = false; ///< Recheck under a (restored) spinlock.
  unsigned IdleTicks = 1;
  unsigned ComputeTicks = 1; ///< Producer P publishes after 1 + P * this.
  bool Randomise = false;
  bool Maxwell = false;
  bool Congested = false; ///< Saturate every bank: stores linger.

  Word target(unsigned K) const { return Counter[K] ? Producers : 1; }
};

/// Maximal pressure on every bank: drains fall to the chip's floor, so
/// publications sit in store buffers while the spinners iterate.
class SaturatedBanks final : public CongestionSource {
public:
  BankPressure pressureAt(uint64_t, unsigned) const override {
    return {1000.0, 1000.0};
  }
};

struct SpinAddrs {
  Addr Watched;
  Addr Lock;
  Addr Out;
};

Kernel spinShapeKernel(ThreadContext &Ctx, SpinShape Sh, SpinAddrs M) {
  const unsigned Tid = Ctx.globalId();
  if (Tid < Sh.Producers) {
    co_await Ctx.yield(1 + Tid * Sh.ComputeTicks);
    for (unsigned K = 0; K != Sh.NumWatched; ++K) {
      if (static_cast<int>(K) == Sh.LostWord &&
          static_cast<int>(Tid) == Sh.LostProducer)
        continue;
      const Addr W = M.Watched + K;
      if (!Sh.Counter[K]) {
        if (Tid != K % Sh.Producers)
          continue;
        if (Sh.Atomic[K])
          co_await Ctx.atomicExch(W, 1);
        else
          co_await Ctx.st(W, 1);
      } else if (Sh.Atomic[K]) {
        co_await Ctx.atomicAdd(W, 1);
      } else {
        const Word Old = co_await Ctx.ld(W);
        co_await Ctx.st(W, Old + 1);
      }
    }
  }
  Word Sum = 0;
  for (;;) {
    if (Sh.Lock) {
      for (;;) {
        const Word Held = co_await Ctx.atomicCAS(M.Lock, 0, 1);
        if (Held == 0)
          break;
        co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(3)));
      }
    }
    bool Ready = true;
    Sum = 0;
    for (unsigned K = 0; K != Sh.NumWatched; ++K) {
      const Word V = co_await Ctx.ld(M.Watched + K);
      Sum += V;
      Ready &= V >= Sh.target(K);
    }
    if (Sh.Lock)
      co_await Ctx.atomicExch(M.Lock, 0);
    if (Ready)
      break;
    co_await Ctx.idle(Sh.IdleTicks);
  }
  co_await Ctx.st(M.Out + Tid, Sum);
}

SpinShape randomSpinShape(Rng &G) {
  SpinShape Sh;
  Sh.GridDim = 1 + static_cast<unsigned>(G.below(2));
  Sh.BlockDim = 2 + static_cast<unsigned>(G.below(39));
  Sh.Producers = 1 + static_cast<unsigned>(
                         G.below(std::min(3u, Sh.GridDim * Sh.BlockDim)));
  Sh.NumWatched = 1 + static_cast<unsigned>(G.below(SpinShape::MaxWatched));
  for (unsigned K = 0; K != Sh.NumWatched; ++K) {
    Sh.Counter[K] = G.chance(0.5);
    Sh.Atomic[K] = G.chance(0.5);
  }
  if (G.chance(0.4)) {
    const unsigned K = static_cast<unsigned>(G.below(Sh.NumWatched));
    Sh.LostWord = static_cast<int>(K);
    Sh.LostProducer = static_cast<int>(
        Sh.Counter[K] ? G.below(Sh.Producers) : K % Sh.Producers);
  }
  Sh.Lock = G.chance(0.5);
  Sh.IdleTicks = 1 + static_cast<unsigned>(G.below(4));
  Sh.ComputeTicks = static_cast<unsigned>(G.below(40));
  Sh.Randomise = G.chance(0.5);
  Sh.Maxwell = G.chance(0.5);
  Sh.Congested = G.chance(0.5);
  return Sh;
}

/// One execution of \p Sh: its result plus the final memory image.
struct SpinRun {
  RunResult Result;
  std::vector<Word> Memory;
};

SpinRun runSpinShape(const SpinShape &Sh, uint64_t Seed, bool ProveHangs,
                     uint64_t MaxTicks, ExecutionContext &Ctx) {
  const ChipProfile &Chip = *ChipProfile::lookup(Sh.Maxwell ? "980" : "titan");
  Device Dev(Ctx, Chip, Seed);
  Dev.setProveHangs(ProveHangs);
  Dev.setRandomiseThreads(Sh.Randomise);
  Dev.setMaxTicks(MaxTicks);
  const SaturatedBanks Saturated;
  if (Sh.Congested)
    Dev.setCongestionSource(&Saturated);
  const SpinAddrs M{Dev.alloc(SpinShape::MaxWatched), Dev.alloc(1),
                    Dev.alloc(Sh.GridDim * Sh.BlockDim)};
  for (unsigned K = 0; K != Sh.NumWatched; ++K)
    Dev.watchSpinWords({M.Watched + K});
  SpinRun Run;
  Run.Result =
      Dev.run({Sh.GridDim, Sh.BlockDim}, [=](ThreadContext &C) -> Kernel {
        return spinShapeKernel(C, Sh, M);
      });
  for (Addr A = 0; A != Dev.memory().allocatedWords(); ++A)
    Run.Memory.push_back(Dev.read(A));
  return Run;
}

void expectSameStats(const MemStats &A, const MemStats &B) {
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.Atomics, B.Atomics);
  EXPECT_EQ(A.DeviceFences, B.DeviceFences);
  EXPECT_EQ(A.BlockFences, B.BlockFences);
  EXPECT_EQ(A.DrainedStores, B.DrainedStores);
  EXPECT_EQ(A.AsyncLoads, B.AsyncLoads);
  EXPECT_EQ(A.ForcedSelfDrains, B.ForcedSelfDrains);
}

} // namespace

TEST(HangProofTest, LostFlagSpinIsProvenEarly) {
  SpinShape Sh;
  Sh.BlockDim = 32;
  Sh.Lock = true;
  Sh.LostWord = 0;
  Sh.LostProducer = 0;
  ExecutionContext Ctx;
  const SpinRun On = runSpinShape(Sh, 5, /*ProveHangs=*/true, 100000, Ctx);
  EXPECT_EQ(On.Result.Status, RunStatus::Timeout);
  EXPECT_TRUE(On.Result.HangProven);
  EXPECT_LT(On.Result.Ticks, 5000u) << "a few idle iterations suffice";

  const SpinRun Off = runSpinShape(Sh, 5, /*ProveHangs=*/false, 100000, Ctx);
  EXPECT_EQ(Off.Result.Status, RunStatus::Timeout);
  EXPECT_FALSE(Off.Result.HangProven);
  EXPECT_EQ(Off.Result.Ticks, 100001u) << "the budget is paid in full";
}

TEST(HangProofTest, SpinWithoutIdleIsNeverProven) {
  // spinForeverKernel yields rather than idles: no proof, full budget.
  Device Dev(titan(), 1);
  Dev.setMaxTicks(2000);
  const Addr Flag = Dev.alloc(1);
  Dev.watchSpinWords({Flag});
  const RunResult R = Dev.run({1, 8}, [=](ThreadContext &Ctx) -> Kernel {
    return spinForeverKernel(Ctx, Flag);
  });
  EXPECT_EQ(R.Status, RunStatus::Timeout);
  EXPECT_FALSE(R.HangProven);
  EXPECT_EQ(R.Ticks, 2001u);
}

TEST(HangProofTest, RandomSpinShapesMatchWithWatchdogOnAndOff) {
  // The property behind DESIGN.md Sec. 20: the watchdog changes a run's
  // cost, never its outcome. Random spin shapes (thread counts, watched
  // flag/counter sets, lost or racy publications, a lock inside the idle
  // iteration, placement randomisation, both chip generations, saturated
  // banks that keep publications buffered while spinners iterate) must give
  // the same status with the watchdog on and off, and completing runs
  // must agree in final memory, ticks and memory statistics.
  constexpr uint64_t Budget = 20000;
  Rng G(20161017);
  ExecutionContext Ctx;
  unsigned Completed = 0, Proven = 0;
  for (unsigned I = 0; I != 120; ++I) {
    const SpinShape Sh = randomSpinShape(G);
    const uint64_t Seed = G.next();
    SCOPED_TRACE(::testing::Message() << "shape " << I);
    const SpinRun On = runSpinShape(Sh, Seed, true, Budget, Ctx);
    const SpinRun Off = runSpinShape(Sh, Seed, false, Budget, Ctx);
    ASSERT_EQ(On.Result.Status, Off.Result.Status);
    EXPECT_FALSE(Off.Result.HangProven);
    if (On.Result.Status == RunStatus::Completed) {
      ++Completed;
      EXPECT_FALSE(On.Result.HangProven);
      EXPECT_EQ(On.Result.Ticks, Off.Result.Ticks);
      expectSameStats(On.Result.Mem, Off.Result.Mem);
      EXPECT_EQ(On.Memory, Off.Memory);
      continue;
    }
    ASSERT_EQ(On.Result.Status, RunStatus::Timeout);
    Proven += On.Result.HangProven;
    if (On.Result.HangProven) {
      EXPECT_LT(On.Result.Ticks, Off.Result.Ticks);
    }
  }
  // Neither half of the property may be vacuous.
  EXPECT_GT(Completed, 20u);
  EXPECT_GT(Proven, 20u);
}

TEST(HangProofTest, OracleVerdictIsTheSameWithWatchdogOnAndOff) {
  // A checked hang: the streaming oracle sees a shorter event stream when
  // the watchdog cuts the run, and its verdict must not change. Small
  // grids and budget: every load of a never-written word stays live in
  // the oracle's frontier, so checked spins get dearer with length.
  constexpr uint64_t Budget = 1200;
  Rng G(77);
  unsigned Checked = 0;
  for (unsigned I = 0; I != 30; ++I) {
    SpinShape Sh = randomSpinShape(G);
    Sh.GridDim = 1;
    Sh.BlockDim = std::min(Sh.BlockDim, 8u);
    Sh.Producers = std::min(Sh.Producers, Sh.BlockDim);
    Sh.LostWord = 0; // Word 0's flag owner, or one of its incrementers.
    Sh.LostProducer = 0;
    const uint64_t Seed = G.next();
    model::StreamVerdict Verdicts[2];
    RunResult Results[2];
    for (int Watch = 0; Watch != 2; ++Watch) {
      ExecutionContext Ctx;
      model::StreamingChecker Checker;
      Checker.begin();
      Ctx.requestStreaming(&Checker);
      Results[Watch] = runSpinShape(Sh, Seed, Watch == 1, Budget, Ctx).Result;
      Verdicts[Watch] = Checker.finish();
    }
    SCOPED_TRACE(::testing::Message() << "shape " << I);
    ASSERT_EQ(Results[0].Status, RunStatus::Timeout);
    ASSERT_EQ(Results[1].Status, RunStatus::Timeout);
    EXPECT_TRUE(Results[1].HangProven);
    EXPECT_EQ(Verdicts[0].AxiomsOk, Verdicts[1].AxiomsOk)
        << Verdicts[0].AxiomViolation << " / " << Verdicts[1].AxiomViolation;
    EXPECT_EQ(Verdicts[0].weak(), Verdicts[1].weak());
    EXPECT_TRUE(Verdicts[1].AxiomsOk) << Verdicts[1].AxiomViolation;
    ++Checked;
  }
  EXPECT_EQ(Checked, 30u);
}
