//===- tests/MemorySystemTests.cpp - weak memory model unit tests -------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests the operational weak memory model directly (no kernels): store
// buffering, forwarding, banked drains, fences, atomics, block visibility,
// async loads, and per-location coherence.
//
//===----------------------------------------------------------------------===//

#include "sim/MemorySystem.h"

#include "gtest/gtest.h"

using namespace gpuwmm;
using namespace gpuwmm::sim;

namespace {

const ChipProfile &titan() { return *ChipProfile::lookup("titan"); }

class MemoryFixture : public ::testing::Test {
protected:
  MemoryFixture() : R(42), Mem(titan(), R) { Mem.registerThreads(8); }

  Rng R;
  MemorySystem Mem;
};

/// A congestion source that freezes one bank completely.
class FreezeBank final : public CongestionSource {
public:
  explicit FreezeBank(unsigned Bank) : Bank(Bank) {}
  BankPressure pressureAt(uint64_t, unsigned B) const override {
    if (B != Bank)
      return {};
    return {1000.0, 1000.0};
  }

private:
  unsigned Bank;
};

} // namespace

//===----------------------------------------------------------------------===//
// Basic visibility
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, AllocIsZeroedAndPatchAligned) {
  const Addr A = Mem.alloc(10);
  const Addr B = Mem.alloc(3);
  EXPECT_EQ(A % titan().PatchSizeWords, 0u);
  EXPECT_EQ(B % titan().PatchSizeWords, 0u);
  EXPECT_NE(A, B);
  for (unsigned I = 0; I != 10; ++I)
    EXPECT_EQ(Mem.hostRead(A + I), 0u);
}

TEST_F(MemoryFixture, StoreIsNotImmediatelyGloballyVisible) {
  const Addr A = Mem.alloc(4);
  Mem.store(/*Tid=*/0, /*Block=*/0, A, 7);
  // Another thread reads the old value until the store drains.
  EXPECT_EQ(Mem.load(/*Tid=*/1, /*Block=*/1, A), 0u);
  EXPECT_TRUE(Mem.hasPendingWork());
}

TEST_F(MemoryFixture, OwnStoreForwardsExactAddress) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 7);
  EXPECT_EQ(Mem.load(0, 0, A), 7u);
  // Newest own store wins.
  Mem.store(0, 0, A, 9);
  EXPECT_EQ(Mem.load(0, 0, A), 9u);
}

TEST_F(MemoryFixture, SameBankLoadForcesSelfDrain) {
  const Addr A = Mem.alloc(8);
  // A and A+1 share a bank (same patch).
  Mem.store(0, 0, A, 7);
  EXPECT_EQ(Mem.load(0, 0, A + 1), 0u);
  // The self-drain made the buffered store globally visible.
  EXPECT_EQ(Mem.hostRead(A), 7u);
  EXPECT_EQ(Mem.load(1, 1, A), 7u);
}

TEST_F(MemoryFixture, CrossBankLoadDoesNotDrain) {
  const Addr A = Mem.alloc(4);
  const Addr B = Mem.alloc(4); // Different patch => different bank.
  ASSERT_NE(titan().bankOf(A), titan().bankOf(B));
  Mem.store(0, 0, A, 7);
  EXPECT_EQ(Mem.load(0, 0, B), 0u);
  EXPECT_EQ(Mem.hostRead(A), 0u) << "cross-bank load must not flush";
}

TEST_F(MemoryFixture, DrainEventuallyPublishes) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 7);
  for (uint64_t T = 1; T != 200 && Mem.hasPendingWork(); ++T)
    Mem.tick(T);
  EXPECT_FALSE(Mem.hasPendingWork());
  EXPECT_EQ(Mem.hostRead(A), 7u);
}

TEST_F(MemoryFixture, SameBankStoresDrainInOrder) {
  // Property: two stores to the same bank can never be observed out of
  // order. A+0 and A+1 share a patch/bank.
  for (int Trial = 0; Trial != 200; ++Trial) {
    Rng TrialRng(Trial);
    MemorySystem M(titan(), TrialRng);
    M.registerThreads(2);
    const Addr A = M.alloc(8);
    M.store(0, 0, A, 1);
    M.store(0, 0, A + 1, 1);
    for (uint64_t T = 1; T != 100; ++T) {
      M.tick(T);
      // If A+1 is visible, A must be visible too (FIFO order).
      if (M.hostRead(A + 1) == 1) {
        EXPECT_EQ(M.hostRead(A), 1u);
      }
      if (!M.hasPendingWork())
        break;
    }
  }
}

TEST_F(MemoryFixture, CrossBankStoresCanReorder) {
  // Statistical: with enough trials, a later store to another bank
  // becomes visible before an earlier one at least once.
  unsigned Reordered = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    Rng TrialRng(Trial);
    MemorySystem M(titan(), TrialRng);
    M.registerThreads(2);
    const Addr A = M.alloc(4);
    const Addr B = M.alloc(4);
    M.store(0, 0, A, 1);
    M.store(0, 0, B, 1);
    for (uint64_t T = 1; T != 100; ++T) {
      M.tick(T);
      if (M.hostRead(B) == 1 && M.hostRead(A) == 0) {
        ++Reordered;
        break;
      }
      if (!M.hasPendingWork())
        break;
    }
  }
  EXPECT_GT(Reordered, 0u) << "weak model must allow cross-bank reordering";
}

//===----------------------------------------------------------------------===//
// Sequential mode
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, SequentialModeIsImmediatelyVisible) {
  Mem.setSequentialMode(true);
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 7);
  EXPECT_EQ(Mem.load(1, 1, A), 7u);
  EXPECT_FALSE(Mem.hasPendingWork());
}

//===----------------------------------------------------------------------===//
// Atomics
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, AtomicsAreImmediatelyVisible) {
  const Addr A = Mem.alloc(4);
  EXPECT_EQ(Mem.atomicCAS(0, A, 0, 5), 0u);
  EXPECT_EQ(Mem.load(1, 1, A), 5u);
  EXPECT_EQ(Mem.atomicExch(1, A, 9), 5u);
  EXPECT_EQ(Mem.atomicAdd(2, A, 1), 9u);
  EXPECT_EQ(Mem.hostRead(A), 10u);
}

TEST_F(MemoryFixture, FailedCASDoesNotWrite) {
  const Addr A = Mem.alloc(4);
  Mem.hostWrite(A, 3);
  EXPECT_EQ(Mem.atomicCAS(0, A, 0, 5), 3u);
  EXPECT_EQ(Mem.hostRead(A), 3u);
}

TEST_F(MemoryFixture, AtomicDoesNotDrainOtherBanks) {
  // The root cause of the spinlock bugs: an atomic to one bank leaves a
  // buffered store to another bank in the buffer.
  const Addr Data = Mem.alloc(4);
  const Addr Mutex = Mem.alloc(4);
  ASSERT_NE(titan().bankOf(Data), titan().bankOf(Mutex));
  Mem.store(0, 0, Data, 42);
  Mem.atomicExch(0, Mutex, 0); // "unlock"
  EXPECT_EQ(Mem.load(1, 1, Mutex), 0u);
  EXPECT_EQ(Mem.load(1, 1, Data), 0u)
      << "unlock must be able to overtake the buffered data store";
}

TEST_F(MemoryFixture, AtomicDrainsOwnBank) {
  const Addr A = Mem.alloc(8);
  Mem.store(0, 0, A, 7);
  Mem.atomicAdd(0, A + 1, 1); // Same bank: self-coherence drain first.
  EXPECT_EQ(Mem.hostRead(A), 7u);
}

//===----------------------------------------------------------------------===//
// Fences
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, DeviceFenceDrainsEverything) {
  const Addr A = Mem.alloc(4);
  const Addr B = Mem.alloc(4);
  Mem.store(0, 0, A, 1);
  Mem.store(0, 0, B, 2);
  const unsigned Latency = Mem.fenceDevice(0);
  EXPECT_GE(Latency, titan().FenceBaseLatency);
  EXPECT_EQ(Mem.hostRead(A), 1u);
  EXPECT_EQ(Mem.hostRead(B), 2u);
}

TEST_F(MemoryFixture, DeviceFenceOnlyDrainsOwnThread) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 1);
  Mem.fenceDevice(1); // Another thread's fence.
  EXPECT_EQ(Mem.hostRead(A), 0u);
}

TEST_F(MemoryFixture, FenceLatencyGrowsWithCongestion) {
  const Addr A = Mem.alloc(4);
  Rng R2(1);
  MemorySystem Congested(titan(), R2);
  Congested.registerThreads(2);
  const Addr CA = Congested.alloc(4);
  FreezeBank Freeze(titan().bankOf(CA));
  Congested.setCongestionSource(&Freeze);
  Congested.tick(1);

  Mem.store(0, 0, A, 1);
  Congested.store(0, 0, CA, 1);
  EXPECT_GT(Congested.fenceDevice(0), Mem.fenceDevice(0));
}

TEST_F(MemoryFixture, BlockFenceGivesBlockVisibilityOnly) {
  const Addr A = Mem.alloc(4);
  Mem.store(/*Tid=*/0, /*Block=*/0, A, 7);
  Mem.fenceBlock(0, 0);
  // Same-block thread sees it; other block does not; global memory not
  // yet written.
  EXPECT_EQ(Mem.load(/*Tid=*/1, /*Block=*/0, A), 7u);
  EXPECT_EQ(Mem.load(/*Tid=*/2, /*Block=*/1, A), 0u);
  EXPECT_EQ(Mem.hostRead(A), 0u);
}

TEST_F(MemoryFixture, BlockVisibleValueEventuallyDrains) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 7);
  Mem.fenceBlock(0, 0);
  for (uint64_t T = 1; T != 200 && Mem.hasPendingWork(); ++T)
    Mem.tick(T);
  EXPECT_EQ(Mem.hostRead(A), 7u);
  EXPECT_EQ(Mem.load(2, 1, A), 7u);
}

TEST_F(MemoryFixture, BlockVisibleSupersedesOwnOlderBufferedStore) {
  // Thread 0 stores, thread 1 (same block) later stores and publishes at
  // block scope; thread 0's subsequent read must see thread 1's newer
  // value even though its own store is still buffered (the cub-scan
  // broadcast pattern).
  const Addr A = Mem.alloc(4);
  Mem.store(/*Tid=*/0, /*Block=*/0, A, 1);
  Mem.fenceBlock(0, 0);
  Mem.store(/*Tid=*/1, /*Block=*/0, A, 2);
  Mem.fenceBlock(1, 0);
  EXPECT_EQ(Mem.load(0, 0, A), 2u);
}

//===----------------------------------------------------------------------===//
// Per-location coherence
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, OlderPlainDrainCannotClobberNewerPlainWrite) {
  // Plain-vs-plain same-address coherence follows issue order (this is
  // what lets a barrier-ordered later store win even if an older buffered
  // store drains afterwards; see the cub-scan broadcast pattern).
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 1); // Older store, buffered.
  Mem.store(1, 1, A, 2); // Newer store, buffered.
  Mem.fenceDevice(1);    // Newer store arrives first...
  Mem.fenceDevice(0);    // ...older drain must not clobber it.
  EXPECT_EQ(Mem.hostRead(A), 2u)
      << "per-location coherence: memory must not step backwards";
}

TEST_F(MemoryFixture, InFlightStoreOvertakesAtomicAtArrival) {
  // Atomics serialise at the L2 by arrival: a plain store already in
  // flight when the atomic executes arrives afterwards and wins. This is
  // serialisable (the atomic observably read the pre-store value) — and
  // the sound alternative to dropping the store, which would lose a
  // fenced write (see FuzzTests' soundness property).
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 1);                    // In flight.
  EXPECT_EQ(Mem.atomicAdd(1, A, 10), 0u);   // Reads the pre-store value.
  Mem.fenceDevice(0);                       // Store arrives, overwrites.
  EXPECT_EQ(Mem.hostRead(A), 1u);
}

TEST_F(MemoryFixture, ForwardingAfterOtherThreadsAtomic) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 1);   // Own buffered store (in flight).
  Mem.atomicExch(1, A, 2); // Another thread's atomic.
  // The own store is still in flight and will overwrite the atomic at
  // arrival, so forwarding it is coherent.
  EXPECT_EQ(Mem.load(0, 0, A), 1u);
}

//===----------------------------------------------------------------------===//
// Async (split-phase) loads
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, AsyncLoadBindsAtCompletion) {
  const Addr A = Mem.alloc(4);
  const unsigned Ticket = Mem.issueAsyncLoad(0, A);
  // Value changes between issue and completion.
  Mem.atomicExch(1, A, 9);
  for (uint64_t T = 1; T != 200 && !Mem.asyncDone(Ticket); ++T)
    Mem.tick(T);
  ASSERT_TRUE(Mem.asyncDone(Ticket));
  EXPECT_EQ(Mem.asyncValue(Ticket), 9u)
      << "async loads read at completion time (the LB mechanism)";
}

TEST_F(MemoryFixture, FenceCompletesOwnAsyncLoads) {
  const Addr A = Mem.alloc(4);
  Mem.hostWrite(A, 5);
  const unsigned Ticket = Mem.issueAsyncLoad(0, A);
  Mem.fenceDevice(0);
  ASSERT_TRUE(Mem.asyncDone(Ticket));
  EXPECT_EQ(Mem.asyncValue(Ticket), 5u);
}

TEST_F(MemoryFixture, SameBankStoreForcesAsyncCompletionFirst) {
  // Same-bank issue order: a later store cannot drain past a pending
  // async load on its bank (no same-bank LB).
  const Addr A = Mem.alloc(8);
  const unsigned Ticket = Mem.issueAsyncLoad(0, A);
  Mem.store(0, 0, A + 1, 1); // Same bank.
  EXPECT_TRUE(Mem.asyncDone(Ticket));
  EXPECT_EQ(Mem.asyncValue(Ticket), 0u);
}

TEST_F(MemoryFixture, CrossBankStoreLeavesAsyncPending) {
  const Addr A = Mem.alloc(4);
  const Addr B = Mem.alloc(4);
  Rng R0(123);
  MemorySystem M(titan(), R0);
  M.registerThreads(2);
  const Addr MA = M.alloc(4);
  const Addr MB = M.alloc(4);
  ASSERT_NE(titan().bankOf(MA), titan().bankOf(MB));
  const unsigned Ticket = M.issueAsyncLoad(0, MA);
  M.store(0, 0, MB, 1);
  EXPECT_FALSE(M.asyncDone(Ticket));
  (void)A;
  (void)B;
}

TEST_F(MemoryFixture, SequentialModeAsyncCompletesAtIssue) {
  Mem.setSequentialMode(true);
  const Addr A = Mem.alloc(4);
  Mem.hostWrite(A, 3);
  const unsigned Ticket = Mem.issueAsyncLoad(0, A);
  EXPECT_TRUE(Mem.asyncDone(Ticket));
  EXPECT_EQ(Mem.asyncValue(Ticket), 3u);
}

//===----------------------------------------------------------------------===//
// drainAll / stats
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, DrainAllPublishesEverything) {
  const Addr A = Mem.alloc(64);
  for (unsigned T = 0; T != 4; ++T)
    for (unsigned I = 0; I != 8; ++I)
      Mem.store(T, 0, A + T * 8 + I, T * 100 + I);
  Mem.drainAll();
  EXPECT_FALSE(Mem.hasPendingWork());
  for (unsigned T = 0; T != 4; ++T)
    for (unsigned I = 0; I != 8; ++I)
      EXPECT_EQ(Mem.hostRead(A + T * 8 + I), T * 100 + I);
}

TEST_F(MemoryFixture, StatsCountOperations) {
  const Addr A = Mem.alloc(4);
  Mem.store(0, 0, A, 1);
  Mem.load(0, 0, A);
  Mem.atomicAdd(0, A, 1);
  Mem.fenceDevice(0);
  Mem.fenceBlock(0, 0);
  Mem.issueAsyncLoad(0, A + 1);
  const MemStats &S = Mem.stats();
  EXPECT_EQ(S.Stores, 1u);
  EXPECT_EQ(S.Loads, 1u);
  EXPECT_EQ(S.Atomics, 1u);
  EXPECT_EQ(S.DeviceFences, 1u);
  EXPECT_EQ(S.BlockFences, 1u);
  EXPECT_EQ(S.AsyncLoads, 1u);
  EXPECT_EQ(S.totalAccesses(), 3u);
}

//===----------------------------------------------------------------------===//
// Congestion response
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, CongestionDelaysDrains) {
  // Measure mean drain time with and without heavy pressure on the bank.
  auto MeanDrainTicks = [](bool Congest) {
    double Total = 0;
    for (int Trial = 0; Trial != 100; ++Trial) {
      Rng TrialRng(Trial * 7 + 1);
      MemorySystem M(titan(), TrialRng);
      M.registerThreads(1);
      const Addr A = M.alloc(4);
      FreezeBank Freeze(titan().bankOf(A));
      if (Congest)
        M.setCongestionSource(&Freeze);
      M.store(0, 0, A, 1);
      uint64_t T = 1;
      for (; T != 4000 && M.hasPendingWork(); ++T)
        M.tick(T);
      Total += static_cast<double>(T);
    }
    return Total / 100.0;
  };
  const double Native = MeanDrainTicks(false);
  const double Congested = MeanDrainTicks(true);
  EXPECT_LT(Native, 4.0);
  EXPECT_GT(Congested, 4.0 * Native)
      << "bank pressure must substantially delay drains";
}

TEST_F(MemoryFixture, PressureBelowThresholdHasNoEffect) {
  class MildSource final : public CongestionSource {
  public:
    BankPressure pressureAt(uint64_t, unsigned) const override {
      // Well below the chip threshold after sensitivity scaling.
      return {0.5, 0.5};
    }
  };
  MildSource Mild;
  Mem.setCongestionSource(&Mild);
  Mem.tick(1);
  EXPECT_DOUBLE_EQ(Mem.effectiveWritePressure(1, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// Reset lifecycle (DESIGN.md Sec. 12)
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, ResetZeroesExactlyTheTouchedWords) {
  const Addr A = Mem.alloc(128);
  Mem.hostWrite(A, 11);
  Mem.hostWrite(A + 100, 22);
  Mem.store(0, 0, A + 5, 33);
  Mem.atomicAdd(1, A + 7, 44);
  Mem.drainAll();

  Mem.reset(titan());
  EXPECT_EQ(Mem.allocatedWords(), 0u);
  const Addr B = Mem.alloc(128);
  EXPECT_EQ(B, A) << "allocation restarts from the bottom";
  for (Addr W = B; W != B + 128; ++W)
    EXPECT_EQ(Mem.hostRead(W), 0u) << "word " << W;
}

TEST_F(MemoryFixture, ResetClearsStatsBuffersAndAsyncState) {
  Mem.alloc(64);
  Mem.store(0, 0, 3, 9);
  const unsigned Ticket = Mem.issueAsyncLoad(1, 5);
  (void)Ticket;
  EXPECT_TRUE(Mem.hasPendingWork());
  EXPECT_GT(Mem.stats().Stores, 0u);

  Mem.reset(titan());
  EXPECT_FALSE(Mem.hasPendingWork());
  EXPECT_EQ(Mem.stats().Stores, 0u);
  EXPECT_EQ(Mem.stats().AsyncLoads, 0u);
  EXPECT_FALSE(Mem.sequentialMode());
  // Ticket numbering restarts, as on a fresh system.
  Mem.alloc(64);
  EXPECT_EQ(Mem.issueAsyncLoad(0, 1), 0u);
}

TEST_F(MemoryFixture, ResetRebindsToADifferentChip) {
  const ChipProfile &Maxwell = *ChipProfile::lookup("980");
  Mem.alloc(16);
  Mem.store(0, 0, 0, 1);
  Mem.drainAll();

  Mem.reset(Maxwell);
  EXPECT_EQ(&Mem.chip(), &Maxwell);
  // Alignment now follows the new chip's patch size.
  Mem.alloc(1);
  const Addr Second = Mem.alloc(1);
  EXPECT_EQ(Second % Maxwell.PatchSizeWords, 0u);
}

TEST_F(MemoryFixture, ResetStateIsIndistinguishableFromFresh) {
  // Drive the same deterministic op sequence on a fresh system and on a
  // dirtied-then-reset one; every observable must match, including drain
  // timing (which depends on RNG consumption and stall state).
  auto Drive = [](MemorySystem &M) {
    std::vector<Word> Obs;
    M.registerThreads(4);
    const Addr A = M.alloc(256);
    M.store(0, 0, A, 1);
    M.store(0, 0, A + 64, 2);      // Different bank on titan.
    M.store(1, 1, A + 1, 3);
    Obs.push_back(M.load(1, 1, A + 1)); // Forwarded.
    M.issueAsyncLoad(2, A);
    M.atomicAdd(3, A + 2, 5);
    for (uint64_t T = 1; T != 64; ++T) {
      M.tick(T);
      Obs.push_back(M.hostRead(A));
      Obs.push_back(M.hostRead(A + 64));
    }
    M.drainAll();
    for (Addr W = A; W != A + 70; ++W)
      Obs.push_back(M.hostRead(W));
    Obs.push_back(static_cast<Word>(M.stats().DrainedStores));
    return Obs;
  };

  Rng FreshRng(77);
  MemorySystem Fresh(titan(), FreshRng);

  Rng ReusedRng(1234);
  MemorySystem Reused(titan(), ReusedRng);
  Drive(Reused); // Dirty it with a different-seeded history.
  ReusedRng.reseed(77);
  Reused.reset(titan());

  EXPECT_EQ(Drive(Reused), Drive(Fresh));
}

//===----------------------------------------------------------------------===//
// Watched spin words (DESIGN.md Sec. 20)
//===----------------------------------------------------------------------===//

TEST_F(MemoryFixture, WatchedWriteEventsAdvanceTheProgressEpoch) {
  const Addr A = Mem.alloc(4);
  Mem.watchWord(A);
  uint64_t Epoch = Mem.progressEpoch();
  const auto Advanced = [&] {
    const bool Moved = Mem.progressEpoch() != Epoch;
    Epoch = Mem.progressEpoch();
    return Moved;
  };

  Mem.load(0, 0, A);
  Mem.atomicCAS(0, A, /*Compare=*/9, /*Value=*/1); // Fails: reads only.
  EXPECT_FALSE(Advanced()) << "reads never count as progress";

  Mem.store(0, 0, A, 1);
  EXPECT_TRUE(Advanced()) << "store issue";
  Mem.fenceBlock(0, 0);
  EXPECT_TRUE(Advanced()) << "block-fence promotion";
  Mem.drainAll();
  EXPECT_TRUE(Advanced()) << "drain";
  Mem.atomicExch(1, A, 1); // Writes, even though the value is unchanged.
  EXPECT_TRUE(Advanced()) << "writing atomic";
}

TEST_F(MemoryFixture, UnwatchedWritesLeaveTheEpochAlone) {
  const Addr A = Mem.alloc(4);
  const Addr B = Mem.alloc(4);
  Mem.store(0, 0, A, 1);
  Mem.atomicAdd(1, A + 1, 1);
  EXPECT_EQ(Mem.progressEpoch(), 0u) << "nothing watched yet";

  Mem.watchWord(B);
  Mem.store(0, 0, A + 2, 1);
  Mem.fenceBlock(0, 0);
  Mem.drainAll();
  Mem.atomicAdd(1, A + 1, 1);
  EXPECT_EQ(Mem.progressEpoch(), 0u);
}

TEST_F(MemoryFixture, ResetForgetsWatchedWords) {
  const Addr A = Mem.alloc(4);
  Mem.watchWord(A);
  Mem.atomicAdd(0, A, 1);
  ASSERT_GT(Mem.progressEpoch(), 0u);

  Mem.reset(titan());
  EXPECT_EQ(Mem.progressEpoch(), 0u);
  const Addr B = Mem.alloc(4);
  ASSERT_EQ(B, A);
  Mem.atomicAdd(0, B, 1);
  EXPECT_EQ(Mem.progressEpoch(), 0u) << "the mark must not outlive reset";
}
