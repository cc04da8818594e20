//===- apps/TpoTaskMgmt.cpp - Tzeng-Patney-Owens task management --------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The dynamic task-management framework of Tzeng, Patney and Owens [48]:
// a work queue protected by a custom spinlock; workers pop task
// descriptors, execute them, and push spawned child tasks. The Tab. 4
// post-condition checks that exactly the expected set of tasks executes
// (each exactly once).
//
// Weak-memory defects: the enqueue's payload and tail stores are plain
// stores that can stay buffered past the atomic unlock; a popper then
// either reads a stale descriptor (executing a wrong/duplicate task) or
// never observes the push (workers spin forever — the timeout the paper's
// 30-second limit catches).
//
// A lost push is a livelock, not a slow run: once the buffers are drained
// nothing will ever write Done, Head or Tail again. The empty-queue spin
// therefore ends each iteration with idle() over those three watched
// words, and the scheduler reports the Timeout as soon as every worker has
// spun once through an unchanged queue (DESIGN.md Sec. 20) — typically a
// few thousand ticks in, instead of at the 250k-tick budget. The verdict
// is the same either way; only its cost changes.
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

#include "sim/ThreadContext.h"

#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Kernel;
using sim::ThreadContext;
using sim::Word;

namespace {

enum Site : int {
  SiteLockCAS = 0, ///< atomicCAS acquiring the queue lock.
  SiteHeadLd,      ///< pop: load head.
  SiteTailLd,      ///< pop/push: load tail.
  SiteBufLd,       ///< pop: load task descriptor.
  SiteBufSt,       ///< push: store task descriptor.
  SiteTailSt,      ///< push: store new tail (the bug).
  SiteUnlockExch,  ///< atomicExch releasing the queue lock.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "lock: atomicCAS(queue mutex)",
    "pop: load head",
    "pop/push: load tail",
    "pop: load buf[head]",
    "push: store buf[tail]",
    "push: store tail",
    "unlock: atomicExch(queue mutex)",
};

constexpr unsigned GridDim = 4;
constexpr unsigned BlockDim = 16;
constexpr unsigned RootTasks = 24;
constexpr unsigned ChildrenPerRoot = 2;
constexpr unsigned TotalTasks = RootTasks * (1 + ChildrenPerRoot);
constexpr unsigned QueueCap = TotalTasks + 8;
constexpr Word EmptySlot = 0xffffffffu;

Word packTask(unsigned TaskId, bool IsRoot) {
  return static_cast<Word>(TaskId | (IsRoot ? 0x10000u : 0u));
}
unsigned taskId(Word Task) { return Task & 0xffffu; }
bool taskIsRoot(Word Task) { return (Task & 0x10000u) != 0; }

Kernel workerKernel(ThreadContext &Ctx, Addr Buf, Addr Head, Addr Tail,
                    Addr Mutex, Addr Done, Addr ExecCounts,
                    Addr ErrorFlag) {
  while (true) {
    // Note: awaits are kept out of control-flow conditions throughout
    // (GCC 12 miscompiles co_await inside a condition expression).
    const Word DoneCount = co_await Ctx.ld(Done);
    if (DoneCount >= TotalTasks)
      co_return;

    // Pop under the lock.
    for (;;) {
      const Word Lock = co_await Ctx.atomicCAS(Mutex, 0, 1, SiteLockCAS);
      if (Lock == 0)
        break;
      // Randomised backoff: breaks deterministic starvation cycles, as
      // contended spinlocks do on real hardware.
      co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(3)));
    }
    const Word H = co_await Ctx.ld(Head, SiteHeadLd);
    const Word T = co_await Ctx.ld(Tail, SiteTailLd);
    Word Task = EmptySlot;
    if (H < T) {
      Task = co_await Ctx.ld(Buf + H, SiteBufLd);
      co_await Ctx.atomicAdd(Head, 1); // Index update is atomic in [48].
    }
    co_await Ctx.atomicExch(Mutex, 0, SiteUnlockExch);

    if (Task == EmptySlot) {
      // Found no work, judging only Done, Head and Tail (watched), and the
      // lock is released again: a clean idle iteration.
      co_await Ctx.idle(3);
      continue;
    }
    const unsigned Id = taskId(Task);
    if (Id >= TotalTasks) {
      // Stale descriptor from a buffered push.
      co_await Ctx.st(ErrorFlag, 1);
      co_await Ctx.atomicAdd(Done, 1); // Count it or the grid never exits.
      continue;
    }

    // "Execute" the task.
    co_await Ctx.atomicAdd(ExecCounts + Id, 1);

    // Root tasks spawn children.
    if (taskIsRoot(Task)) {
      for (unsigned C = 0; C != ChildrenPerRoot; ++C) {
        const unsigned ChildId =
            RootTasks + Id * ChildrenPerRoot + C;
        for (;;) {
          const Word Lock =
              co_await Ctx.atomicCAS(Mutex, 0, 1, SiteLockCAS);
          if (Lock == 0)
            break;
          co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(3)));
        }
        const Word Slot = co_await Ctx.ld(Tail, SiteTailLd);
        if (Slot < QueueCap) {
          co_await Ctx.st(Buf + Slot, packTask(ChildId, false), SiteBufSt);
          co_await Ctx.st(Tail, Slot + 1, SiteTailSt);
        } else {
          co_await Ctx.st(ErrorFlag, 1);
        }
        co_await Ctx.atomicExch(Mutex, 0, SiteUnlockExch);
      }
    }
    co_await Ctx.atomicAdd(Done, 1);
  }
}

class TpoTaskMgmt final : public Application {
public:
  const char *name() const override { return "tpo-tm"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }
  uint64_t maxTicks() const override { return 250000; }

  void setup(sim::Device &Dev, Rng &R) override {
    (void)R;
    Buf = Dev.alloc(QueueCap);
    Head = Dev.alloc(1);
    Tail = Dev.alloc(1);
    Mutex = Dev.alloc(1);
    Done = Dev.alloc(1);
    ExecCounts = Dev.alloc(TotalTasks);
    ErrorFlag = Dev.alloc(1);
    for (unsigned I = 0; I != QueueCap; ++I)
      Dev.write(Buf + I, EmptySlot);
    for (unsigned I = 0; I != RootTasks; ++I)
      Dev.write(Buf + I, packTask(I, true));
    Dev.write(Tail, RootTasks);
    Dev.watchSpinWords({Done, Head, Tail});
  }

  bool run(sim::Device &Dev) override {
    const Addr BufV = Buf, HeadV = Head, TailV = Tail, MutexV = Mutex,
               DoneV = Done, ExecV = ExecCounts, ErrV = ErrorFlag;
    const sim::RunResult Result = Dev.run(
        {GridDim, BlockDim}, [=](ThreadContext &Ctx) -> Kernel {
          return workerKernel(Ctx, BufV, HeadV, TailV, MutexV, DoneV, ExecV,
                              ErrV);
        });
    return Result.completed();
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    if (Dev.read(ErrorFlag) != 0)
      return false;
    for (unsigned I = 0; I != TotalTasks; ++I)
      if (Dev.read(ExecCounts + I) != 1)
        return false;
    return true;
  }

private:
  Addr Buf = 0, Head = 0, Tail = 0, Mutex = 0, Done = 0, ExecCounts = 0,
       ErrorFlag = 0;
};

} // namespace

std::unique_ptr<Application> apps::detail::makeTpoTaskMgmt() {
  return std::make_unique<TpoTaskMgmt>();
}
