//===- litmus/Litmus.cpp - Litmus program interpreter -------------------------===//
//
// Executes litmus::Program tests on the simulated GPU. The interpreter
// reproduces the op shape of the original hand-written Fig. 2 kernels
// exactly — start-phase jitter, ops in order, then register writeback in
// first-load order — so catalog programs for MP/LB/SB/R/S/2+2W execute
// bit-identically to the historical enum-dispatched kernels (pinned by
// LitmusTests' enum-vs-IR equality suite).
//
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"

#include "sim/Device.h"
#include "sim/ThreadContext.h"
#include "stress/StressSources.h"

#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::litmus;
using sim::Addr;
using sim::Kernel;
using sim::ThreadContext;
using sim::Word;

const char *litmus::litmusName(LitmusKind K) {
  switch (K) {
  case LitmusKind::MP:
    return "MP";
  case LitmusKind::LB:
    return "LB";
  case LitmusKind::SB:
    return "SB";
  case LitmusKind::R:
    return "R";
  case LitmusKind::S:
    return "S";
  case LitmusKind::TwoPlusTwoW:
    return "2+2W";
  }
  return "unknown";
}

const Program &litmus::catalogProgram(LitmusKind K) {
  const Program *P = findCatalogProgram(litmusName(K));
  assert(P && "every LitmusKind has a catalog program");
  return *P;
}

namespace {

/// A launched lane with no program thread (uneven block placement).
Kernel idleThread(ThreadContext &) { co_return; }

/// Interprets one program thread. The issue sequence matches the original
/// hand-written kernels: one start-phase yield with random jitter, the ops
/// in program order (an OptFence's fence exists only in fenced runs), and
/// finally each register the thread loaded into is stored to its result
/// slot, in first-load order.
///
/// \p Regs is shared across the program's threads; every register has
/// exactly one loading thread (Program::validate), so slots are
/// single-writer. For a split-phase load the slot holds the ticket until
/// the matching await replaces it with the loaded value.
Kernel interpretThread(ThreadContext &Ctx, const ProgThread *T,
                       const std::vector<Addr> *LocAddr, Addr Results,
                       unsigned Jitter, bool Fenced, std::vector<Word> *Regs,
                       const std::vector<unsigned> *Writeback) {
  co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(Jitter)));
  for (const ProgOp &O : T->Ops) {
    switch (O.K) {
    case ProgOp::Kind::Store:
      co_await Ctx.st((*LocAddr)[O.Loc], O.Value);
      break;
    case ProgOp::Kind::Load:
      (*Regs)[O.Reg] = co_await Ctx.ld((*LocAddr)[O.Loc]);
      break;
    case ProgOp::Kind::AsyncLoad:
      (*Regs)[O.Reg] = co_await Ctx.ldAsync((*LocAddr)[O.Loc]);
      break;
    case ProgOp::Kind::AwaitLoad:
      (*Regs)[O.Reg] = co_await Ctx.awaitLoad((*Regs)[O.Reg]);
      break;
    case ProgOp::Kind::AtomicAdd:
      co_await Ctx.atomicAdd((*LocAddr)[O.Loc], O.Value);
      break;
    case ProgOp::Kind::Fence:
      co_await Ctx.fence();
      break;
    case ProgOp::Kind::OptFence:
      if (Fenced)
        co_await Ctx.fence();
      break;
    }
  }
  for (unsigned R : *Writeback)
    co_await Ctx.st(Results + R, (*Regs)[R]);
}

/// Everything the dispatch lambda needs, bundled so the KernelFn
/// captures one reference and stays within std::function's inline
/// storage (no per-run allocation).
struct RunState {
  const Program *P;
  const std::vector<std::vector<unsigned>> *Writeback;
  const std::vector<int> *ThreadAt;
  const std::vector<Addr> *LocAddr;
  Addr Results;
  unsigned BlockDim;
  bool Fenced;
  std::vector<Word> *Regs;
};

} // namespace

void LitmusRunner::rebuildPlan(const Program &P, unsigned Distance) {
  Cached.P = &P;
  Cached.Distance = Distance;
  // A distance of 0 means contiguous locations (delta 1); locations
  // never share an address.
  Cached.Delta = Distance == 0 ? 1 : Distance;

  // Per-thread register writeback lists (first-load order).
  const unsigned NumThreads = static_cast<unsigned>(P.Threads.size());
  Cached.Writeback.assign(NumThreads, {});
  for (unsigned TI = 0; TI != NumThreads; ++TI)
    for (const ProgOp &O : P.Threads[TI].Ops)
      if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
        Cached.Writeback[TI].push_back(O.Reg);

  // The lane dispatch table mapping (block, lane) to a program thread.
  Cached.GridDim = P.numBlocks();
  Cached.BlockDim = P.maxBlockThreads();
  Cached.ThreadAt.assign(
      static_cast<size_t>(Cached.GridDim) * Cached.BlockDim, -1);
  std::vector<unsigned> NextLane(Cached.GridDim, 0);
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    const unsigned B = P.Threads[TI].Block;
    Cached.ThreadAt[static_cast<size_t>(B) * Cached.BlockDim +
                    NextLane[B]++] = static_cast<int>(TI);
  }
}

bool LitmusRunner::runOnce(const Program &P, unsigned Distance,
                           const MicroStress &S, const RunOpts &Opts) {
  if (Cached.P != &P || Cached.Distance != Distance) {
    assert(P.validate().empty() && "program must be well-formed");
    rebuildPlan(P, Distance);
  }
  Rng RunRng = Master.fork(Execs);
  ++Execs;

  // Arm (or disarm) the context's recycled event recorder — or an
  // external streaming sink — before the Device resets it; either form
  // observes only, so results stay bit-identical.
  Ctx.get().requestTracing(Opts.Trace);
  Ctx.get().requestStreaming(Opts.Sink);
  sim::Device Dev(Ctx.get(), Chip, RunRng.next());
  Dev.setSequentialMode(Opts.Sequential);
  Dev.setRandomiseThreads(Opts.Randomise);

  // All locations live in one allocation, delta words apart (T_d): the
  // location list's order is the memory layout.
  const unsigned Delta = Cached.Delta;
  const unsigned NumLocs = static_cast<unsigned>(P.Locations.size());
  const Addr Base = Dev.alloc((NumLocs - 1) * Delta + 1);
  LocAddr.resize(NumLocs);
  for (unsigned L = 0; L != NumLocs; ++L)
    LocAddr[L] = Base + L * Delta;
  const unsigned NumRegs = static_cast<unsigned>(P.Registers.size());
  const Addr Results = Dev.alloc(std::max(NumRegs, 1u));
  ResultsBase = Results;
  for (unsigned L = 0; L != NumLocs; ++L)
    if (P.Init[L] != 0)
      Dev.write(LocAddr[L], P.Init[L]);

  // Scratchpad and stress; the scratchpad is a real allocation so stressed
  // locations occupy genuine banks downstream of the test locations in the
  // address space (the paper cannot control this distance either and
  // designs the stress not to depend on it).
  std::unique_ptr<stress::SysStress> Stress;
  if (S.Enabled) {
    assert(!S.ScratchOffsets.empty() && "stress without locations");
    unsigned MaxOff = 0;
    for (unsigned Off : S.ScratchOffsets)
      MaxOff = std::max(MaxOff, Off);
    const Addr Scratch = Dev.alloc(MaxOff + Chip.PatchSizeWords);
    std::vector<Addr> Locs;
    Locs.reserve(S.ScratchOffsets.size());
    for (unsigned Off : S.ScratchOffsets)
      Locs.push_back(Scratch + Off);
    const unsigned MaxThreads = Chip.maxConcurrentThreads();
    const unsigned StressThreads = static_cast<unsigned>(
        RunRng.realIn(S.OccupancyLo, S.OccupancyHi) *
        static_cast<double>(MaxThreads));
    Stress = std::make_unique<stress::SysStress>(
        Chip, S.Seq, std::move(Locs),
        stress::threadUnits(Chip, StressThreads));
    Dev.setCongestionSource(Stress.get());
  }

  Regs.assign(NumRegs, 0);
  RunState RS{&P,      &Cached.Writeback, &Cached.ThreadAt, &LocAddr,
              Results, Cached.BlockDim,   Opts.WithFences,  &Regs};
  const sim::KernelFn Fn = [&RS](ThreadContext &TC) -> Kernel {
    const int TI =
        (*RS.ThreadAt)[static_cast<size_t>(TC.blockIdx()) * RS.BlockDim +
                       TC.threadIdx()];
    if (TI < 0)
      return idleThread(TC);
    return interpretThread(TC, &RS.P->Threads[TI], RS.LocAddr, RS.Results,
                           RS.P->PhaseJitter, RS.Fenced, RS.Regs,
                           &(*RS.Writeback)[TI]);
  };

  const sim::RunResult Result =
      Dev.run({Cached.GridDim, Cached.BlockDim}, Fn);
  assert(Result.completed() && "litmus execution must terminate");
  (void)Result;

  FinalRegs.resize(NumRegs);
  for (unsigned R = 0; R != NumRegs; ++R)
    FinalRegs[R] = Dev.read(Results + R);
  FinalMem.resize(NumLocs);
  for (unsigned L = 0; L != NumLocs; ++L)
    FinalMem[L] = Dev.read(LocAddr[L]);
  return P.evalForbidden(FinalRegs, FinalMem);
}

std::string LitmusRunner::addrName(sim::Addr A) const {
  // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
  std::string S;
  if (const Program *P = Cached.P) {
    for (size_t L = 0; L != LocAddr.size(); ++L)
      if (LocAddr[L] == A)
        return P->Locations[L];
    if (A >= ResultsBase && A < ResultsBase + P->Registers.size()) {
      S = "wb(";
      S += P->Registers[A - ResultsBase];
      S += ")";
      return S;
    }
  }
  S = "a";
  S += std::to_string(A);
  return S;
}

unsigned LitmusRunner::countWeak(const Program &P, unsigned Distance,
                                 const MicroStress &S, unsigned C,
                                 const RunOpts &Opts,
                                 std::vector<Word> *Outcomes) {
  // Tracing and streaming sinks observe through the scalar engine's
  // event seam, which the batched executor does not drive: such runs take
  // the scalar path, as does everything under --engine=scalar. Results
  // and seed streams are identical either way, so callers may freely
  // interleave traced and batched runs on one runner.
  if (Opts.Trace || Opts.Sink ||
      sim::engineMode() == sim::EngineMode::Scalar) {
    if (Outcomes)
      Outcomes->clear();
    unsigned Weak = 0;
    for (unsigned I = 0; I != C; ++I) {
      Weak += runOnce(P, Distance, S, Opts);
      if (Outcomes) {
        Outcomes->insert(Outcomes->end(), FinalRegs.begin(), FinalRegs.end());
        Outcomes->insert(Outcomes->end(), FinalMem.begin(), FinalMem.end());
      }
    }
    return Weak;
  }
  return countWeakBatch(P, Distance, S, C, Opts, /*PerRun=*/nullptr,
                        Outcomes);
}

void LitmusRunner::rebuildBatchPlan(const Program &P, unsigned Distance,
                                    bool Fenced) {
  BatchPlan &B = Batched;
  B.P = &P;
  B.Distance = Distance;
  B.Fenced = Fenced;
  B.Delta = Distance == 0 ? 1 : Distance;
  B.NumLocs = static_cast<unsigned>(P.Locations.size());
  B.NumRegs = static_cast<unsigned>(P.Registers.size());

  // Bake the address layout: a freshly reset context allocates with a
  // deterministic patch-aligned bump from zero, in runOnce's order
  // (locations, writebacks, then the stress scratchpad).
  const unsigned Patch = Chip.PatchSizeWords;
  const auto AlignUp = [Patch](unsigned X) {
    return (X + Patch - 1) / Patch * Patch;
  };
  B.Base = 0;
  B.Results = AlignUp((B.NumLocs - 1) * B.Delta + 1);
  B.ScratchBase = AlignUp(B.Results + std::max(B.NumRegs, 1u));
  B.InitWrites.clear();
  for (unsigned L = 0; L != B.NumLocs; ++L)
    if (P.Init[L] != 0)
      B.InitWrites.emplace_back(B.Base + L * B.Delta, P.Init[L]);

  // Compile the flat op stream: per program thread, the start-phase
  // jitter, the ops with addresses and register slots pre-resolved (an
  // OptFence is baked in or dropped by the plan's fencing), and the
  // register writebacks in first-load order.
  sim::BatchProgram &BP = B.BP;
  BP.Ops.clear();
  BP.GridDim = P.numBlocks();
  BP.BlockDim = P.maxBlockThreads();
  BP.NumSlots = std::max(B.NumRegs, 1u);
  const unsigned NumThreads = static_cast<unsigned>(P.Threads.size());
  std::vector<sim::BatchLane> ThreadRange(NumThreads);
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    const auto Begin = static_cast<uint32_t>(BP.Ops.size());
    using Code = sim::BatchOp::Code;
    assert(P.PhaseJitter > 0 && "phase jitter bound must be positive");
    BP.Ops.push_back({Code::Jitter, 0, 0, 0, P.PhaseJitter});
    for (const ProgOp &O : P.Threads[TI].Ops) {
      const sim::Addr A = B.Base + O.Loc * B.Delta;
      const auto Slot = static_cast<uint16_t>(O.Reg);
      switch (O.K) {
      case ProgOp::Kind::Store:
        BP.Ops.push_back({Code::Store, 0, 0, A, O.Value});
        break;
      case ProgOp::Kind::Load:
        BP.Ops.push_back({Code::Load, Slot, 0, A, 0});
        break;
      case ProgOp::Kind::AsyncLoad:
        BP.Ops.push_back({Code::AsyncLoad, Slot, 0, A, 0});
        break;
      case ProgOp::Kind::AwaitLoad:
        BP.Ops.push_back({Code::AwaitLoad, Slot, 0, 0, 0});
        break;
      case ProgOp::Kind::AtomicAdd:
        BP.Ops.push_back({Code::AtomicAdd, 0, 0, A, O.Value});
        break;
      case ProgOp::Kind::Fence:
        BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
      case ProgOp::Kind::OptFence:
        if (Fenced)
          BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
      }
    }
    for (const ProgOp &O : P.Threads[TI].Ops)
      if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
        BP.Ops.push_back({Code::WbStore, static_cast<uint16_t>(O.Reg), 0,
                          B.Results + O.Reg, 0});
    ThreadRange[TI] = {Begin, static_cast<uint32_t>(BP.Ops.size())};
  }

  // The lane table; unassigned lanes stay empty (idle filler threads).
  BP.Lanes.assign(static_cast<size_t>(BP.GridDim) * BP.BlockDim, {});
  std::vector<unsigned> NextLane(BP.GridDim, 0);
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    const unsigned Blk = P.Threads[TI].Block;
    BP.Lanes[static_cast<size_t>(Blk) * BP.BlockDim + NextLane[Blk]++] =
        ThreadRange[TI];
  }
}

unsigned LitmusRunner::countWeakBatch(const Program &P, unsigned Distance,
                                      const MicroStress &S, unsigned C,
                                      const RunOpts &Opts,
                                      std::vector<uint8_t> *PerRun,
                                      std::vector<Word> *Outcomes) {
  assert(!Opts.Trace && !Opts.Sink &&
         "traced/streamed runs take the scalar path (countWeak)");
  if (PerRun)
    PerRun->clear();
  if (Outcomes)
    Outcomes->clear();
  if (C == 0)
    return 0;
  if (Batched.P != &P || Batched.Distance != Distance ||
      Batched.Fenced != Opts.WithFences) {
    assert(P.validate().empty() && "program must be well-formed");
    rebuildBatchPlan(P, Distance, Opts.WithFences);
  }
  const BatchPlan &B = Batched;

  sim::ExecutionContext &EC = Ctx.get();
  // The batched path never records events; disarm any previously armed
  // recorder/sink so reset() leaves the memory system untraced.
  EC.requestTracing(false);
  EC.requestStreaming(nullptr);
  sim::MemorySystem &Mem = EC.memory();
  sim::BatchScratch &BS = EC.batchScratch();

  sim::BatchRunConfig Cfg;
  Cfg.RandomiseThreads = Opts.Randomise;

  // One stress source serves the whole call: its locations are fixed by
  // the deterministic address layout, so only the per-run random
  // population (the RunRng occupancy draw, kept in scalar order) varies.
  std::unique_ptr<stress::SysStress> Stress;
  unsigned ScratchWords = 0, MaxThreads = 0;
  if (S.Enabled) {
    assert(!S.ScratchOffsets.empty() && "stress without locations");
    unsigned MaxOff = 0;
    std::vector<sim::Addr> Locs;
    Locs.reserve(S.ScratchOffsets.size());
    for (unsigned Off : S.ScratchOffsets) {
      MaxOff = std::max(MaxOff, Off);
      Locs.push_back(B.ScratchBase + Off);
    }
    ScratchWords = MaxOff + Chip.PatchSizeWords;
    MaxThreads = Chip.maxConcurrentThreads();
    Stress = std::make_unique<stress::SysStress>(Chip, S.Seq,
                                                 std::move(Locs), 0.0);
  }

  const unsigned NumSlots = B.BP.NumSlots;
  const unsigned RegStride = std::max(B.NumRegs, 1u);
  const unsigned MemStride = std::max(B.NumLocs, 1u);
  const unsigned K = batchWidth();
  unsigned Weak = 0;
  if (PerRun)
    PerRun->reserve(C);
  if (Outcomes)
    Outcomes->reserve(static_cast<size_t>(C) * (B.NumRegs + B.NumLocs));

  for (unsigned Done = 0; Done != C;) {
    const unsigned N = std::min(K, C - Done);
    // One SoA slab per batch; register slots need no per-run clearing
    // beyond this (Program::validate guarantees every slot is written —
    // by its load or async ticket — before any op reads it).
    BS.RegSlab.assign(static_cast<size_t>(N) * NumSlots, 0);
    BS.FinalRegSlab.resize(static_cast<size_t>(N) * RegStride);
    BS.FinalMemSlab.resize(static_cast<size_t>(N) * MemStride);

    for (unsigned J = 0; J != N; ++J, ++Done) {
      // Per-run draw order is exactly runOnce's: fork the run stream,
      // seed the context, then (when stressed) draw the occupancy.
      Rng RunRng = Master.fork(Execs);
      ++Execs;
      EC.reset(Chip, RunRng.next());
      Mem.setSequentialMode(Opts.Sequential);

      const sim::Addr Base = Mem.alloc((B.NumLocs - 1) * B.Delta + 1);
      const sim::Addr Results = Mem.alloc(std::max(B.NumRegs, 1u));
      assert(Base == B.Base && Results == B.Results &&
             "allocation layout diverged from the compiled plan");
      (void)Base;
      (void)Results;
      for (const auto &[A, V] : B.InitWrites)
        Mem.hostWrite(A, V);
      if (S.Enabled) {
        const sim::Addr Scratch = Mem.alloc(ScratchWords);
        assert(Scratch == B.ScratchBase && "scratch layout diverged");
        (void)Scratch;
        const unsigned StressThreads = static_cast<unsigned>(
            RunRng.realIn(S.OccupancyLo, S.OccupancyHi) *
            static_cast<double>(MaxThreads));
        Stress->setUnits(stress::threadUnits(Chip, StressThreads));
        Mem.setCongestionSource(Stress.get());
      }

      Word *Regs = BS.RegSlab.data() + static_cast<size_t>(J) * NumSlots;
      const sim::RunResult Result =
          sim::runBatchProgram(B.BP, Chip, Mem, EC.rng(), BS, Regs, Cfg);
      assert(Result.completed() && "litmus execution must terminate");
      (void)Result;

      Word *FR = BS.FinalRegSlab.data() + static_cast<size_t>(J) * RegStride;
      Word *FM = BS.FinalMemSlab.data() + static_cast<size_t>(J) * MemStride;
      for (unsigned R = 0; R != B.NumRegs; ++R)
        FR[R] = Mem.hostRead(B.Results + R);
      for (unsigned L = 0; L != B.NumLocs; ++L)
        FM[L] = Mem.hostRead(B.Base + L * B.Delta);

      // evalForbidden over the slab stripes (conjunction; empty = never).
      bool IsWeak = !P.Forbidden.empty();
      for (const CondAtom &A : P.Forbidden) {
        const Word V = A.IsReg ? FR[A.Index] : FM[A.Index];
        if ((V == A.Value) == A.Negated) {
          IsWeak = false;
          break;
        }
      }
      Weak += IsWeak;
      if (PerRun)
        PerRun->push_back(IsWeak);
      if (Outcomes) {
        Outcomes->insert(Outcomes->end(), FR, FR + B.NumRegs);
        Outcomes->insert(Outcomes->end(), FM, FM + B.NumLocs);
      }
    }
  }
  return Weak;
}
