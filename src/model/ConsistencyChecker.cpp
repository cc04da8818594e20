//===- model/ConsistencyChecker.cpp - Axiomatic consistency oracle -----------===//
//
// Replays a recorded event trace against the memory model's axioms and
// classifies the execution by acyclicity of po ∪ rf ∪ co ∪ fr. The replay
// never consults the operational simulator: provenance (which write a load
// read) is reconstructed purely from trace order and the load's declared
// source, which is what makes the checker an *independent* oracle.
//
//===----------------------------------------------------------------------===//

#include "model/ConsistencyChecker.h"

#include <deque>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace gpuwmm;
using namespace gpuwmm::model;
using sim::Addr;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;
using sim::Word;

const char *model::edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::Po: return "po";
  case EdgeKind::Rf: return "rf";
  case EdgeKind::Co: return "co";
  case EdgeKind::Fr: return "fr";
  }
  return "?";
}

namespace {

constexpr uint32_t NoWrite = static_cast<uint32_t>(-1); ///< Initial state.

const char *sourceName(LoadSource S) {
  switch (S) {
  case LoadSource::Memory:            return "memory";
  case LoadSource::Forward:           return "store-buffer forward";
  case LoadSource::Overlay:           return "block overlay";
  case LoadSource::MemorySuperseded:  return "memory (forward superseded)";
  case LoadSource::OverlaySuperseded: return "overlay (forward superseded)";
  }
  return "?";
}

/// One thread's un-drained buffered store on one bank.
struct PendingStore {
  uint32_t Issue; ///< StoreIssue event index.
  uint64_t Id;
  Addr A;
  Word V;
};

/// One live block-visible value.
struct OverlayEnt {
  unsigned Block;
  uint64_t Id;
  uint32_t Issue;
  Word V;
};

/// One read access awaiting the causality pass.
struct ReadAccess {
  uint32_t Node;   ///< Its program-order event (LoadBind/AsyncIssue/Atomic).
  uint32_t RfWrite; ///< Writer node, or NoWrite for the initial state.
  Addr A;
  bool WroteToo;   ///< Atomic that also wrote (fr to itself is skipped).
};

uint64_t tidBankKey(unsigned Tid, unsigned Bank) {
  return (static_cast<uint64_t>(Tid) << 32) | Bank;
}

} // namespace

/// The replay pass's working containers, recycled across check() calls
/// (clear() keeps hash buckets and vector capacity).
struct ConsistencyChecker::ReplayScratch {
  std::unordered_map<uint64_t, std::deque<PendingStore>> Pending;
  std::unordered_map<unsigned, unsigned> PendingByTid;
  std::unordered_map<uint64_t, unsigned> AsyncByTidBank;
  std::unordered_map<unsigned, unsigned> AsyncByTid;
  std::unordered_map<uint64_t, uint32_t> AsyncIssueAt; ///< ticket -> event.
  std::unordered_map<Addr, uint32_t> Visible;          ///< Writer node.
  std::unordered_map<Addr, Word> GlobalVal;
  std::unordered_map<Addr, uint64_t> PlainMaxId;       ///< MemWriteId mirror.
  std::unordered_map<Addr, std::vector<OverlayEnt>> Overlay;
  std::unordered_set<uint64_t> PromotedIds;
  std::unordered_map<Addr, std::vector<uint32_t>> Co;
  std::unordered_map<unsigned, uint32_t> LastPo;
  std::vector<ReadAccess> Reads;
  std::unordered_map<uint32_t, std::pair<Addr, uint32_t>> WritePos;

  void clear() {
    Pending.clear();
    PendingByTid.clear();
    AsyncByTidBank.clear();
    AsyncByTid.clear();
    AsyncIssueAt.clear();
    Visible.clear();
    GlobalVal.clear();
    PlainMaxId.clear();
    Overlay.clear();
    PromotedIds.clear();
    Co.clear();
    LastPo.clear();
    Reads.clear();
    WritePos.clear();
  }
};

ConsistencyChecker::ConsistencyChecker()
    : ScratchPtr(std::make_unique<ReplayScratch>()) {}
ConsistencyChecker::~ConsistencyChecker() = default;

CheckResult ConsistencyChecker::check(const std::vector<TraceEvent> &Events) {
  CheckResult R;
  const auto Violate = [&](const std::string &Msg, size_t A, size_t B) {
    if (!R.AxiomsOk)
      return;
    R.AxiomsOk = false;
    R.AxiomViolation = Msg;
    R.ViolatingA = A;
    R.ViolatingB = B;
  };

  // --- Replay pass: axioms + provenance reconstruction ---------------------
  // Recycled across check() calls (clear() keeps hash buckets and vector
  // capacity): shrink candidates and sampled campaign runs check traces by
  // the thousands on one instance.
  ReplayScratch &S = *ScratchPtr;
  S.clear();
  auto &Pending = S.Pending;
  auto &PendingByTid = S.PendingByTid;
  auto &AsyncByTidBank = S.AsyncByTidBank;
  auto &AsyncByTid = S.AsyncByTid;
  auto &AsyncIssueAt = S.AsyncIssueAt;
  auto &Visible = S.Visible;
  auto &GlobalVal = S.GlobalVal;
  auto &PlainMaxId = S.PlainMaxId;
  auto &Overlay = S.Overlay;
  auto &PromotedIds = S.PromotedIds;
  auto &Co = S.Co;
  auto &LastPo = S.LastPo;
  auto &Reads = S.Reads;

  const uint32_t N = static_cast<uint32_t>(Events.size());
  if (Edges.size() < N)
    Edges.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    Edges[I].clear();

  const auto visibleWriter = [&](Addr A) {
    const auto It = Visible.find(A);
    return It == Visible.end() ? NoWrite : It->second;
  };
  const auto globalValue = [&](Addr A) {
    const auto It = GlobalVal.find(A);
    return It == GlobalVal.end() ? Word{0} : It->second;
  };
  const auto plainMaxId = [&](Addr A) {
    const auto It = PlainMaxId.find(A);
    return It == PlainMaxId.end() ? uint64_t{0} : It->second;
  };
  const auto overlayFor = [&](unsigned Block, Addr A) -> OverlayEnt * {
    const auto It = Overlay.find(A);
    if (It == Overlay.end())
      return nullptr;
    for (OverlayEnt &E : It->second)
      if (E.Block == Block)
        return &E;
    return nullptr;
  };
  const auto newestPendingTo = [&](uint64_t Key, Addr A) -> PendingStore * {
    const auto It = Pending.find(Key);
    if (It == Pending.end())
      return nullptr;
    for (auto RIt = It->second.rbegin(); RIt != It->second.rend(); ++RIt)
      if (RIt->A == A)
        return &*RIt;
    return nullptr;
  };
  const auto addPo = [&](unsigned Tid, uint32_t I) {
    const auto It = LastPo.find(Tid);
    if (It != LastPo.end())
      Edges[It->second].emplace_back(I, EdgeKind::Po);
    LastPo[Tid] = I;
  };

  for (uint32_t I = 0; I != N && R.AxiomsOk; ++I) {
    const TraceEvent &E = Events[I];
    const uint64_t Key = tidBankKey(E.Tid, E.Bank);
    switch (E.Kind) {
    case TraceEventKind::StoreIssue: {
      if (AsyncByTidBank[Key] != 0)
        Violate("same-bank issue order: store issued while a split-phase "
                "load is pending on its bank",
                I, I);
      Pending[Key].push_back({I, E.Id, E.A, E.V});
      ++PendingByTid[E.Tid];
      addPo(E.Tid, I);
      break;
    }
    case TraceEventKind::StoreDrain: {
      auto &Q = Pending[Key];
      if (Q.empty() || Q.front().Id != E.Id) {
        Violate("same-bank FIFO: a store drained out of its bank's issue "
                "order",
                Q.empty() ? I : Q.front().Issue, I);
        break;
      }
      const uint32_t Issue = Q.front().Issue;
      Q.pop_front();
      --PendingByTid[E.Tid];
      const bool ShouldApply = E.Id >= plainMaxId(E.A);
      if (E.Flag != ShouldApply) {
        Violate("coherence-per-location: a drain was applied/dropped "
                "against the per-address store order",
                Issue, I);
        break;
      }
      const bool WasPromoted = PromotedIds.count(E.Id) != 0;
      if (WasPromoted) {
        // The drain retires exactly its own block-visible value.
        auto It = Overlay.find(E.A);
        if (It != Overlay.end())
          for (size_t K = 0; K != It->second.size(); ++K)
            if (It->second[K].Id == E.Id) {
              It->second.erase(It->second.begin() +
                               static_cast<ptrdiff_t>(K));
              break;
            }
      }
      if (E.Flag) {
        GlobalVal[E.A] = E.V;
        Visible[E.A] = Issue;
        PlainMaxId[E.A] = E.Id;
        Co[E.A].push_back(Issue);
        // A write that reaches globally visible memory through the plain
        // path invalidates every block-visible value for the address.
        if (!WasPromoted)
          Overlay.erase(E.A);
      } else {
        // A coherence-dropped write never became visible, but it still has
        // a coherence position: just before the earliest applied plain
        // write with a newer store id. Applied plain writes appear in
        // increasing id order, so scanning back from the end finds it;
        // atomics carry no id and are scanned past, since stopping at one
        // would wedge the write between that atomic and a later atomic
        // reading from it (a false co;fr cycle).
        auto &Order = Co[E.A];
        size_t Pos = Order.size();
        for (size_t K = Order.size(); K != 0; --K) {
          const TraceEvent &W = Events[Order[K - 1]];
          const bool Plain = W.Kind == TraceEventKind::StoreIssue ||
                             W.Kind == TraceEventKind::HostWrite;
          if (!Plain)
            continue;
          if (W.Id < E.Id)
            break;
          Pos = K - 1;
        }
        Order.insert(Order.begin() + static_cast<ptrdiff_t>(Pos), Issue);
      }
      break;
    }
    case TraceEventKind::LoadBind: {
      const PendingStore *Newest = newestPendingTo(Key, E.A);
      const OverlayEnt *OV = overlayFor(E.Block, E.A);
      uint32_t Rf = NoWrite;
      switch (E.Source) {
      case LoadSource::Memory: {
        const auto It = Pending.find(Key);
        if (It != Pending.end() && !It->second.empty())
          Violate("self-coherence: a load bound from memory while the "
                  "thread still buffered stores on the load's bank",
                  It->second.front().Issue, I);
        else if (OV)
          Violate("forwarding: a load bound from memory past a live "
                  "block-visible value",
                  OV->Issue, I);
        else if (E.V != globalValue(E.A))
          Violate("read-value: a load bound a value no write produced",
                  visibleWriter(E.A) == NoWrite ? I : visibleWriter(E.A), I);
        Rf = visibleWriter(E.A);
        break;
      }
      case LoadSource::Forward: {
        if (!Newest)
          Violate("forwarding: a load forwarded with no buffered store to "
                  "its address",
                  I, I);
        else if (E.V != Newest->V)
          Violate("forwarding: a load forwarded a value its newest "
                  "buffered store did not write",
                  Newest->Issue, I);
        else if (plainMaxId(E.A) > Newest->Id)
          Violate("coherence-per-location: a load forwarded a store that "
                  "newer globally visible writes supersede",
                  Newest->Issue, I);
        else if (OV && OV->Id > Newest->Id)
          Violate("coherence-per-location: a load forwarded a store that "
                  "a newer block-visible value supersedes",
                  Newest->Issue, I);
        if (Newest)
          Rf = Newest->Issue;
        break;
      }
      case LoadSource::MemorySuperseded: {
        if (!Newest || plainMaxId(E.A) <= Newest->Id)
          Violate("coherence-per-location: a superseded-forward load "
                  "without a superseding write",
                  I, I);
        else if (E.V != globalValue(E.A))
          Violate("read-value: a superseded-forward load bound a value "
                  "memory does not hold",
                  visibleWriter(E.A) == NoWrite ? I : visibleWriter(E.A), I);
        Rf = visibleWriter(E.A);
        break;
      }
      case LoadSource::OverlaySuperseded: {
        if (!Newest || !OV || OV->Id <= Newest->Id)
          Violate("coherence-per-location: a superseded-forward load "
                  "without a newer block-visible value",
                  I, I);
        else if (E.V != OV->V)
          Violate("read-value: a superseded-forward load bound a value "
                  "the block overlay does not hold",
                  OV->Issue, I);
        if (OV)
          Rf = OV->Issue;
        break;
      }
      case LoadSource::Overlay: {
        const auto It = Pending.find(Key);
        if (It != Pending.end() && !It->second.empty())
          Violate("self-coherence: a load bound from the block overlay "
                  "while the thread still buffered stores on the bank",
                  It->second.front().Issue, I);
        else if (!OV)
          Violate("forwarding: a load bound from the block overlay with no "
                  "live value for its block",
                  I, I);
        else if (E.V != OV->V)
          Violate("read-value: a load bound a value the block overlay does "
                  "not hold",
                  OV->Issue, I);
        if (OV)
          Rf = OV->Issue;
        break;
      }
      }
      Reads.push_back({I, Rf, E.A, /*WroteToo=*/false});
      addPo(E.Tid, I);
      break;
    }
    case TraceEventKind::AsyncIssue: {
      AsyncIssueAt[E.Id] = I;
      ++AsyncByTidBank[Key];
      ++AsyncByTid[E.Tid];
      addPo(E.Tid, I);
      break;
    }
    case TraceEventKind::AsyncBind: {
      const auto It = AsyncIssueAt.find(E.Id);
      if (It == AsyncIssueAt.end()) {
        Violate("causality: a split-phase load completed without an issue",
                I, I);
        break;
      }
      --AsyncByTidBank[Key];
      --AsyncByTid[E.Tid];
      if (E.V != globalValue(E.A))
        Violate("read-value: a split-phase load bound a value memory does "
                "not hold",
                visibleWriter(E.A) == NoWrite ? I : visibleWriter(E.A), I);
      // The read's program-order point is the issue; the binding write is
      // whatever is visible now.
      Reads.push_back({It->second, visibleWriter(E.A), E.A,
                       /*WroteToo=*/false});
      AsyncIssueAt.erase(It);
      break;
    }
    case TraceEventKind::Atomic: {
      const auto It = Pending.find(Key);
      if (It != Pending.end() && !It->second.empty())
        Violate("self-coherence: an atomic executed while the thread still "
                "buffered stores on its bank",
                It->second.front().Issue, I);
      else if (AsyncByTidBank[Key] != 0)
        Violate("same-bank issue order: an atomic executed while a "
                "split-phase load is pending on its bank",
                I, I);
      else if (static_cast<Word>(E.Id) != globalValue(E.A))
        Violate("read-value: an atomic read a value memory does not hold",
                visibleWriter(E.A) == NoWrite ? I : visibleWriter(E.A), I);
      Reads.push_back({I, visibleWriter(E.A), E.A, /*WroteToo=*/E.Flag});
      if (E.Flag) {
        GlobalVal[E.A] = E.V;
        Visible[E.A] = I;
        Co[E.A].push_back(I);
        Overlay.erase(E.A); // Atomics invalidate block-visible values.
      }
      addPo(E.Tid, I);
      break;
    }
    case TraceEventKind::FenceDevice: {
      if (PendingByTid[E.Tid] != 0)
        Violate("fence-drain: a device fence completed with the thread's "
                "stores still buffered",
                I, I);
      else if (AsyncByTid[E.Tid] != 0)
        Violate("fence-drain: a device fence completed with the thread's "
                "split-phase loads still pending",
                I, I);
      break;
    }
    case TraceEventKind::StorePromote: {
      PromotedIds.insert(E.Id);
      const PendingStore *P = nullptr;
      const auto It = Pending.find(Key);
      if (It != Pending.end())
        for (const PendingStore &PS : It->second)
          if (PS.Id == E.Id)
            P = &PS;
      if (!P) {
        Violate("forwarding: a block fence promoted a store that is not "
                "buffered",
                I, I);
        break;
      }
      OverlayEnt *OV = overlayFor(E.Block, E.A);
      if (!OV)
        Overlay[E.A].push_back({E.Block, E.Id, P->Issue, E.V});
      else if (OV->Id < E.Id)
        *OV = {E.Block, E.Id, P->Issue, E.V};
      break;
    }
    case TraceEventKind::FenceBlock:
    case TraceEventKind::BarrierRelease:
      break;
    case TraceEventKind::HostWrite: {
      GlobalVal[E.A] = E.V;
      Visible[E.A] = I;
      PlainMaxId[E.A] = E.Id;
      Co[E.A].push_back(I);
      break;
    }
    }
  }

  if (R.AxiomsOk) {
    // End-of-run axioms: the kernel boundary drained everything.
    for (const auto &KV : PendingByTid)
      if (KV.second != 0)
        Violate("fence-drain: stores were still buffered at the end of the "
                "run (the kernel boundary must drain them)",
                N ? N - 1 : 0, N ? N - 1 : 0);
    for (const auto &KV : AsyncByTid)
      if (KV.second != 0)
        Violate("fence-drain: split-phase loads were still pending at the "
                "end of the run",
                N ? N - 1 : 0, N ? N - 1 : 0);
  }
  if (!R.AxiomsOk)
    return R;

  // --- Causality pass: acyclicity of po ∪ rf ∪ co ∪ fr ---------------------
  auto &WritePos = S.WritePos;
  for (const auto &[A, Order] : Co) {
    for (uint32_t K = 0; K != Order.size(); ++K) {
      WritePos[Order[K]] = {A, K};
      if (K + 1 != Order.size())
        Edges[Order[K]].emplace_back(Order[K + 1], EdgeKind::Co);
    }
  }
  for (const ReadAccess &Rd : Reads) {
    uint32_t FrTarget = NoWrite;
    if (Rd.RfWrite == NoWrite) {
      const auto It = Co.find(Rd.A);
      if (It != Co.end() && !It->second.empty())
        FrTarget = It->second.front();
    } else {
      Edges[Rd.RfWrite].emplace_back(Rd.Node, EdgeKind::Rf);
      const auto &[A, K] = WritePos.at(Rd.RfWrite);
      const auto &Order = Co.at(A);
      if (K + 1 != Order.size())
        FrTarget = Order[K + 1];
    }
    // An atomic's fr successor of its own read is itself; skip self-loops.
    if (FrTarget != NoWrite && FrTarget != Rd.Node)
      Edges[Rd.Node].emplace_back(FrTarget, EdgeKind::Fr);
  }

  // Iterative DFS; a back edge into the stack is a cycle.
  if (Color.size() < N)
    Color.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    Color[I] = 0;
  struct Frame {
    uint32_t Node;
    uint32_t Edge;
  };
  std::vector<Frame> Stack;
  for (uint32_t Start = 0; Start != N && R.Sc; ++Start) {
    if (Color[Start] != 0 || Edges[Start].empty())
      continue;
    Stack.clear();
    Stack.push_back({Start, 0});
    Color[Start] = 1;
    while (!Stack.empty() && R.Sc) {
      Frame &F = Stack.back();
      if (F.Edge == Edges[F.Node].size()) {
        Color[F.Node] = 2;
        Stack.pop_back();
        continue;
      }
      const auto [To, Kind] = Edges[F.Node][F.Edge++];
      if (Color[To] == 1) {
        // Found: the cycle is the stack suffix starting at To.
        R.Sc = false;
        size_t Base = Stack.size();
        while (Base != 0 && Stack[Base - 1].Node != To)
          --Base;
        --Base;
        for (size_t K = Base; K != Stack.size(); ++K) {
          const Frame &CF = Stack[K];
          R.Cycle.emplace_back(CF.Node, Edges[CF.Node][CF.Edge - 1].second);
        }
        break;
      }
      if (Color[To] == 0) {
        Color[To] = 1;
        Stack.push_back({To, 0});
      }
    }
  }
  if (!R.Sc && !R.Cycle.empty()) {
    // The decisive pair: the first fr edge of the cycle (the read that
    // observed the past), else the first edge.
    size_t Pick = 0;
    for (size_t K = 0; K != R.Cycle.size(); ++K)
      if (R.Cycle[K].second == EdgeKind::Fr) {
        Pick = K;
        break;
      }
    R.ViolatingA = R.Cycle[Pick].first;
    R.ViolatingB = R.Cycle[(Pick + 1) % R.Cycle.size()].first;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string model::describeEvent(const TraceEvent &E, size_t I,
                                 const AddrNamer &Namer) {
  std::ostringstream OS;
  const auto Name = [&](Addr A) {
    if (Namer)
      return Namer(A);
    // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
    std::string S = "a";
    S += std::to_string(A);
    return S;
  };
  OS << "[e" << I << " t" << E.Tid << " tick " << E.Tick << "] "
     << traceEventKindName(E.Kind);
  switch (E.Kind) {
  case TraceEventKind::StoreIssue:
  case TraceEventKind::StoreDrain:
  case TraceEventKind::StorePromote:
  case TraceEventKind::HostWrite:
    OS << " " << Name(E.A) << " = " << E.V << " (id " << E.Id << ")";
    if (E.Kind == TraceEventKind::StoreDrain && !E.Flag)
      OS << " [coherence-dropped]";
    break;
  case TraceEventKind::LoadBind:
    OS << " " << Name(E.A) << " = " << E.V << " (from " << sourceName(E.Source)
       << ")";
    break;
  case TraceEventKind::AsyncIssue:
    OS << " " << Name(E.A) << " (ticket " << E.Id << ")";
    break;
  case TraceEventKind::AsyncBind:
    OS << " " << Name(E.A) << " = " << E.V << " (ticket " << E.Id << ")";
    break;
  case TraceEventKind::Atomic:
    OS << " " << Name(E.A) << ": " << E.Id << " -> " << E.V
       << (E.Flag ? "" : " [read-only]");
    break;
  case TraceEventKind::FenceDevice:
  case TraceEventKind::FenceBlock:
    break;
  case TraceEventKind::BarrierRelease:
    OS << " block " << E.Block;
    break;
  }
  return OS.str();
}

std::string model::describeEvent(const std::vector<TraceEvent> &Events,
                                 size_t I, const AddrNamer &Namer) {
  if (I >= Events.size())
    return "<no event>";
  return describeEvent(Events[I], I, Namer);
}

std::string model::renderExplanation(const std::vector<TraceEvent> &Events,
                                     const CheckResult &R,
                                     const AddrNamer &Namer) {
  std::ostringstream OS;
  if (!R.AxiomsOk) {
    OS << "axiom violation: " << R.AxiomViolation << "\n";
    if (R.ViolatingA != static_cast<size_t>(-1))
      OS << "  " << describeEvent(Events, R.ViolatingA, Namer) << "\n";
    if (R.ViolatingB != static_cast<size_t>(-1) &&
        R.ViolatingB != R.ViolatingA)
      OS << "  " << describeEvent(Events, R.ViolatingB, Namer) << "\n";
    return OS.str();
  }
  if (R.Sc) {
    OS << "sequentially consistent: po ∪ rf ∪ co ∪ fr is acyclic\n";
    return OS.str();
  }
  OS << "weak: po ∪ rf ∪ co ∪ fr has a cycle of length " << R.Cycle.size()
     << "\n";
  for (size_t K = 0; K != R.Cycle.size(); ++K) {
    OS << "  " << describeEvent(Events, R.Cycle[K].first, Namer) << "\n"
       << "    --" << edgeKindName(R.Cycle[K].second) << "--> ";
    if (K + 1 == R.Cycle.size())
      OS << "(back to e" << R.Cycle[0].first << ")";
    OS << "\n";
  }
  return OS.str();
}
