//===- model/StreamingChecker.cpp - Online consistency oracle ----------------===//
//
// The axiomatic checker as an incremental trace consumer. The replay
// axioms are the same forward scan ConsistencyChecker.cpp performs — the
// logic is ported statement for statement so the first violation (message
// and violating event indices) is identical by construction. The
// causality relation is maintained as a live graph with incremental cycle
// detection and frontier-bounded retirement (DESIGN.md Sec. 15).
//
// Retirement soundness leans on one engine invariant: store ids
// (NextStoreId, shared with host writes) are monotonic in issue order, so
// once no store to an address is buffered, every later coherence
// insertion lands at the end of the retained window — the pruned prefix
// can never be spliced into again.
//
//===----------------------------------------------------------------------===//

#include "model/StreamingChecker.h"

#include <algorithm>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::model;
using sim::Addr;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;
using sim::Word;

namespace {

constexpr uint64_t NoNode = static_cast<uint64_t>(-1); ///< Initial state.

/// Why a live graph node cannot retire yet (a bitmask; zero = retirable).
enum : uint8_t {
  PinPoLast = 1,         ///< Its thread's latest program-order event.
  PinPendingStore = 2,   ///< A buffered (undrained) store issue.
  PinPendingAsync = 4,   ///< A split-phase load awaiting its bind.
  PinCoWindow = 8,       ///< In an address's live coherence window.
  PinWatchedReader = 16, ///< A read whose fr target can still change.
  PinVisible = 32,       ///< An address's current visible writer (rf source).
};

uint64_t tidBankKey(unsigned Tid, unsigned Bank) {
  return (static_cast<uint64_t>(Tid) << 32) | Bank;
}

/// Latches the first axiom violation (same message and indices the
/// post-hoc checker would report), keeping event copies for rendering.
void violate(StreamVerdict &R, const char *Msg, size_t A, size_t B,
             const TraceEvent *EvA, const TraceEvent *EvB) {
  if (!R.AxiomsOk)
    return;
  R.AxiomsOk = false;
  R.AxiomViolation = Msg;
  R.ViolatingA = A;
  R.ViolatingB = B;
  if (EvA)
    R.EventA = *EvA;
  if (EvB)
    R.EventB = *EvB;
}

void eraseTarget(std::vector<std::pair<uint64_t, EdgeKind>> &Out,
                 uint64_t To) {
  for (size_t K = 0; K != Out.size(); ++K)
    if (Out[K].first == To) {
      Out.erase(Out.begin() + static_cast<ptrdiff_t>(K));
      return;
    }
}

void eraseSource(std::vector<uint64_t> &In, uint64_t From) {
  for (size_t K = 0; K != In.size(); ++K)
    if (In[K] == From) {
      In.erase(In.begin() + static_cast<ptrdiff_t>(K));
      return;
    }
}

bool hasTarget(const std::vector<std::pair<uint64_t, EdgeKind>> &Out,
               uint64_t To) {
  for (const auto &[T, K] : Out)
    if (T == To)
      return true;
  return false;
}

} // namespace

/// All incremental state, recycled across begin() calls (clear() keeps
/// hash buckets and vector capacity). Namespace scope — not nested in the
/// checker — so the file-local graph helper can name it.
struct gpuwmm::model::detail::StreamingCheckerState {
  // --- Replay-axiom state (mirrors ConsistencyChecker's ReplayScratch) ----
  /// One thread's un-drained buffered store on one bank, with a copy of
  /// its issue event (explanations render without the trace).
  struct PendingStore {
    uint64_t Node; ///< Global index of the StoreIssue event.
    uint64_t Id;
    Addr A;
    Word V;
    TraceEvent Ev;
  };
  /// One live block-visible value.
  struct OverlayEnt {
    unsigned Block;
    uint64_t Id;
    uint64_t Node;
    Word V;
    TraceEvent Ev;
  };
  /// A pending split-phase load: its issue node and event copy.
  struct AsyncIssueEnt {
    uint64_t Node;
    TraceEvent Ev;
  };
  std::unordered_map<uint64_t, std::deque<PendingStore>> Pending;
  std::unordered_map<unsigned, unsigned> PendingByTid;
  std::unordered_map<uint64_t, unsigned> AsyncByTidBank;
  std::unordered_map<unsigned, unsigned> AsyncByTid;
  std::unordered_map<uint64_t, AsyncIssueEnt> AsyncIssueAt; ///< By ticket.
  std::unordered_map<Addr, std::vector<OverlayEnt>> Overlay;
  std::unordered_set<uint64_t> PromotedIds;

  // --- Per-address coherence state ----------------------------------------
  /// One write in the live coherence window.
  struct CoEnt {
    uint64_t Node;
    uint64_t Id;
    bool Plain; ///< Carries a store id (StoreIssue/HostWrite, not Atomic).
    std::vector<uint64_t> Readers; ///< Watched readers of this write.
  };
  struct AddrState {
    // Axiom-side (always maintained).
    Word Val = 0;                  ///< Globally visible value.
    uint64_t PlainMax = 0;         ///< MemWriteId mirror.
    uint64_t VisibleNode = NoNode; ///< Writer of Val (its issue node).
    TraceEvent VisibleEv;          ///< Copy of that writer's event.
    // Graph-side (idle once a cycle is found).
    unsigned PendingStores = 0;        ///< Buffered stores to this address.
    std::vector<CoEnt> Co;             ///< Live coherence window.
    std::vector<uint64_t> InitReaders; ///< Watched initial-state readers.
  };
  std::unordered_map<Addr, AddrState> Addrs;

  // --- Live causality graph -----------------------------------------------
  struct GNode {
    TraceEvent Ev;
    std::vector<std::pair<uint64_t, EdgeKind>> Out;
    std::vector<uint64_t> In;
    uint8_t Pins = 0;
    uint64_t Stamp = 0; ///< DFS visitation stamp.
  };
  std::unordered_map<uint64_t, GNode> Live;
  /// Readers registered on a still-pending store (not yet in co), keyed by
  /// its issue node; transferred to the CoEnt when the store drains.
  std::unordered_map<uint64_t, std::vector<uint64_t>> PendingReaders;
  std::unordered_map<unsigned, uint64_t> LastPo;
  uint64_t DfsStamp = 0;
  bool GraphDead = false; ///< Cycle found: graph dropped, axioms continue.
  bool Done = false;      ///< Axiom violated: remaining events are skipped.

  TraceEvent LastEv; ///< Copy of the most recent event (end-of-run anchor).

  struct Frame {
    uint64_t Node;
    uint32_t Edge;
  };
  std::vector<Frame> Stack; ///< DFS scratch.

  void clear() {
    Pending.clear();
    PendingByTid.clear();
    AsyncByTidBank.clear();
    AsyncByTid.clear();
    AsyncIssueAt.clear();
    Overlay.clear();
    PromotedIds.clear();
    Addrs.clear();
    Live.clear();
    PendingReaders.clear();
    LastPo.clear();
    DfsStamp = 0;
    GraphDead = false;
    Done = false;
    LastEv = TraceEvent();
    Stack.clear();
  }

  GNode *node(uint64_t I) {
    const auto It = Live.find(I);
    return It == Live.end() ? nullptr : &It->second;
  }
};

namespace {

using State = gpuwmm::model::detail::StreamingCheckerState;

/// The graph half of the checker: po ∪ rf ∪ co ∪ fr maintenance, pins,
/// retirement, incremental cycle detection. Holds references for one
/// event's worth of work.
struct Graph {
  State &S;
  StreamVerdict &R;
  size_t &PeakLive;
  uint64_t &Retired;

  using GNode = State::GNode;
  using AddrState = State::AddrState;
  using CoEnt = State::CoEnt;

  void makeNode(uint64_t I, const TraceEvent &E) {
    if (S.GraphDead)
      return;
    S.Live[I].Ev = E;
    PeakLive = std::max(PeakLive, S.Live.size());
  }

  void pin(uint64_t I, uint8_t Bit) {
    if (S.GraphDead)
      return;
    if (GNode *N = S.node(I))
      N->Pins |= Bit;
  }

  void unpin(uint64_t I, uint8_t Bit) {
    if (S.GraphDead)
      return;
    GNode *N = S.node(I);
    if (!N)
      return;
    N->Pins &= static_cast<uint8_t>(~Bit);
    if (N->Pins == 0)
      retire(I, *N);
  }

  /// Splices the node out: every in-neighbor gains shortcut edges to every
  /// out-neighbor, so reachability among live nodes — and therefore cycle
  /// detection — is preserved exactly. A shortcut cannot create a cycle
  /// (the two-edge path already existed), so no search is needed.
  void retire(uint64_t I, GNode &N) {
    // Detach from neighbors first so the splice sees clean lists.
    for (uint64_t F : N.In)
      if (GNode *FN = S.node(F))
        eraseTarget(FN->Out, I);
    for (const auto &[T, K] : N.Out)
      if (GNode *TN = S.node(T))
        eraseSource(TN->In, I);
    for (uint64_t F : N.In) {
      GNode *FN = S.node(F);
      if (!FN)
        continue;
      for (const auto &[T, K] : N.Out) {
        if (T == F)
          continue;
        GNode *TN = S.node(T);
        if (!TN || hasTarget(FN->Out, T))
          continue;
        FN->Out.emplace_back(T, K);
        TN->In.push_back(F);
      }
    }
    S.Live.erase(I);
    ++Retired;
  }

  /// Inserts From --K--> To and searches for a return path To ->* From; a
  /// hit is the first po ∪ rf ∪ co ∪ fr cycle, reported at the event that
  /// closed it.
  void addEdge(uint64_t From, uint64_t To, EdgeKind K) {
    if (S.GraphDead || From == To)
      return;
    GNode *FN = S.node(From);
    GNode *TN = S.node(To);
    if (!FN || !TN)
      return;
    if (hasTarget(FN->Out, To))
      return;
    FN->Out.emplace_back(To, K);
    TN->In.push_back(From);

    ++S.DfsStamp;
    S.Stack.clear();
    S.Stack.push_back({To, 0});
    TN->Stamp = S.DfsStamp;
    while (!S.Stack.empty()) {
      State::Frame &F = S.Stack.back();
      GNode &FNode = *S.node(F.Node);
      if (F.Edge == FNode.Out.size()) {
        S.Stack.pop_back();
        continue;
      }
      const uint64_t T = FNode.Out[F.Edge].first;
      ++F.Edge;
      if (T == From) {
        foundCycle(From, K);
        return;
      }
      GNode &TNode = *S.node(T);
      if (TNode.Stamp != S.DfsStamp) {
        TNode.Stamp = S.DfsStamp;
        S.Stack.push_back({T, 0});
      }
    }
  }

  /// The DFS stack is the path To ->* From; with the closing edge it is
  /// the witness cycle. Record it (with event copies), pick the decisive
  /// pair the way the post-hoc checker does, and drop the graph — the
  /// verdict is fixed, only the axioms keep running.
  void foundCycle(uint64_t From, EdgeKind K) {
    R.Sc = false;
    R.Cycle.emplace_back(From, K);
    R.CycleEvents.push_back(S.node(From)->Ev);
    for (const State::Frame &F : S.Stack) {
      GNode &N = *S.node(F.Node);
      R.Cycle.emplace_back(F.Node, N.Out[F.Edge - 1].second);
      R.CycleEvents.push_back(N.Ev);
    }
    // The decisive pair: the first fr edge of the cycle (the read that
    // observed the past), else the first edge.
    size_t Pick = 0;
    for (size_t I = 0; I != R.Cycle.size(); ++I)
      if (R.Cycle[I].second == EdgeKind::Fr) {
        Pick = I;
        break;
      }
    const size_t Next = (Pick + 1) % R.Cycle.size();
    R.ViolatingA = R.Cycle[Pick].first;
    R.ViolatingB = R.Cycle[Next].first;
    R.EventA = R.CycleEvents[Pick];
    R.EventB = R.CycleEvents[Next];
    S.GraphDead = true;
    S.Live.clear();
    S.PendingReaders.clear();
    S.LastPo.clear();
    S.Stack.clear();
  }

  void addPo(unsigned Tid, uint64_t I) {
    if (S.GraphDead)
      return;
    const auto It = S.LastPo.find(Tid);
    if (It == S.LastPo.end()) {
      S.LastPo[Tid] = I;
      pin(I, PinPoLast);
      return;
    }
    const uint64_t Prev = It->second;
    addEdge(Prev, I, EdgeKind::Po);
    if (S.GraphDead)
      return;
    It->second = I;
    pin(I, PinPoLast);
    unpin(Prev, PinPoLast);
  }

  void emitFrOne(uint64_t Reader, uint64_t Target) {
    if (Reader != Target)
      addEdge(Reader, Target, EdgeKind::Fr);
  }

  void emitFr(const std::vector<uint64_t> &Readers, uint64_t Target) {
    for (uint64_t Rd : Readers) {
      emitFrOne(Rd, Target);
      if (S.GraphDead)
        return;
    }
  }

  void releaseReaders(std::vector<uint64_t> &Readers) {
    if (S.GraphDead)
      return;
    for (uint64_t Rd : Readers)
      unpin(Rd, PinWatchedReader);
    Readers.clear();
  }

  /// Once no store to the address is buffered, every future coherence
  /// insertion lands at the end of the window (store ids are monotonic in
  /// issue order, and a dropped drain inserts only before plain writes
  /// with a *newer* id), so everything before the visible writer retires
  /// and every non-last write's from-read successor is final.
  void pruneCo(AddrState &AS) {
    if (S.GraphDead || AS.Co.empty())
      return;
    for (size_t K = 0; K + 1 < AS.Co.size(); ++K)
      releaseReaders(AS.Co[K].Readers);
    releaseReaders(AS.InitReaders);
    size_t VPos = 0;
    for (size_t K = AS.Co.size(); K-- != 0;)
      if (AS.Co[K].Node == AS.VisibleNode) {
        VPos = K;
        break;
      }
    for (size_t K = 0; K != VPos; ++K)
      unpin(AS.Co[K].Node, PinCoWindow);
    AS.Co.erase(AS.Co.begin(), AS.Co.begin() + static_cast<ptrdiff_t>(VPos));
  }

  /// Moves readers registered while a write was buffered onto its window
  /// entry (their pins carry over; their from-read is emitted once the
  /// write has a coherence successor).
  void adoptPendingReaders(CoEnt &E) {
    const auto It = S.PendingReaders.find(E.Node);
    if (It == S.PendingReaders.end())
      return;
    E.Readers = std::move(It->second);
    S.PendingReaders.erase(It);
  }

  /// Appends an applied write (drain/atomic/host write) to the window:
  /// coherence edge from the old last, from-read edges from its watched
  /// readers (their successor just materialised).
  void coAppend(AddrState &AS, uint64_t N, bool Plain, uint64_t Id) {
    if (S.GraphDead)
      return;
    if (!AS.Co.empty()) {
      addEdge(AS.Co.back().Node, N, EdgeKind::Co);
      if (S.GraphDead)
        return;
      emitFr(AS.Co.back().Readers, N);
    } else {
      emitFr(AS.InitReaders, N);
    }
    if (S.GraphDead)
      return;
    AS.Co.push_back({N, Id, Plain, {}});
    pin(N, PinCoWindow);
    adoptPendingReaders(AS.Co.back());
  }

  /// Inserts a coherence-dropped write at its position: just before the
  /// earliest plain write with a newer store id, scanning back past
  /// atomics — the same scan the post-hoc checker runs, over the live
  /// window (which still contains the true insertion point: the store was
  /// buffered since its issue, so no prune released it in between).
  void coInsertDropped(AddrState &AS, uint64_t N, uint64_t Id) {
    if (S.GraphDead)
      return;
    size_t Pos = AS.Co.size();
    for (size_t K = AS.Co.size(); K != 0; --K) {
      const CoEnt &W = AS.Co[K - 1];
      if (!W.Plain)
        continue;
      if (W.Id < Id)
        break;
      Pos = K - 1;
    }
    if (Pos != 0) {
      addEdge(AS.Co[Pos - 1].Node, N, EdgeKind::Co);
      if (S.GraphDead)
        return;
      // The predecessor's immediate successor changed: its watched
      // readers' from-read now also targets the inserted write.
      emitFr(AS.Co[Pos - 1].Readers, N);
    } else {
      // A new window front: initial-state reads read before it.
      emitFr(AS.InitReaders, N);
    }
    if (S.GraphDead)
      return;
    if (Pos != AS.Co.size()) {
      addEdge(N, AS.Co[Pos].Node, EdgeKind::Co);
      if (S.GraphDead)
        return;
    }
    AS.Co.insert(AS.Co.begin() + static_cast<ptrdiff_t>(Pos),
                 {N, Id, true, {}});
    pin(N, PinCoWindow);
    adoptPendingReaders(AS.Co[Pos]);
    if (S.GraphDead)
      return;
    // Readers that forwarded from this write get their from-read now that
    // the write has a coherence successor.
    if (Pos + 1 < AS.Co.size())
      emitFr(AS.Co[Pos].Readers, AS.Co[Pos + 1].Node);
  }

  /// The address's visible writer changed: transfer the rf-source pin.
  void transferVisible(uint64_t OldNode, uint64_t NewNode) {
    if (S.GraphDead)
      return;
    pin(NewNode, PinVisible);
    if (OldNode != NoNode)
      unpin(OldNode, PinVisible);
  }

  /// Registers a read: its rf edge, its current from-read edge, and — when
  /// the rf write's coherence successor can still change — a watch
  /// registration so every successor change re-emits the from-read.
  void noteRead(uint64_t Reader, Addr A, uint64_t W, bool RfPending) {
    if (S.GraphDead)
      return;
    AddrState &AS = S.Addrs[A];
    if (W == NoNode) {
      // Initial-state read: from-read to the window front; watched while
      // the front can still change (no write yet, or inserts possible).
      if (!AS.Co.empty()) {
        emitFrOne(Reader, AS.Co.front().Node);
        if (S.GraphDead)
          return;
      }
      if (AS.Co.empty() || AS.PendingStores != 0) {
        AS.InitReaders.push_back(Reader);
        pin(Reader, PinWatchedReader);
      }
      return;
    }
    addEdge(W, Reader, EdgeKind::Rf);
    if (S.GraphDead)
      return;
    if (RfPending) {
      // The write is still buffered (forward/overlay read): its coherence
      // position is unknown until it drains; watch through the drain.
      S.PendingReaders[W].push_back(Reader);
      pin(Reader, PinWatchedReader);
      return;
    }
    // The write is in the window (it is the visible writer).
    size_t Pos = AS.Co.size();
    for (size_t K = AS.Co.size(); K-- != 0;)
      if (AS.Co[K].Node == W) {
        Pos = K;
        break;
      }
    if (Pos == AS.Co.size())
      return; // Unreachable on engine traces; harmless on corrupted ones.
    if (Pos + 1 != AS.Co.size()) {
      emitFrOne(Reader, AS.Co[Pos + 1].Node);
      if (S.GraphDead)
        return;
    }
    if (Pos + 1 == AS.Co.size() || AS.PendingStores != 0) {
      AS.Co[Pos].Readers.push_back(Reader);
      pin(Reader, PinWatchedReader);
    }
  }
};

} // namespace

StreamingChecker::StreamingChecker() : St(std::make_unique<State>()) {}
StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::begin() {
  St->clear();
  R = StreamVerdict();
  Consumed = 0;
  PeakLive = 0;
  Retired = 0;
}

size_t StreamingChecker::liveEvents() const { return St->Live.size(); }

//===----------------------------------------------------------------------===//
// Event consumption: the replay axioms, ported statement for statement
//===----------------------------------------------------------------------===//

void StreamingChecker::event(const TraceEvent &E) {
  State &S = *St;
  const size_t I = static_cast<size_t>(Consumed);
  ++Consumed;
  if (S.Done)
    return;
  S.LastEv = E;
  Graph G{S, R, PeakLive, Retired};

  const uint64_t Key = tidBankKey(E.Tid, E.Bank);
  const auto globalValue = [&](Addr A) {
    const auto It = S.Addrs.find(A);
    return It == S.Addrs.end() ? Word{0} : It->second.Val;
  };
  const auto plainMaxId = [&](Addr A) {
    const auto It = S.Addrs.find(A);
    return It == S.Addrs.end() ? uint64_t{0} : It->second.PlainMax;
  };
  const auto overlayFor = [&](unsigned Block, Addr A) -> State::OverlayEnt * {
    const auto It = S.Overlay.find(A);
    if (It == S.Overlay.end())
      return nullptr;
    for (State::OverlayEnt &O : It->second)
      if (O.Block == Block)
        return &O;
    return nullptr;
  };
  const auto newestPendingTo = [&](uint64_t K,
                                   Addr A) -> State::PendingStore * {
    const auto It = S.Pending.find(K);
    if (It == S.Pending.end())
      return nullptr;
    for (auto RIt = It->second.rbegin(); RIt != It->second.rend(); ++RIt)
      if (RIt->A == A)
        return &*RIt;
    return nullptr;
  };
  // Violations that reference the visible writer use its node index when
  // one exists, else the current event — as the post-hoc checker does.
  const auto visibleOr = [&](Addr A, size_t Self) {
    const auto It = S.Addrs.find(A);
    return It == S.Addrs.end() || It->second.VisibleNode == NoNode
               ? Self
               : static_cast<size_t>(It->second.VisibleNode);
  };
  const auto visibleEvOr = [&](Addr A,
                               const TraceEvent *Self) -> const TraceEvent * {
    const auto It = S.Addrs.find(A);
    return It == S.Addrs.end() || It->second.VisibleNode == NoNode
               ? Self
               : &It->second.VisibleEv;
  };

  switch (E.Kind) {
  case TraceEventKind::StoreIssue: {
    if (S.AsyncByTidBank[Key] != 0)
      violate(R,
              "same-bank issue order: store issued while a split-phase "
              "load is pending on its bank",
              I, I, &E, &E);
    S.Pending[Key].push_back({I, E.Id, E.A, E.V, E});
    ++S.PendingByTid[E.Tid];
    if (!S.GraphDead) {
      G.makeNode(I, E);
      G.pin(I, PinPendingStore);
      ++S.Addrs[E.A].PendingStores;
      G.addPo(E.Tid, I);
    }
    break;
  }
  case TraceEventKind::StoreDrain: {
    auto &Q = S.Pending[Key];
    if (Q.empty() || Q.front().Id != E.Id) {
      violate(R,
              "same-bank FIFO: a store drained out of its bank's issue "
              "order",
              Q.empty() ? I : Q.front().Node, I,
              Q.empty() ? &E : &Q.front().Ev, &E);
      break;
    }
    const State::PendingStore Front = Q.front();
    Q.pop_front();
    --S.PendingByTid[E.Tid];
    const bool ShouldApply = E.Id >= plainMaxId(E.A);
    if (E.Flag != ShouldApply) {
      violate(R,
              "coherence-per-location: a drain was applied/dropped "
              "against the per-address store order",
              Front.Node, I, &Front.Ev, &E);
      break;
    }
    const bool WasPromoted = S.PromotedIds.count(E.Id) != 0;
    if (WasPromoted) {
      // The drain retires exactly its own block-visible value.
      auto It = S.Overlay.find(E.A);
      if (It != S.Overlay.end())
        for (size_t K = 0; K != It->second.size(); ++K)
          if (It->second[K].Id == E.Id) {
            It->second.erase(It->second.begin() + static_cast<ptrdiff_t>(K));
            break;
          }
    }
    State::AddrState &AS = S.Addrs[E.A];
    if (!S.GraphDead && AS.PendingStores != 0)
      --AS.PendingStores;
    if (E.Flag) {
      AS.Val = E.V;
      const uint64_t OldVisible = AS.VisibleNode;
      AS.VisibleNode = Front.Node;
      AS.VisibleEv = Front.Ev;
      AS.PlainMax = E.Id;
      G.coAppend(AS, Front.Node, /*Plain=*/true, E.Id);
      G.transferVisible(OldVisible, Front.Node);
      // A write that reaches globally visible memory through the plain
      // path invalidates every block-visible value for the address.
      if (!WasPromoted)
        S.Overlay.erase(E.A);
    } else {
      G.coInsertDropped(AS, Front.Node, E.Id);
    }
    G.unpin(Front.Node, PinPendingStore);
    if (!S.GraphDead && AS.PendingStores == 0)
      G.pruneCo(AS);
    break;
  }
  case TraceEventKind::LoadBind: {
    const State::PendingStore *Newest = newestPendingTo(Key, E.A);
    const State::OverlayEnt *OV = overlayFor(E.Block, E.A);
    uint64_t Rf = NoNode;
    bool RfPending = false;
    switch (E.Source) {
    case LoadSource::Memory: {
      const auto It = S.Pending.find(Key);
      if (It != S.Pending.end() && !It->second.empty())
        violate(R,
                "self-coherence: a load bound from memory while the "
                "thread still buffered stores on the load's bank",
                It->second.front().Node, I, &It->second.front().Ev, &E);
      else if (OV)
        violate(R,
                "forwarding: a load bound from memory past a live "
                "block-visible value",
                OV->Node, I, &OV->Ev, &E);
      else if (E.V != globalValue(E.A))
        violate(R, "read-value: a load bound a value no write produced",
                visibleOr(E.A, I), I, visibleEvOr(E.A, &E), &E);
      const auto AIt = S.Addrs.find(E.A);
      if (AIt != S.Addrs.end())
        Rf = AIt->second.VisibleNode;
      break;
    }
    case LoadSource::Forward: {
      if (!Newest)
        violate(R,
                "forwarding: a load forwarded with no buffered store to "
                "its address",
                I, I, &E, &E);
      else if (E.V != Newest->V)
        violate(R,
                "forwarding: a load forwarded a value its newest "
                "buffered store did not write",
                Newest->Node, I, &Newest->Ev, &E);
      else if (plainMaxId(E.A) > Newest->Id)
        violate(R,
                "coherence-per-location: a load forwarded a store that "
                "newer globally visible writes supersede",
                Newest->Node, I, &Newest->Ev, &E);
      else if (OV && OV->Id > Newest->Id)
        violate(R,
                "coherence-per-location: a load forwarded a store that "
                "a newer block-visible value supersedes",
                Newest->Node, I, &Newest->Ev, &E);
      if (Newest) {
        Rf = Newest->Node;
        RfPending = true;
      }
      break;
    }
    case LoadSource::MemorySuperseded: {
      if (!Newest || plainMaxId(E.A) <= Newest->Id)
        violate(R,
                "coherence-per-location: a superseded-forward load "
                "without a superseding write",
                I, I, &E, &E);
      else if (E.V != globalValue(E.A))
        violate(R,
                "read-value: a superseded-forward load bound a value "
                "memory does not hold",
                visibleOr(E.A, I), I, visibleEvOr(E.A, &E), &E);
      const auto AIt = S.Addrs.find(E.A);
      if (AIt != S.Addrs.end())
        Rf = AIt->second.VisibleNode;
      break;
    }
    case LoadSource::OverlaySuperseded: {
      if (!Newest || !OV || OV->Id <= Newest->Id)
        violate(R,
                "coherence-per-location: a superseded-forward load "
                "without a newer block-visible value",
                I, I, &E, &E);
      else if (E.V != OV->V)
        violate(R,
                "read-value: a superseded-forward load bound a value "
                "the block overlay does not hold",
                OV->Node, I, &OV->Ev, &E);
      if (OV) {
        Rf = OV->Node;
        RfPending = true;
      }
      break;
    }
    case LoadSource::Overlay: {
      const auto It = S.Pending.find(Key);
      if (It != S.Pending.end() && !It->second.empty())
        violate(R,
                "self-coherence: a load bound from the block overlay "
                "while the thread still buffered stores on the bank",
                It->second.front().Node, I, &It->second.front().Ev, &E);
      else if (!OV)
        violate(R,
                "forwarding: a load bound from the block overlay with no "
                "live value for its block",
                I, I, &E, &E);
      else if (E.V != OV->V)
        violate(R,
                "read-value: a load bound a value the block overlay does "
                "not hold",
                OV->Node, I, &OV->Ev, &E);
      if (OV) {
        Rf = OV->Node;
        RfPending = true;
      }
      break;
    }
    }
    if (!S.GraphDead) {
      G.makeNode(I, E);
      G.noteRead(I, E.A, Rf, RfPending);
      G.addPo(E.Tid, I);
    }
    break;
  }
  case TraceEventKind::AsyncIssue: {
    S.AsyncIssueAt[E.Id] = {I, E};
    ++S.AsyncByTidBank[Key];
    ++S.AsyncByTid[E.Tid];
    if (!S.GraphDead) {
      G.makeNode(I, E);
      G.pin(I, PinPendingAsync);
      G.addPo(E.Tid, I);
    }
    break;
  }
  case TraceEventKind::AsyncBind: {
    const auto It = S.AsyncIssueAt.find(E.Id);
    if (It == S.AsyncIssueAt.end()) {
      violate(R, "causality: a split-phase load completed without an issue",
              I, I, &E, &E);
      break;
    }
    --S.AsyncByTidBank[Key];
    --S.AsyncByTid[E.Tid];
    if (E.V != globalValue(E.A))
      violate(R,
              "read-value: a split-phase load bound a value memory does "
              "not hold",
              visibleOr(E.A, I), I, visibleEvOr(E.A, &E), &E);
    // The read's program-order point is the issue; the binding write is
    // whatever is visible now.
    const uint64_t Issue = It->second.Node;
    S.AsyncIssueAt.erase(It);
    if (!S.GraphDead) {
      const auto AIt = S.Addrs.find(E.A);
      const uint64_t W =
          AIt == S.Addrs.end() ? NoNode : AIt->second.VisibleNode;
      G.noteRead(Issue, E.A, W, /*RfPending=*/false);
      G.unpin(Issue, PinPendingAsync);
    }
    break;
  }
  case TraceEventKind::Atomic: {
    const auto It = S.Pending.find(Key);
    if (It != S.Pending.end() && !It->second.empty())
      violate(R,
              "self-coherence: an atomic executed while the thread still "
              "buffered stores on its bank",
              It->second.front().Node, I, &It->second.front().Ev, &E);
    else if (S.AsyncByTidBank[Key] != 0)
      violate(R,
              "same-bank issue order: an atomic executed while a "
              "split-phase load is pending on its bank",
              I, I, &E, &E);
    else if (static_cast<Word>(E.Id) != globalValue(E.A))
      violate(R, "read-value: an atomic read a value memory does not hold",
              visibleOr(E.A, I), I, visibleEvOr(E.A, &E), &E);
    State::AddrState &AS = S.Addrs[E.A];
    const uint64_t W = AS.VisibleNode; // The read side binds pre-write.
    if (!S.GraphDead)
      G.makeNode(I, E);
    if (E.Flag) {
      AS.Val = E.V;
      const uint64_t OldVisible = AS.VisibleNode;
      AS.VisibleNode = I;
      AS.VisibleEv = E;
      G.coAppend(AS, I, /*Plain=*/false, /*Id=*/0);
      G.transferVisible(OldVisible, I);
      S.Overlay.erase(E.A); // Atomics invalidate block-visible values.
      if (!S.GraphDead && AS.PendingStores == 0)
        G.pruneCo(AS);
    }
    if (!S.GraphDead) {
      G.noteRead(I, E.A, W, /*RfPending=*/false);
      G.addPo(E.Tid, I);
    }
    break;
  }
  case TraceEventKind::FenceDevice: {
    if (S.PendingByTid[E.Tid] != 0)
      violate(R,
              "fence-drain: a device fence completed with the thread's "
              "stores still buffered",
              I, I, &E, &E);
    else if (S.AsyncByTid[E.Tid] != 0)
      violate(R,
              "fence-drain: a device fence completed with the thread's "
              "split-phase loads still pending",
              I, I, &E, &E);
    break;
  }
  case TraceEventKind::StorePromote: {
    S.PromotedIds.insert(E.Id);
    const State::PendingStore *P = nullptr;
    const auto PIt = S.Pending.find(Key);
    if (PIt != S.Pending.end())
      for (const State::PendingStore &PS : PIt->second)
        if (PS.Id == E.Id)
          P = &PS;
    if (!P) {
      violate(R,
              "forwarding: a block fence promoted a store that is not "
              "buffered",
              I, I, &E, &E);
      break;
    }
    State::OverlayEnt *OV = overlayFor(E.Block, E.A);
    if (!OV)
      S.Overlay[E.A].push_back({E.Block, E.Id, P->Node, E.V, P->Ev});
    else if (OV->Id < E.Id)
      *OV = {E.Block, E.Id, P->Node, E.V, P->Ev};
    break;
  }
  case TraceEventKind::FenceBlock:
  case TraceEventKind::BarrierRelease:
    break;
  case TraceEventKind::HostWrite: {
    State::AddrState &AS = S.Addrs[E.A];
    AS.Val = E.V;
    const uint64_t OldVisible = AS.VisibleNode;
    AS.VisibleNode = I;
    AS.VisibleEv = E;
    AS.PlainMax = E.Id;
    if (!S.GraphDead) {
      G.makeNode(I, E);
      G.coAppend(AS, I, /*Plain=*/true, E.Id);
      G.transferVisible(OldVisible, I);
      if (!S.GraphDead && AS.PendingStores == 0)
        G.pruneCo(AS);
    }
    break;
  }
  }

  if (!R.AxiomsOk)
    S.Done = true;
}

const StreamVerdict &StreamingChecker::finish() {
  State &S = *St;
  if (R.AxiomsOk) {
    // End-of-run axioms: the kernel boundary drained everything.
    const size_t Last = Consumed ? static_cast<size_t>(Consumed) - 1 : 0;
    for (const auto &KV : S.PendingByTid)
      if (KV.second != 0)
        violate(R,
                "fence-drain: stores were still buffered at the end of the "
                "run (the kernel boundary must drain them)",
                Last, Last, &S.LastEv, &S.LastEv);
    for (const auto &KV : S.AsyncByTid)
      if (KV.second != 0)
        violate(R,
                "fence-drain: split-phase loads were still pending at the "
                "end of the run",
                Last, Last, &S.LastEv, &S.LastEv);
  }
  return R;
}

const StreamVerdict &
StreamingChecker::checkAll(const std::vector<TraceEvent> &Events) {
  begin();
  for (const TraceEvent &E : Events)
    event(E);
  return finish();
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string model::renderStreamExplanation(const StreamVerdict &R,
                                           const AddrNamer &Namer) {
  std::ostringstream OS;
  if (!R.AxiomsOk) {
    OS << "axiom violation: " << R.AxiomViolation << "\n";
    if (R.ViolatingA != static_cast<size_t>(-1))
      OS << "  " << describeEvent(R.EventA, R.ViolatingA, Namer) << "\n";
    if (R.ViolatingB != static_cast<size_t>(-1) &&
        R.ViolatingB != R.ViolatingA)
      OS << "  " << describeEvent(R.EventB, R.ViolatingB, Namer) << "\n";
    return OS.str();
  }
  if (R.Sc) {
    OS << "sequentially consistent: po ∪ rf ∪ co ∪ fr is acyclic\n";
    return OS.str();
  }
  OS << "weak: po ∪ rf ∪ co ∪ fr has a cycle of length " << R.Cycle.size()
     << "\n";
  for (size_t K = 0; K != R.Cycle.size(); ++K) {
    OS << "  " << describeEvent(R.CycleEvents[K], R.Cycle[K].first, Namer)
       << "\n"
       << "    --" << edgeKindName(R.Cycle[K].second) << "--> ";
    if (K + 1 == R.Cycle.size())
      OS << "(back to e" << R.Cycle[0].first << ")";
    OS << "\n";
  }
  return OS.str();
}
