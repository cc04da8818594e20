//===- perfbench/Traced.cpp - The traced, per-layer run ---------------------===//
//
// The replay below mirrors harness/Campaign.cpp (runCampaign,
// runCampaignAppCell, runCampaignLitmusCell, runCampaignFabric) and
// hunt/Hunt.cpp (runHunt and its harden-and-verify stage) call for call,
// so that each library call gets its own span. It is held to the library
// by reconciliation, not by inspection: the replayed report must equal
// the untraced one byte for byte, so a change to either pipeline that the
// replay does not follow fails the traced run loudly.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"

#include "apps/AppCompile.h"
#include "fuzz/LitmusBridge.h"
#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "harness/Merge.h"
#include "harness/ShardStore.h"
#include "harness/WorkList.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "sim/BatchExec.h"
#include "sim/ExecutionContext.h"
#include "support/Rng.h"

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>
#include <thread>

using namespace gpuwmm;

namespace perfbench {
namespace {

/// Span tag of an app call: the number of its runs that timed out.
int timeoutsIn(const apps::AppVerdict *V, size_t N) {
  return static_cast<int>(
      std::count(V, V + N, apps::AppVerdict::Timeout));
}

/// Hunt.cpp's budget of harden attempts per survivor.
constexpr unsigned MaxHardenAttempts = 5;

/// A shrunk case that survived dedupe (Hunt.cpp's Survivor).
struct Survivor {
  litmus::Program Canon;
  std::string Key;
  size_t SourceIndex = 0;
  hunt::CorpusEntry E;
};

/// Replays one workload input through the layers' public calls, serially
/// on the calling thread, with one span per call.
class Replay {
public:
  explicit Replay(Tracer &T) : T(T) {}

  harness::CampaignReport campaign(const harness::CampaignConfig &C);
  bool fabric(const harness::CampaignConfig &C, const std::string &Dir,
              harness::CampaignReport &Out, std::string *Err);
  bool hunt(const hunt::HuntConfig &Cfg, hunt::HuntReport &Report,
            std::string *Err);

  /// Weak candidates of the first hunt round, for the oracle probe.
  std::vector<litmus::Program> FirstCandidates;

private:
  harness::CampaignCell appCell(const harness::CampaignConfig &C,
                                const sim::ChipProfile &Chip,
                                const stress::Environment &Env,
                                apps::AppKind App, std::string Key);
  harness::LitmusCampaignCell litmusCell(const harness::CampaignConfig &C,
                                         const sim::ChipProfile &Chip,
                                         const litmus::Program &Test,
                                         std::string Key);
  void hardenAndVerify(Survivor &S, const hunt::HuntConfig &Cfg,
                       uint64_t HardenSeed, uint64_t VerifySeed,
                       const std::string &RoundId);

  Tracer &T;
  sim::ContextLease Ctx;
  model::StreamingChecker Checker;
};

harness::CampaignCell Replay::appCell(const harness::CampaignConfig &C,
                                      const sim::ChipProfile &Chip,
                                      const stress::Environment &Env,
                                      apps::AppKind App, std::string Key) {
  ScopedSpan CellSpan(T, "harness.app_cell", std::move(Key));
  CellSpan.Work = C.Runs;
  harness::CampaignCell Cell;
  Cell.Chip = &Chip;
  Cell.Env = Env;
  Cell.App = App;
  Cell.Result.Runs = C.Runs;
  const uint64_t CellSeed =
      harness::campaignCellSeed(C.Seed, Chip, Env, App);
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  std::vector<apps::AppVerdict> V(C.Runs);
  if (!C.OracleEvery && apps::appLowerable(App)) {
    // Lowered kernels: one batched call per run chunk, as runCellChunk.
    const unsigned W = sim::defaultBatchWidth();
    std::vector<uint64_t> Seeds;
    for (unsigned Begin = 0; Begin < C.Runs; Begin += W) {
      const unsigned End = std::min(Begin + W, C.Runs);
      Seeds.clear();
      for (unsigned Run = Begin; Run != End; ++Run)
        Seeds.push_back(Rng::deriveStream(CellSeed, Run));
      ScopedSpan S(T, "apps.batched");
      S.Work = Seeds.size();
      apps::runApplicationBatch(Ctx.get(), App, Chip, Env, Tuned,
                                /*Policy=*/nullptr, Seeds.data(),
                                V.data() + Begin, Seeds.size());
      S.Tag = timeoutsIn(V.data() + Begin, Seeds.size());
    }
  } else {
    // The scalar engine, one call per run; checked runs stream their
    // events through the oracle as they execute.
    for (unsigned Run = 0; Run != C.Runs; ++Run) {
      ScopedSpan S(T, "apps.scalar");
      S.Work = 1;
      if (C.OracleEvery) {
        Checker.begin();
        Ctx.get().requestStreaming(&Checker);
      }
      V[Run] = apps::runApplicationOnce(Ctx.get(), App, Chip, Env, Tuned,
                                        /*Policy=*/nullptr,
                                        Rng::deriveStream(CellSeed, Run));
      if (C.OracleEvery) {
        Ctx.get().requestStreaming(nullptr);
        ++Cell.OracleChecked;
        Cell.OracleViolations += !Checker.finish().AxiomsOk;
      }
      S.Tag = timeoutsIn(&V[Run], 1);
    }
  }
  for (apps::AppVerdict X : V) {
    Cell.Result.Errors += apps::isErroneous(X);
    Cell.Result.Timeouts += X == apps::AppVerdict::Timeout;
  }
  return Cell;
}

harness::LitmusCampaignCell
Replay::litmusCell(const harness::CampaignConfig &C,
                   const sim::ChipProfile &Chip, const litmus::Program &Test,
                   std::string Key) {
  ScopedSpan CellSpan(T, "harness.litmus_cell", std::move(Key));
  CellSpan.Work = uint64_t{C.Runs} * Chip.NumBanks;
  harness::LitmusCampaignCell Cell;
  Cell.Chip = &Chip;
  Cell.Test = &Test;
  Cell.Runs = C.Runs;
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  litmus::LitmusRunner Runner(
      Chip, harness::campaignLitmusSeed(C.Seed, Chip, Test));
  const unsigned Distance = 2 * Chip.PatchSizeWords;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto Stress = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    unsigned Weak = 0;
    if (C.OracleEvery) {
      ScopedSpan S(T, "litmus.checked");
      S.Work = C.Runs;
      litmus::LitmusRunner::RunOpts Opts;
      Opts.Sink = &Checker;
      for (unsigned Run = 0; Run != C.Runs; ++Run) {
        Checker.begin();
        const bool Forbidden = Runner.runOnce(Test, Distance, Stress, Opts);
        Weak += Forbidden;
        const model::StreamVerdict &R = Checker.finish();
        ++Cell.OracleChecked;
        Cell.OracleViolations += !R.AxiomsOk || R.weak() != Forbidden;
      }
    } else {
      ScopedSpan S(T, "litmus.batched");
      S.Work = C.Runs;
      Weak = Runner.countWeakBatch(Test, Distance, Stress, C.Runs);
    }
    Cell.Weak = std::max(Cell.Weak, Weak);
  }
  return Cell;
}

std::string appKey(const sim::ChipProfile &Chip,
                   const stress::Environment &Env, apps::AppKind App) {
  return "app/" + std::string(Chip.ShortName) + "/" + Env.name() + "/" +
         apps::appName(App);
}

harness::CampaignReport Replay::campaign(const harness::CampaignConfig &C) {
  harness::CampaignReport R;
  R.Config = C;
  for (const sim::ChipProfile *Chip : C.Chips)
    for (const stress::Environment &Env : C.Envs)
      for (apps::AppKind App : C.Apps)
        R.Cells.push_back(appCell(C, *Chip, Env, App,
                                  T.enabled() ? appKey(*Chip, Env, App)
                                              : std::string()));
  for (const sim::ChipProfile *Chip : C.Chips)
    for (const litmus::Program *Test : C.LitmusTests)
      R.LitmusCells.push_back(litmusCell(
          C, *Chip, *Test,
          T.enabled() ? "litmus/" + std::string(Chip->ShortName) + "/" +
                            Test->Name
                      : std::string()));
  R.Summaries.resize(C.Chips.size() * C.Envs.size());
  for (size_t I = 0; I != R.Cells.size(); ++I) {
    harness::EnvironmentSummary &S = R.Summaries[I / C.Apps.size()];
    S.AppsWithErrors += R.Cells[I].Result.observed();
    S.AppsEffective += R.Cells[I].Result.effective();
  }
  return R;
}

bool Replay::fabric(const harness::CampaignConfig &C, const std::string &Dir,
                    harness::CampaignReport &Out, std::string *Err) {
  auto OpenStore = [&] {
    ScopedSpan S(T, "harness.shard.open");
    return harness::ShardStore::open(Dir, C, Err);
  };
  std::optional<harness::ShardStore> Store = OpenStore();
  if (!Store)
    return false;
  for (const harness::CampaignWorkItem &Item : harness::buildWorkList(C)) {
    const std::string Key = harness::workItemKey(C, Item);
    harness::ShardRecord Record;
    Record.Chip = C.Chips[Item.ChipIdx]->ShortName;
    Record.Seed = harness::workItemSeed(C, Item);
    Record.Runs = C.Runs;
    if (Item.ItemKind == harness::CampaignWorkItem::Kind::Litmus) {
      const harness::LitmusCampaignCell Cell = litmusCell(
          C, *C.Chips[Item.ChipIdx], *C.LitmusTests[Item.TestIdx], Key);
      Record.IsLitmus = true;
      Record.Test = Cell.Test->Name;
      Record.Weak = Cell.Weak;
      Record.OracleChecked = Cell.OracleChecked;
      Record.OracleViolations = Cell.OracleViolations;
    } else {
      const harness::CampaignCell Cell =
          appCell(C, *C.Chips[Item.ChipIdx], C.Envs[Item.EnvIdx],
                  C.Apps[Item.AppIdx], Key);
      Record.Env = Cell.Env.name();
      Record.App = apps::appName(Cell.App);
      Record.Errors = Cell.Result.Errors;
      Record.Timeouts = Cell.Result.Timeouts;
      Record.OracleChecked = Cell.OracleChecked;
      Record.OracleViolations = Cell.OracleViolations;
    }
    ScopedSpan S(T, "harness.shard.append", Key);
    if (!Store->append(Record, Err))
      return false;
  }
  ScopedSpan S(T, "harness.merge");
  harness::MergeStats Stats;
  return harness::mergeCampaignShards(Dir, Out, Stats, Err);
}

void Replay::hardenAndVerify(Survivor &S, const hunt::HuntConfig &Cfg,
                             uint64_t HardenSeed, uint64_t VerifySeed,
                             const std::string &RoundId) {
  ScopedSpan Entry(T, "harden.entry", RoundId);
  const auto Tuned = stress::TunedStressParams::paperDefaults(*Cfg.Chip);
  const auto Stress =
      Cfg.Fuzz.Stressed
          ? litmus::LitmusRunner::MicroStress::at(
                Tuned.Seq, (S.E.ProvokingRegion % Cfg.Chip->NumBanks) *
                               Tuned.PatchWords)
          : litmus::LitmusRunner::MicroStress::none();
  for (unsigned Attempt = 0; Attempt != MaxHardenAttempts; ++Attempt) {
    Entry.Work = Attempt + 1;
    harden::LitmusHardenOptions HO;
    HO.Distance = Cfg.Distance;
    HO.CheckRuns = Cfg.HardenRuns << Attempt;
    HO.StableRuns = Cfg.StableRuns << Attempt;
    HO.Seed = Rng::deriveStream(HardenSeed, Attempt);
    HO.Stressed = Cfg.Fuzz.Stressed;
    HO.StressRegion = S.E.ProvokingRegion;
    harden::LitmusHardenResult HR;
    {
      ScopedSpan A(T, "harden.attempt", RoundId);
      HR = harden::hardenLitmusProgram(S.Canon, *Cfg.Chip, HO);
      A.Work = HR.Executions;
    }
    S.E.Annotated = HR.Annotated;
    S.E.FenceSites = HR.NumSites;
    S.E.Fences = static_cast<unsigned>(HR.Fences.count());
    S.E.HardenRounds = HR.Insertion.Rounds;
    S.E.HardenStable = HR.Insertion.Stable;
    S.E.HardenAttempts = Attempt + 1;

    S.E.VerifyRuns = Cfg.VerifyRuns;
    S.E.VerifyWeak = S.E.VerifyForbidden = 0;
    S.E.AxiomViolations = {};
    {
      ScopedSpan V(T, "litmus.checked", RoundId);
      V.Work = Cfg.VerifyRuns;
      litmus::LitmusRunner Runner(*Cfg.Chip, VerifySeed);
      litmus::LitmusRunOpts Opts;
      Opts.Sink = &Checker;
      for (unsigned Run = 0; Run != Cfg.VerifyRuns; ++Run) {
        Checker.begin();
        const bool Forbidden =
            Runner.runOnce(HR.Hardened, Cfg.Distance, Stress, Opts);
        const model::StreamVerdict &R = Checker.finish();
        if (Forbidden)
          ++S.E.VerifyForbidden;
        if (!R.AxiomsOk) {
          const int Idx = hunt::axiomKeyIndex(R.AxiomViolation);
          if (Idx >= 0)
            ++S.E.AxiomViolations[Idx];
        } else if (R.weak()) {
          ++S.E.VerifyWeak;
          ++S.E.AxiomViolations[hunt::axiomKeyIndex("causality")];
        }
      }
    }
    bool Clean = S.E.VerifyWeak == 0;
    for (uint64_t N : S.E.AxiomViolations)
      Clean = Clean && N == 0;
    if (Clean)
      return;
  }
}

bool Replay::hunt(const hunt::HuntConfig &Cfg, hunt::HuntReport &Report,
                  std::string *Err) {
  Report = hunt::HuntReport();
  Report.Config = Cfg;
  hunt::Corpus::OpenOptions CO;
  CO.Dir = Cfg.CorpusDir;
  CO.Resume = Cfg.Resume;
  hunt::Corpus Corpus;
  {
    ScopedSpan S(T, "hunt.corpus.open");
    if (!hunt::Corpus::open(CO, Cfg.manifest(), Corpus, Err))
      return false;
  }
  Report.Warnings = Corpus.warnings();
  Report.StartRound = static_cast<unsigned>(Corpus.lastCompletedRound() + 1);

  for (unsigned Round = Report.StartRound; Round < Cfg.Rounds; ++Round) {
    // Hunt.h's seed plan: stage s of round R draws deriveStream(Seed,
    // 4R + s).
    const uint64_t FuzzSeed = Rng::deriveStream(Cfg.Seed, 4 * Round);
    const uint64_t ShrinkSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 1);
    const uint64_t HardenSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 2);
    const uint64_t VerifySeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 3);
    const std::string RoundId =
        T.enabled() ? "round " + std::to_string(Round) : std::string();
    ScopedSpan RoundSpan(T, "hunt.round", RoundId);

    std::vector<fuzz::BatchEntry> Batch;
    {
      ScopedSpan S(T, "fuzz.batch", RoundId);
      Batch = fuzz::fuzzBatch(*Cfg.Chip, Cfg.Fuzz, FuzzSeed, nullptr);
      S.Work = Batch.size();
    }
    Report.ProgramsFuzzed += Batch.size();
    std::vector<size_t> WeakIdx;
    for (size_t I = 0; I != Batch.size(); ++I)
      if (Batch[I].R.WeakOutcomes)
        WeakIdx.push_back(I);
    Report.WeakPrograms += WeakIdx.size();

    std::vector<fuzz::ShrinkResult> Shrunk(WeakIdx.size());
    for (size_t J = 0; J != WeakIdx.size(); ++J) {
      ScopedSpan S(T, "fuzz.shrink", RoundId);
      const fuzz::BatchEntry &B = Batch[WeakIdx[J]];
      litmus::Program Original =
          fuzz::toLitmusProgram(B.P, "hunt-candidate", &B.R.FirstWeak);
      fuzz::ShrinkOptions SO;
      SO.Distance = Cfg.Distance;
      SO.RunsPerAttempt = Cfg.ShrinkRuns;
      SO.Seed = Rng::deriveStream(ShrinkSeed, static_cast<uint64_t>(J));
      SO.Stressed = Cfg.Fuzz.Stressed;
      Shrunk[J] = fuzz::shrinkWeakProgram(Original, *Cfg.Chip, SO);
      S.Work = Shrunk[J].Candidates;
      S.Tag = static_cast<int>(Shrunk[J].Accepted);
      if (Round == Report.StartRound)
        FirstCandidates.push_back(std::move(Original));
    }

    std::vector<Survivor> Survivors;
    {
      ScopedSpan S(T, "hunt.dedupe", RoundId);
      std::set<std::string> RoundKeys;
      for (size_t J = 0; J != Shrunk.size(); ++J) {
        fuzz::ShrinkResult &SR = Shrunk[J];
        Report.ShrinkCandidates += SR.Candidates;
        Report.ShrinkAccepted += SR.Accepted;
        Report.CrossChecks += SR.CrossChecks;
        if (!SR.OracleError.empty()) {
          if (Err)
            *Err = "round " + std::to_string(Round) +
                   ": consistency checkers disagreed during shrink: " +
                   SR.OracleError;
          return false;
        }
        if (!SR.Reproduced) {
          ++Report.NotReproduced;
          continue;
        }
        Survivor V;
        V.Canon = fuzz::canonicalizeProgram(SR.Reduced);
        V.Key = fuzz::canonicalKey(SR.Reduced);
        V.SourceIndex = J;
        if (Corpus.contains(V.Key) || !RoundKeys.insert(V.Key).second) {
          ++Report.Duplicates;
          continue;
        }
        V.E.Round = Round;
        V.E.Key = V.Key;
        V.E.OriginalOps = SR.OriginalOps;
        V.E.ReducedOps = SR.ReducedOps;
        V.E.ShrinkCandidates = SR.Candidates;
        V.E.ShrinkAccepted = SR.Accepted;
        V.E.CrossChecks = SR.CrossChecks;
        V.E.ProvokingRegion = SR.ProvokingRegion;
        Survivors.push_back(std::move(V));
      }
    }

    for (Survivor &V : Survivors) {
      const uint64_t Src = static_cast<uint64_t>(V.SourceIndex);
      hardenAndVerify(V, Cfg, Rng::deriveStream(HardenSeed, Src),
                      Rng::deriveStream(VerifySeed, Src), RoundId);
    }
    for (Survivor &V : Survivors) {
      ScopedSpan S(T, "hunt.corpus.append", RoundId);
      if (!Corpus.append(std::move(V.E), Err))
        return false;
      ++Report.NewEntries;
    }
    {
      ScopedSpan S(T, "hunt.corpus.round_done", RoundId);
      if (!Corpus.markRoundDone(Round, Err))
        return false;
    }
    ++Report.RoundsRun;
  }

  Report.Entries = Corpus.entries();
  for (const hunt::CorpusEntry &E : Report.Entries) {
    Report.OracleChecked += E.VerifyRuns;
    Report.OracleWeak += E.VerifyWeak;
    Report.OracleForbidden += E.VerifyForbidden;
    for (size_t I = 0; I != hunt::NumAxioms; ++I)
      Report.AxiomCounts[I] += E.AxiomViolations[I];
  }
  return true;
}

/// Counts events without keeping them: sizes hung runs, whose traces run
/// to millions of events, in constant memory.
class EventCounter final : public sim::TraceSink {
public:
  void event(const sim::TraceEvent &) override { ++N; }
  uint64_t N = 0;
};

/// Cells whose sampled runs have longer traces are sized and timed but
/// left out of the oracle probes. Every Tab. 5 run fits; tpo-tm's runs do
/// not, and the streaming checker spends seconds on each of them (see
/// README.md), which would dominate the traced run.
constexpr uint64_t MaxRecordedEvents = 20000;

/// Side measurements of the traced run, taken after the replay on a
/// sample of the same input: event counts, checked-vs-unchecked cost and
/// the two checkers' cost per event on recorded traces.
struct Probes {
  uint64_t AppRuns = 0, AppEvents = 0;
  double AppUntracedS = 0;
  /// Checked time, and unchecked time of the same (recordable) runs.
  double AppCheckedS = 0, CheckedBaseS = 0;
  uint64_t AppModelEvents = 0, LitmusModelEvents = 0, PosthocEvents = 0;
  double AppModelS = 0, LitmusModelS = 0, PosthocS = 0;
  uint64_t Unrecorded = 0; ///< Sampled runs left out of the oracle probes.
  size_t PeakLive = 0;
  uint64_t Retired = 0, Consumed = 0;
  std::vector<double> CompileMs;

  sim::ContextLease Ctx;
  model::StreamingChecker Checker;
  model::ConsistencyChecker Posthoc;

  void checkRecorded(const sim::EventTrace &Trace, bool App);
  void appCell(const harness::CampaignConfig &C, const sim::ChipProfile &Chip,
               const stress::Environment &Env, apps::AppKind App,
               unsigned Sample);
  void litmus(const sim::ChipProfile &Chip, const litmus::Program &P,
              uint64_t Seed, unsigned Runs);
  void compile(WorkloadKind K);
};

void Probes::checkRecorded(const sim::EventTrace &Trace, bool App) {
  Clock::time_point T0 = Clock::now();
  Checker.checkAll(Trace);
  const double Stream = secondsSince(T0);
  (App ? AppModelS : LitmusModelS) += Stream;
  (App ? AppModelEvents : LitmusModelEvents) += Trace.size();
  PeakLive = std::max(PeakLive, Checker.peakLiveEvents());
  Retired += Checker.retiredEvents();
  Consumed += Checker.consumedEvents();
  if (App)
    return; // Post-hoc replay is the litmus-sized reference checker.
  T0 = Clock::now();
  Posthoc.check(Trace);
  PosthocS += secondsSince(T0);
  PosthocEvents += Trace.size();
}

void Probes::appCell(const harness::CampaignConfig &C,
                     const sim::ChipProfile &Chip,
                     const stress::Environment &Env, apps::AppKind App,
                     unsigned Sample) {
  const uint64_t CellSeed =
      harness::campaignCellSeed(C.Seed, Chip, Env, App);
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  std::vector<uint64_t> Seeds;
  for (unsigned Run = 0; Run != Sample; ++Run)
    Seeds.push_back(Rng::deriveStream(CellSeed, Run));
  std::vector<apps::AppVerdict> V(Sample);
  sim::ExecutionContext &X = Ctx.get();

  // Unchecked, through the production dispatch (batched when lowered).
  Clock::time_point T0 = Clock::now();
  apps::runApplicationBatch(X, App, Chip, Env, Tuned, nullptr, Seeds.data(),
                            V.data(), Sample);
  const double Untraced = secondsSince(T0);
  AppUntracedS += Untraced;
  AppRuns += Sample;

  bool Recordable = true;
  for (uint64_t Seed : Seeds) {
    EventCounter Count;
    X.requestStreaming(&Count);
    apps::runApplicationOnce(X, App, Chip, Env, Tuned, nullptr, Seed);
    X.requestStreaming(nullptr);
    AppEvents += Count.N;
    Recordable = Recordable && Count.N <= MaxRecordedEvents;
  }
  if (!Recordable) {
    Unrecorded += Sample;
    return;
  }
  CheckedBaseS += Untraced;
  for (uint64_t Seed : Seeds) {
    T0 = Clock::now();
    Checker.begin();
    X.requestStreaming(&Checker);
    apps::runApplicationOnce(X, App, Chip, Env, Tuned, nullptr, Seed);
    X.requestStreaming(nullptr);
    Checker.finish();
    AppCheckedS += secondsSince(T0);

    X.requestTracing(true);
    apps::runApplicationOnce(X, App, Chip, Env, Tuned, nullptr, Seed);
    X.requestTracing(false);
    checkRecorded(X.trace(), /*App=*/true);
  }
}

void Probes::litmus(const sim::ChipProfile &Chip, const litmus::Program &P,
                    uint64_t Seed, unsigned Runs) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const auto Stress = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 0);
  litmus::LitmusRunner Runner(Chip, Seed);
  litmus::LitmusRunOpts Opts;
  Opts.Trace = true;
  for (unsigned Run = 0; Run != Runs; ++Run) {
    Runner.runOnce(P, 2 * Chip.PatchSizeWords, Stress, Opts);
    checkRecorded(Runner.trace(), /*App=*/false);
  }
}

void Probes::compile(WorkloadKind K) {
  // Plans are cached per thread: compile on a fresh one.
  std::thread([&] {
    for (const auto &[App, Chip] : loweredPlans(K)) {
      const Clock::time_point T0 = Clock::now();
      apps::compileApplication(App, *Chip, /*Policy=*/nullptr);
      CompileMs.push_back(secondsSince(T0) * 1e3);
    }
  }).join();
}

/// Aggregate of the spans of one name (and optional filter).
struct Agg {
  uint64_t Calls = 0, Work = 0, Tags = 0;
  double Total = 0;
  std::vector<double> Durs;

  double perWork(double Scale) const {
    return Work ? Total / static_cast<double>(Work) * Scale : 0;
  }
  double perCall(double Scale) const {
    return Calls ? Total / static_cast<double>(Calls) * Scale : 0;
  }
  double rate() const { return Total > 0 ? Work / Total : 0; }
  /// Percentile of call durations, in seconds.
  double pct(double Q) {
    std::sort(Durs.begin(), Durs.end());
    return percentile(Durs, Q);
  }
};

enum class Tagged { Any, No, Yes };

Agg aggregate(const Tracer &T, std::string_view Name,
              Tagged Filter = Tagged::Any) {
  Agg A;
  for (const Span &S : T.spans()) {
    if (Name != S.Name ||
        (Filter != Tagged::Any && (S.Tag != 0) != (Filter == Tagged::Yes)))
      continue;
    ++A.Calls;
    A.Work += S.Work;
    A.Tags += static_cast<uint64_t>(S.Tag);
    A.Total += S.seconds();
    A.Durs.push_back(S.seconds());
  }
  return A;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

std::vector<LayerMetric> layerMetrics(const TracedResult &R,
                                      const Probes &P) {
  const Tracer &T = R.Spans;
  const double Wall = R.TracedWallS;
  Agg Batched = aggregate(T, "apps.batched");
  Agg ScalarOk = aggregate(T, "apps.scalar", Tagged::No);
  Agg TimedOut = aggregate(T, "apps.scalar", Tagged::Yes);
  Agg Checked = aggregate(T, "litmus.checked");
  Agg AppCell = aggregate(T, "harness.app_cell");
  Agg LitmusCell = aggregate(T, "harness.litmus_cell");
  Agg Append = aggregate(T, "harness.shard.append");
  Agg Fuzz = aggregate(T, "fuzz.batch");
  Agg Shrink = aggregate(T, "fuzz.shrink");
  Agg Entry = aggregate(T, "harden.entry");
  Agg Attempt = aggregate(T, "harden.attempt");
  Agg CorpusIo = aggregate(T, "hunt.corpus.append");
  const Agg RoundDone = aggregate(T, "hunt.corpus.round_done");
  CorpusIo.Durs.insert(CorpusIo.Durs.end(), RoundDone.Durs.begin(),
                       RoundDone.Durs.end());
  const bool Hunt = R.Counts.Hunt;
  const double Compile =
      P.CompileMs.empty()
          ? 0
          : std::accumulate(P.CompileMs.begin(), P.CompileMs.end(), 0.0) /
                static_cast<double>(P.CompileMs.size());
  const double CorpusTotal = CorpusIo.Total + RoundDone.Total;
  return {
      {"apps.batched.us_per_run", "us", Batched.perWork(1e6)},
      {"apps.scalar.us_per_run", "us", ScalarOk.perCall(1e6)},
      {"apps.timeout.ms_per_run", "ms", TimedOut.perCall(1e3)},
      {"apps.timeout.time_share", "ratio", ratio(TimedOut.Total, Wall)},
      {"sim.events_per_run", "count",
       ratio(static_cast<double>(P.AppEvents), static_cast<double>(P.AppRuns))},
      {"apps.ns_per_event", "ns",
       ratio(P.AppUntracedS * 1e9, static_cast<double>(P.AppEvents))},
      {"litmus.batched.runs_per_s", "1/s",
       aggregate(T, "litmus.batched").rate()},
      {"litmus.checked.runs_per_s", "1/s", Checked.rate()},
      {"model.stream.ns_per_event.app", "ns",
       ratio(P.AppModelS * 1e9, static_cast<double>(P.AppModelEvents))},
      {"model.stream.ns_per_event.litmus", "ns",
       ratio(P.LitmusModelS * 1e9, static_cast<double>(P.LitmusModelEvents))},
      {"model.stream.peak_live_events", "count",
       static_cast<double>(P.PeakLive)},
      {"model.stream.retired_ratio", "ratio",
       ratio(static_cast<double>(P.Retired), static_cast<double>(P.Consumed))},
      {"model.posthoc.ns_per_event", "ns",
       ratio(P.PosthocS * 1e9, static_cast<double>(P.PosthocEvents))},
      {"model.checked_over_unchecked", "ratio",
       ratio(P.AppCheckedS, P.CheckedBaseS)},
      {"harness.app_cell_ms.p50", "ms", AppCell.pct(0.5) * 1e3},
      {"harness.app_cell_ms.p99", "ms", AppCell.pct(0.99) * 1e3},
      {"harness.litmus_cell_ms.p50", "ms", LitmusCell.pct(0.5) * 1e3},
      {"harness.litmus_cell_ms.p99", "ms", LitmusCell.pct(0.99) * 1e3},
      {"harness.shard.append_ms", "ms", Append.pct(0.5) * 1e3},
      {"harness.merge_ms", "ms", aggregate(T, "harness.merge").Total * 1e3},
      {"fuzz.batch.programs_per_s", "1/s", Fuzz.rate()},
      {"fuzz.shrink.ms_per_case", "ms", Shrink.perCall(1e3)},
      {"fuzz.shrink.accept_ratio", "ratio",
       ratio(static_cast<double>(R.Counts.ShrinkAccepted),
             static_cast<double>(R.Counts.ShrinkCandidates))},
      {"harden.ms_per_entry", "ms",
       ratio(Attempt.Total * 1e3, static_cast<double>(Entry.Calls))},
      {"harden.attempts_per_entry", "count",
       ratio(static_cast<double>(Attempt.Calls),
             static_cast<double>(Entry.Calls))},
      {"hunt.verify.runs_per_s", "1/s", Hunt ? Checked.rate() : 0},
      {"hunt.corpus.append_ms", "ms", CorpusIo.pct(0.5) * 1e3},
      {"hunt.yield", "ratio",
       ratio(static_cast<double>(R.Counts.NewEntries),
             static_cast<double>(R.Counts.ProgramsFuzzed))},
      {"hunt.dup_ratio", "ratio",
       ratio(static_cast<double>(R.Counts.Duplicates),
             static_cast<double>(R.Counts.Duplicates + R.Counts.NewEntries))},
      {"hunt.stage_share.fuzz", "ratio", Hunt ? ratio(Fuzz.Total, Wall) : 0},
      {"hunt.stage_share.shrink", "ratio",
       Hunt ? ratio(Shrink.Total, Wall) : 0},
      {"hunt.stage_share.harden", "ratio",
       Hunt ? ratio(Attempt.Total, Wall) : 0},
      {"hunt.stage_share.verify", "ratio",
       Hunt ? ratio(Checked.Total, Wall) : 0},
      {"hunt.stage_share.corpus", "ratio",
       Hunt ? ratio(CorpusTotal, Wall) : 0},
      {"setup.compile_ms", "ms", Compile},
      {"trace.overhead", "ratio",
       R.UntracedWallS > 0 ? R.TracedWallS / R.UntracedWallS - 1 : 0},
  };
}

/// One replay of the input; returns its report's bytes ("" on error).
std::string replayOnce(Replay &Rp, const WorkloadSpec &W, uint64_t Seed,
                       const std::string &Dir, bool &Completed,
                       std::string &Error, SimCounts &Counts) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  std::string Bytes;
  if (W.Kind == WorkloadKind::Hunt) {
    hunt::HuntReport R;
    Completed = Rp.hunt(huntConfig(Seed, Dir), R, &Error);
    Bytes = renderHunt(R);
    Counts = countHunt(R);
  } else if (W.Kind == WorkloadKind::Tab5Checked) {
    harness::CampaignReport R;
    Completed = Rp.fabric(campaignConfig(W.Kind, Seed), Dir, R, &Error);
    if (Completed) {
      Bytes = renderCampaign(R);
      Counts = countCampaign(R);
    }
  } else {
    const harness::CampaignReport R =
        Rp.campaign(campaignConfig(W.Kind, Seed));
    Completed = true;
    Bytes = renderCampaign(R);
    Counts = countCampaign(R);
  }
  std::filesystem::remove_all(Dir, EC);
  return Bytes;
}

void reconcile(const WorkloadSpec &W, const RepResult &Ref,
               const TracedResult &R, std::vector<std::string> &Fail) {
  const Tracer &T = R.Spans;
  if (!T.balanced())
    Fail.push_back("unclosed spans");
  double SelfSum = 0;
  for (double S : T.selfSeconds())
    SelfSum += S;
  if (SelfSum > R.TracedWallS * (1 + 1e-9))
    Fail.push_back("span self times sum to " + std::to_string(SelfSum) +
                   " s, more than the traced wall " +
                   std::to_string(R.TracedWallS) + " s");
  // A refused run stops mid-stage; runTraced's comparison with the
  // refused repetition covers it.
  if (!R.Completed || !Ref.Completed)
    return;
  const SimCounts &C = Ref.Counts;
  auto expect = [&](const char *What, uint64_t Spans, uint64_t Report) {
    if (Spans != Report)
      Fail.push_back(std::string(What) + ": spans add up to " +
                     std::to_string(Spans) + ", the report has " +
                     std::to_string(Report));
  };
  if (W.Kind == WorkloadKind::Hunt) {
    expect("programs fuzzed", aggregate(T, "fuzz.batch").Work,
           C.ProgramsFuzzed);
    expect("weak programs", aggregate(T, "fuzz.shrink").Calls,
           C.WeakPrograms);
    expect("shrink candidates", aggregate(T, "fuzz.shrink").Work,
           C.ShrinkCandidates);
    expect("shrink accepted", aggregate(T, "fuzz.shrink").Tags,
           C.ShrinkAccepted);
    expect("new entries", aggregate(T, "hunt.corpus.append").Calls,
           C.NewEntries);
    return;
  }
  const Agg Scalar = aggregate(T, "apps.scalar");
  const Agg Batched = aggregate(T, "apps.batched");
  expect("app runs (cells)", aggregate(T, "harness.app_cell").Work,
         C.AppRuns);
  expect("app runs (calls)", Scalar.Work + Batched.Work, C.AppRuns);
  expect("timeouts", Scalar.Tags + Batched.Tags, C.Timeouts);
  expect("litmus runs (cells)", aggregate(T, "harness.litmus_cell").Work,
         C.LitmusRuns);
  expect("litmus runs (calls)",
         aggregate(T, "litmus.batched").Work +
             aggregate(T, "litmus.checked").Work,
         C.LitmusRuns);
}

} // namespace

TracedResult runTraced(const WorkloadSpec &W, uint64_t Seed,
                       const RepResult &Ref, const std::string &ScratchDir) {
  TracedResult R;
  // The replay twice: recorder off (the overhead baseline), then on.
  // Both must reproduce the untraced report byte for byte.
  Tracer Off(false);
  std::vector<litmus::Program> Candidates;
  for (Tracer *T : {&Off, &R.Spans}) {
    Replay Rp(*T);
    bool Completed = false;
    std::string Error;
    SimCounts Counts;
    const Clock::time_point T0 = Clock::now();
    const std::string Bytes = replayOnce(Rp, W, Seed, ScratchDir, Completed,
                                         Error, Counts);
    const double Wall = secondsSince(T0);
    const char *Which = T->enabled() ? "traced" : "untraced";
    if (Completed != Ref.Completed || Error != Ref.Error ||
        Bytes != Ref.Report || !(Counts == Ref.Counts))
      R.Failures.push_back(std::string(Which) +
                           " replay differs from the repetition's report" +
                           (Error.empty() ? "" : " (" + Error + ")"));
    if (T->enabled()) {
      R.Completed = Completed;
      R.Error = Error;
      R.Counts = Counts;
      R.TracedWallS = Wall;
      Candidates = std::move(Rp.FirstCandidates);
    } else {
      R.UntracedWallS = Wall;
    }
  }
  reconcile(W, Ref, R, R.Failures);

  // Probes on a sample of the same input.
  Probes P;
  if (W.Kind == WorkloadKind::Hunt) {
    const sim::ChipProfile &Chip = *huntConfig(Seed, "").Chip;
    for (size_t I = 0; I != std::min<size_t>(Candidates.size(), 8); ++I)
      P.litmus(Chip, Candidates[I], Rng::deriveStream(Seed, I), 20);
  } else {
    const harness::CampaignConfig C = campaignConfig(W.Kind, Seed);
    const unsigned Sample = W.Kind == WorkloadKind::TpoHang ? 1 : 2;
    for (const sim::ChipProfile *Chip : C.Chips)
      for (const stress::Environment &Env : C.Envs)
        for (apps::AppKind App : C.Apps)
          P.appCell(C, *Chip, Env, App, Sample);
    for (const sim::ChipProfile *Chip : C.Chips)
      for (const litmus::Program *Test : C.LitmusTests)
        P.litmus(*Chip, *Test,
                 harness::campaignLitmusSeed(C.Seed, *Chip, *Test), 20);
    P.compile(W.Kind);
  }
  if (P.Unrecorded)
    R.Notes.push_back(
        "oracle probes left out " + std::to_string(P.Unrecorded) + " of " +
        std::to_string(P.AppRuns) + " sampled app runs (cells with a trace "
        "over " + std::to_string(MaxRecordedEvents) + " events)");
  R.Metrics = layerMetrics(R, P);
  return R;
}

} // namespace perfbench
