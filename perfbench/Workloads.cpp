//===- perfbench/Workloads.cpp - The benchmark's workloads ------------------===//

#include "Workloads.h"

#include "apps/AppCompile.h"
#include "harness/Merge.h"
#include "sim/ExecutionContext.h"
#include "support/Rng.h"

#include <filesystem>
#include <stdexcept>
#include <sstream>

using namespace gpuwmm;

namespace perfbench {

const std::vector<WorkloadSpec> &workloads() {
  // --jobs: 4, except the hunt's 2. Each hunt round shrinks its ~9 weak
  // cases in parallel and waits for the slowest, so at 4 jobs one
  // straggler case sets most of a round's time; 2 jobs measure steadier.
  // --batch: the CLI's default width (64) except where it would leave
  // --jobs idle. A fabric worker runs one cell at a time and parallelises
  // only over a cell's run chunks, so 40-run checked cells take width 10;
  // tpo-tm's 10-run cells take width 1 so the timed-out runs spread
  // evenly over the workers. Width never changes results, only chunking.
  static const std::vector<WorkloadSpec> All = {
      {"tab5-unchecked", WorkloadKind::Tab5Unchecked, 4, 64},
      {"tab5-checked", WorkloadKind::Tab5Checked, 4, 10},
      {"tpo-hang", WorkloadKind::TpoHang, 4, 1},
      {"hunt", WorkloadKind::Hunt, 2, 64},
  };
  return All;
}

const WorkloadSpec *findWorkload(std::string_view Name) {
  for (const WorkloadSpec &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

uint64_t inputSeed(uint64_t Seed, unsigned Rep) {
  // Below 2^63, so `gpuwmm campaign|hunt --seed=<input>` reproduces any
  // repetition.
  return Rng::deriveStream(Seed, Rep) >> 1;
}

namespace {

const sim::ChipProfile &chip(const char *Name) {
  const sim::ChipProfile *C = sim::ChipProfile::lookup(Name);
  if (!C)
    throw std::runtime_error(std::string("unknown chip ") + Name);
  return *C;
}

/// The nine apps that finish (tpo-tm is the tpo-hang workload's alone).
constexpr apps::AppKind Tab5Apps[] = {
    apps::AppKind::SdkRed,  apps::AppKind::SdkRedNf,
    apps::AppKind::CubScan, apps::AppKind::CubScanNf,
    apps::AppKind::CbeDot,  apps::AppKind::CbeHt,
    apps::AppKind::CtOctree, apps::AppKind::LsBh,
    apps::AppKind::LsBhNf};

constexpr const char *Tab5Litmus[] = {"MP", "SB", "LB", "IRIW", "WRC"};

bool neverErrs(apps::AppKind A) {
  return A == apps::AppKind::SdkRed || A == apps::AppKind::CubScan;
}

void removeDir(const std::string &Dir) {
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

} // namespace

harness::CampaignConfig campaignConfig(WorkloadKind K, uint64_t Seed) {
  harness::CampaignConfig C;
  C.Chips = {&chip("titan"), &chip("980")};
  for (const stress::Environment &Env : stress::Environment::all())
    C.Envs.push_back(Env);
  C.Seed = Seed;
  if (K == WorkloadKind::TpoHang) {
    C.Apps = {apps::AppKind::TpoTm};
    C.Runs = 10;
    return C;
  }
  C.Apps.assign(std::begin(Tab5Apps), std::end(Tab5Apps));
  for (const char *Name : Tab5Litmus)
    C.LitmusTests.push_back(litmus::findCatalogProgram(Name));
  if (K == WorkloadKind::Tab5Checked) {
    C.Runs = 40;
    C.OracleEvery = 1;
  } else {
    C.Runs = 300;
  }
  return C;
}

hunt::HuntConfig huntConfig(uint64_t Seed, const std::string &CorpusDir) {
  // `gpuwmm hunt --chip=titan --rounds=16 --programs=30` with every other
  // option at its CLI default.
  hunt::HuntConfig Cfg;
  Cfg.Chip = &chip("titan");
  Cfg.Rounds = 16;
  Cfg.Fuzz.Programs = 30;
  Cfg.Fuzz.RunsPerProgram = 40;
  Cfg.Distance = 2 * Cfg.Chip->PatchSizeWords;
  Cfg.ShrinkRuns = 200;
  Cfg.HardenRuns = 32;
  Cfg.StableRuns = 300;
  Cfg.VerifyRuns = 200;
  Cfg.Seed = Seed;
  Cfg.CorpusDir = CorpusDir;
  return Cfg;
}

std::vector<std::pair<apps::AppKind, const sim::ChipProfile *>>
loweredPlans(WorkloadKind K) {
  // Checked runs all take the scalar engine, and tpo-tm does not lower.
  std::vector<std::pair<apps::AppKind, const sim::ChipProfile *>> Plans;
  if (K != WorkloadKind::Tab5Unchecked)
    return Plans;
  const harness::CampaignConfig C = campaignConfig(K, 1);
  for (const sim::ChipProfile *Chip : C.Chips)
    for (apps::AppKind A : C.Apps)
      if (apps::appLowerable(A))
        Plans.emplace_back(A, Chip);
  return Plans;
}

void warmThread(WorkloadKind K) {
  sim::ContextLease Ctx;
  for (const auto &[App, Chip] : loweredPlans(K))
    apps::compileApplication(App, *Chip, /*Policy=*/nullptr);
}

uint64_t SimCounts::executions() const {
  return Hunt ? FuzzRuns + CrossChecks + OracleChecked
              : AppRuns + LitmusRuns;
}

uint64_t SimCounts::entries() const {
  return Hunt ? NewEntries : Errors + LitmusWeak;
}

SimCounts countCampaign(const harness::CampaignReport &R) {
  SimCounts S;
  for (const harness::CampaignCell &Cell : R.Cells) {
    S.AppRuns += Cell.Result.Runs;
    S.Errors += Cell.Result.Errors;
    S.Timeouts += Cell.Result.Timeouts;
    S.OracleChecked += Cell.OracleChecked;
    S.OracleViolations += Cell.OracleViolations;
  }
  for (const harness::LitmusCampaignCell &Cell : R.LitmusCells) {
    S.LitmusRuns += uint64_t{Cell.Runs} * Cell.Chip->NumBanks;
    S.LitmusWeak += Cell.Weak;
    S.OracleChecked += Cell.OracleChecked;
    S.OracleViolations += Cell.OracleViolations;
  }
  return S;
}

SimCounts countHunt(const hunt::HuntReport &R) {
  SimCounts S;
  S.Hunt = true;
  S.ProgramsFuzzed = R.ProgramsFuzzed;
  S.FuzzRuns = R.ProgramsFuzzed * R.Config.Fuzz.RunsPerProgram;
  S.WeakPrograms = R.WeakPrograms;
  S.NotReproduced = R.NotReproduced;
  S.ShrinkCandidates = R.ShrinkCandidates;
  S.ShrinkAccepted = R.ShrinkAccepted;
  S.CrossChecks = R.CrossChecks;
  S.Duplicates = R.Duplicates;
  S.NewEntries = R.NewEntries;
  S.OracleChecked = R.OracleChecked;
  return S;
}

void checkCampaign(WorkloadKind K, const harness::CampaignReport &R,
                   std::vector<std::string> &Flagged,
                   std::vector<std::string> &Wrong) {
  const harness::CampaignConfig &C = R.Config;
  // Tab. 5 as AppsTests asserts it. Their own fences keep sdk-red and
  // cub-scan error-free in any sample. "Errs under sys-str+" and "no-str-
  // makes no app effective" are rates, which AppsTests samples with about
  // 120 runs: the least provocable app (ls-bh) errs in a few percent of
  // sys-str+ runs, and a single native error makes a 10-run cell
  // "effective". So those two are checked on cells of at least that size.
  const bool Sampled = C.Runs >= 120;
  for (const harness::CampaignCell &Cell : R.Cells) {
    const std::string Where = std::string(Cell.Chip->ShortName) + "/" +
                              Cell.Env.name() + "/" +
                              apps::appName(Cell.App);
    if (neverErrs(Cell.App) && Cell.Result.Errors != 0)
      Wrong.push_back(Where + ": " + std::to_string(Cell.Result.Errors) +
                      " errors, but its own fences suffice (Tab. 5)");
    if (Sampled && Cell.Env.name() == "sys-str+" &&
        std::string_view(Cell.Chip->ShortName) == "titan" &&
        !neverErrs(Cell.App) && Cell.Result.Errors == 0)
      Wrong.push_back(Where + ": no errors under sys-str+ (Tab. 5)");
    if (C.OracleEvery && Cell.OracleChecked != Cell.Result.Runs)
      Wrong.push_back(Where + ": oracle checked " +
                      std::to_string(Cell.OracleChecked) + " of " +
                      std::to_string(Cell.Result.Runs) + " runs");
    if (Cell.OracleViolations)
      Flagged.push_back(Where + ": " +
                        std::to_string(Cell.OracleViolations) +
                        " oracle violations");
  }
  for (const harness::LitmusCampaignCell &Cell : R.LitmusCells) {
    const std::string Where =
        std::string(Cell.Chip->ShortName) + "/" + Cell.Test->Name;
    const unsigned Execs = Cell.Runs * Cell.Chip->NumBanks;
    if (C.OracleEvery && Cell.OracleChecked != Execs)
      Wrong.push_back(Where + ": oracle checked " +
                      std::to_string(Cell.OracleChecked) + " of " +
                      std::to_string(Execs) + " runs");
    if (Cell.OracleViolations)
      Flagged.push_back(Where + ": " +
                        std::to_string(Cell.OracleViolations) +
                        " oracle violations");
  }
  for (size_t Ch = 0; Sampled && Ch != C.Chips.size(); ++Ch)
    for (size_t E = 0; E != C.Envs.size(); ++E)
      if (C.Envs[E].name() == "no-str-" && R.summary(Ch, E).AppsEffective)
        Wrong.push_back(std::string(C.Chips[Ch]->ShortName) +
                        "/no-str-: " +
                        std::to_string(R.summary(Ch, E).AppsEffective) +
                        " apps effective, Tab. 5 has none");
  // AppFindingsTest.TpoTmCanTimeOut: the workload's reason to exist.
  if (K == WorkloadKind::TpoHang && countCampaign(R).Timeouts == 0)
    Wrong.push_back("tpo-tm never timed out: the workload has no hung runs");
}

std::string renderCampaign(const harness::CampaignReport &R) {
  std::ostringstream OS;
  harness::writeCampaignJson(R, OS);
  return OS.str();
}

std::string renderHunt(const hunt::HuntReport &R) {
  std::ostringstream OS;
  hunt::writeHuntJson(R, OS);
  return OS.str();
}

RepResult runRepetition(const WorkloadSpec &W, uint64_t Seed,
                        ThreadPool &Pool, const std::string &ScratchDir) {
  RepResult Out;
  removeDir(ScratchDir);
  if (W.Kind == WorkloadKind::Hunt) {
    const hunt::HuntConfig Cfg = huntConfig(Seed, ScratchDir);
    hunt::HuntReport Report;
    const Clock::time_point T0 = Clock::now();
    Out.Completed = hunt::runHunt(Cfg, &Pool, Report, &Out.Error);
    Out.Report = renderHunt(Report);
    Out.WallS = secondsSince(T0);
    Out.Counts = countHunt(Report);
    if (Out.Completed && !Report.clean())
      Out.Flagged.push_back("hardened corpus is not oracle-clean");
  } else if (W.Kind == WorkloadKind::Tab5Checked) {
    // A sharded fabric worker, then the merge `gpuwmm report` performs.
    const harness::CampaignConfig Config = campaignConfig(W.Kind, Seed);
    harness::FabricOptions FOpts;
    FOpts.Dir = ScratchDir;
    harness::FabricOutcome Fabric;
    harness::CampaignReport Report;
    harness::MergeStats Stats;
    const Clock::time_point T0 = Clock::now();
    Out.Completed =
        harness::runCampaignFabric(Config, FOpts, &Pool, Fabric,
                                   &Out.Error) &&
        harness::mergeCampaignShards(ScratchDir, Report, Stats, &Out.Error);
    if (Out.Completed)
      Out.Report = renderCampaign(Report);
    Out.WallS = secondsSince(T0);
    if (Out.Completed) {
      Out.Counts = countCampaign(Report);
      checkCampaign(W.Kind, Report, Out.Flagged, Out.Wrong);
    }
  } else {
    const harness::CampaignConfig Config = campaignConfig(W.Kind, Seed);
    const Clock::time_point T0 = Clock::now();
    const harness::CampaignReport Report = harness::runCampaign(Config, &Pool);
    Out.Report = renderCampaign(Report);
    Out.WallS = secondsSince(T0);
    Out.Completed = true;
    Out.Counts = countCampaign(Report);
    checkCampaign(W.Kind, Report, Out.Flagged, Out.Wrong);
  }
  removeDir(ScratchDir);
  return Out;
}

} // namespace perfbench
