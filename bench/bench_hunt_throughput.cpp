//===- bench/bench_hunt_throughput.cpp - Hunt pipeline throughput ------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Measures the `gpuwmm hunt` pipeline (DESIGN.md Sec. 18) in programs/s:
//
//  * fuzz-batch: the hunt's fuzz stage alone — fuzzBatch through
//    LitmusRunner's batched engine, the throughput every hunt round pays
//    per generated program. This is the guarded arm: with a baseline JSON supplied
//    (--baseline=FILE or GPUWMM_BENCH_BASELINE) a fuzz_programs_per_sec
//    regression beyond 2% hard-fails, keeping the mining loop's dominant
//    stage honest. The committed reference lives in bench/baselines/
//    (same-machine comparisons only; see its README).
//  * full loop: an in-memory bounded hunt — fuzz, shrink, dedupe, harden
//    and oracle-verify end to end. Reported, not baseline-gated (entry
//    yield makes the rate config-sensitive); the machine-independent gate
//    is that the hunt succeeds and its hardened corpus is oracle-clean.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramFuzzer.h"
#include "hunt/Hunt.h"
#include "sim/ChipProfile.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

using namespace gpuwmm;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Extracts "fuzz_programs_per_sec": <number> from a baseline JSON (no
/// JSON dependency; the bench writes the field itself).
double baselineFuzzProgramsPerSec(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "error: cannot read baseline '%s'\n", Path.c_str());
    return -1.0;
  }
  std::ostringstream Text;
  Text << IS.rdbuf();
  const std::string Key = "\"fuzz_programs_per_sec\": ";
  const size_t At = Text.str().find(Key);
  if (At == std::string::npos) {
    std::fprintf(stderr, "error: no fuzz_programs_per_sec in '%s'\n",
                 Path.c_str());
    return -1.0;
  }
  return std::strtod(Text.str().c_str() + At + Key.size(), nullptr);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const auto &Chip = *sim::ChipProfile::lookup("titan");

  // --- Guarded arm: the fuzz stage at hunt-default program shape ----------
  fuzz::BatchConfig BC;
  BC.Programs = scaledCount(400, 40);
  BC.RunsPerProgram = 40;

  // Warm the thread-local context pool so the timed batch pays no
  // first-run allocation.
  {
    fuzz::BatchConfig Warm = BC;
    Warm.Programs = 10;
    (void)fuzz::fuzzBatch(Chip, Warm, 7);
  }

  double T = now();
  const auto Batch = fuzz::fuzzBatch(Chip, BC, 7);
  const double FuzzSeconds = now() - T;
  unsigned WeakFound = 0;
  for (const fuzz::BatchEntry &E : Batch)
    if (E.R.WeakOutcomes)
      ++WeakFound;
  const double FuzzRate = BC.Programs / FuzzSeconds;

  // --- Reported arm: the complete closed loop, in-memory corpus ----------
  hunt::HuntConfig Cfg;
  Cfg.Chip = &Chip;
  Cfg.Rounds = 3;
  Cfg.Fuzz.Programs = scaledCount(20, 4);
  Cfg.Fuzz.RunsPerProgram = 40;
  Cfg.Distance = 2 * Chip.PatchSizeWords;
  Cfg.ShrinkRuns = scaledCount(200, 40);
  Cfg.HardenRuns = 32;
  Cfg.StableRuns = scaledCount(300, 60);
  Cfg.VerifyRuns = scaledCount(200, 40);
  Cfg.Seed = 7;

  hunt::HuntReport Report;
  std::string Err;
  T = now();
  const bool HuntOk = hunt::runHunt(Cfg, nullptr, Report, &Err);
  const double HuntSeconds = now() - T;
  if (!HuntOk)
    std::fprintf(stderr, "error: hunt failed: %s\n", Err.c_str());
  const bool Clean = HuntOk && Report.clean();
  const double HuntRate =
      HuntSeconds > 0.0 ? Report.ProgramsFuzzed / HuntSeconds : 0.0;

  std::printf("hunt throughput: %u-program fuzz batch, %u-round full loop, "
              "seed 7\n\n",
              BC.Programs, Cfg.Rounds);
  Table Tab({"stage", "programs", "seconds", "programs/s", "notes"});
  Tab.addRow({"fuzz-batch", std::to_string(BC.Programs),
              formatDouble(FuzzSeconds, 3), formatDouble(FuzzRate, 0),
              std::to_string(WeakFound) + " weak"});
  Tab.addRow({"full loop",
              std::to_string(static_cast<unsigned>(Report.ProgramsFuzzed)),
              formatDouble(HuntSeconds, 3), formatDouble(HuntRate, 0),
              std::to_string(Report.Entries.size()) + " entries, " +
                  (Clean ? "clean" : "NOT CLEAN")});
  Tab.print(std::cout);

  // Optional committed-baseline guard for the fuzz stage (>2% regression
  // fails). Same-machine comparisons only — never enabled blindly in CI.
  bool BaselineOk = true;
  std::string BaselinePath = Opts.getString("baseline", "");
  if (BaselinePath.empty())
    if (const char *Env = std::getenv("GPUWMM_BENCH_BASELINE"))
      BaselinePath = Env;
  if (!BaselinePath.empty()) {
    const double Reference = baselineFuzzProgramsPerSec(BaselinePath);
    if (Reference <= 0.0) {
      BaselineOk = false;
    } else {
      const double Ratio = FuzzRate / Reference;
      BaselineOk = Ratio >= 0.98;
      std::printf("\nfuzz batch vs baseline %s: %.0f vs %.0f programs/s "
                  "(%+.1f%%) -> %s\n",
                  BaselinePath.c_str(), FuzzRate, Reference,
                  100.0 * (Ratio - 1.0),
                  BaselineOk ? "ok" : "REGRESSION (>2%)");
    }
  }

  std::printf("\n{\"bench\": \"hunt_throughput\", \"fuzz_programs\": %u, "
              "\"fuzz_programs_per_sec\": %.0f, \"fuzz_weak\": %u, "
              "\"hunt_programs\": %llu, \"hunt_programs_per_sec\": %.0f, "
              "\"hunt_entries\": %zu, \"clean\": %s}\n",
              BC.Programs, FuzzRate, WeakFound,
              static_cast<unsigned long long>(Report.ProgramsFuzzed),
              HuntRate, Report.Entries.size(), Clean ? "true" : "false");

  // The clean corpus is the correctness contract; the baseline guard is
  // the fuzz-stage-unharmed contract. Full-loop rate is reported only.
  return Clean && BaselineOk ? 0 : 1;
}
