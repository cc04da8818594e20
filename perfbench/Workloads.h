//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four perfbench workloads (README.md in this directory says why each
/// exists), one untraced repetition of each — the same library calls the
/// `gpuwmm campaign` and `gpuwmm hunt` commands make — and the output
/// checks every repetition must pass.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_PERFBENCH_WORKLOADS_H
#define GPUWMM_PERFBENCH_WORKLOADS_H

#include "harness/Campaign.h"
#include "hunt/Hunt.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

enum class WorkloadKind { Tab5Unchecked, Tab5Checked, TpoHang, Hunt };

struct WorkloadSpec {
  const char *Name;
  WorkloadKind Kind;
  unsigned Jobs;  ///< Fixed --jobs (clamped to the host's cores).
  unsigned Batch; ///< Fixed --batch: the batched engine's width and the
                  ///< campaign's run-chunk size.
};

const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(std::string_view Name);

/// The workload input of repetition \p Rep of a run at --seed \p Seed.
/// Repetitions draw distinct inputs, so a run's median spans many inputs.
uint64_t inputSeed(uint64_t Seed, unsigned Rep);

/// The campaign grid of a campaign workload at workload seed \p Seed.
gpuwmm::harness::CampaignConfig campaignConfig(WorkloadKind K, uint64_t Seed);

/// The hunt configuration at workload seed \p Seed: `gpuwmm hunt` with
/// 16 rounds x 30 programs and an on-disk corpus in \p CorpusDir.
gpuwmm::hunt::HuntConfig huntConfig(uint64_t Seed,
                                    const std::string &CorpusDir);

/// The (app, chip) plans a workload's unchecked runs compile lazily on
/// each worker thread (its per-thread set-up).
std::vector<std::pair<gpuwmm::apps::AppKind, const gpuwmm::sim::ChipProfile *>>
loweredPlans(WorkloadKind K);

/// The lazy per-thread set-up a fresh worker pays on its first runs:
/// lease an execution context and compile the workload's plans.
void warmThread(WorkloadKind K);

/// Simulated statistics of one repetition. Counts, not times: identical
/// for every repetition of one input, on any host and --jobs.
struct SimCounts {
  bool Hunt = false; ///< Which of the two field groups below is filled.
  // Campaign workloads.
  uint64_t AppRuns = 0, Errors = 0, Timeouts = 0;
  uint64_t LitmusRuns = 0; ///< Executions: runs x stress regions.
  uint64_t LitmusWeak = 0; ///< Summed best-region weak counts.
  uint64_t OracleChecked = 0, OracleViolations = 0;
  // Hunt.
  uint64_t ProgramsFuzzed = 0, FuzzRuns = 0, WeakPrograms = 0;
  uint64_t NotReproduced = 0, ShrinkCandidates = 0, ShrinkAccepted = 0;
  uint64_t CrossChecks = 0, Duplicates = 0, NewEntries = 0;

  /// Executions the report accounts for: app and litmus runs of a
  /// campaign; fuzzing runs, shrink cross-checked runs and oracle-checked
  /// verify runs of a hunt.
  uint64_t executions() const;
  /// Result entries: erroneous app runs plus weak litmus outcomes of a
  /// campaign; new hardened corpus entries of a hunt.
  uint64_t entries() const;

  bool operator==(const SimCounts &) const = default;
};

SimCounts countCampaign(const gpuwmm::harness::CampaignReport &R);
SimCounts countHunt(const gpuwmm::hunt::HuntReport &R);

/// The output checks of a campaign report, split by who detects the
/// failure: \p Flagged gets what the program itself reports as a failure
/// (the CLI exits 1: oracle violations), \p Wrong what only the benchmark
/// detects (outputs contradicting Tab. 5 or the oracle's coverage).
void checkCampaign(WorkloadKind K, const gpuwmm::harness::CampaignReport &R,
                   std::vector<std::string> &Flagged,
                   std::vector<std::string> &Wrong);

struct RepResult {
  /// The library returned a report; false when it refused with an error
  /// (\ref Error), as the CLI exits nonzero without a report.
  bool Completed = false;
  std::string Error;
  std::string Report; ///< The JSON report's bytes.
  double WallS = 0;
  SimCounts Counts;
  /// Failures the report itself states (the CLI would exit 1).
  std::vector<std::string> Flagged;
  /// Wrong outputs only the benchmark's checks detect.
  std::vector<std::string> Wrong;

  bool failed() const {
    return !Completed || !Flagged.empty() || !Wrong.empty();
  }
};

/// One untraced repetition of \p W at workload seed \p Seed on \p Pool,
/// with its outputs checked. \p ScratchDir holds the shard store or corpus
/// (created and removed here).
RepResult runRepetition(const WorkloadSpec &W, uint64_t Seed,
                        gpuwmm::ThreadPool &Pool,
                        const std::string &ScratchDir);

/// Renders a campaign or hunt report exactly as the CLI prints it.
std::string renderCampaign(const gpuwmm::harness::CampaignReport &R);
std::string renderHunt(const gpuwmm::hunt::HuntReport &R);

} // namespace perfbench

#endif // GPUWMM_PERFBENCH_WORKLOADS_H
