//===- perfbench/main.cpp - The gpuwmm end-to-end benchmark -----------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--record FILE] [--commit ID] [--source-digest D]
//           [--setup-only 1]
//
// Untraced (--trace 0): sets up a fixed --jobs pool, repeats the workload
// on it for S seconds, one input per repetition, re-runs the first input
// to check the report repeats byte for byte, and prints the end-to-end
// metrics. Traced (--trace 1): replays the first input call by call
// (Traced.h) and prints the per-layer metrics. Either way the last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --setup-only 1 does only the per-process set-up, which run.py times
// over fresh processes for setup_s. README.md in this directory documents
// the metrics and workloads.
//
//===----------------------------------------------------------------------===//

#include "Traced.h"
#include "Workloads.h"

#include "harness/ShardStore.h"
#include "sim/BatchExec.h"
#include "support/Json.h"

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gpuwmm;
using namespace perfbench;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/perfbench-work";
  std::string Record;
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
  bool SetupOnly = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--record FILE] "
               "[--commit ID] [--source-digest D] [--setup-only 1]\nworkloads:",
               Why);
  for (const WorkloadSpec &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || *End)
        usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (Value.empty() || *End || !(A.Seconds > 0) || A.Seconds > 600)
        usage("--seconds takes a number in (0, 600]");
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Value == "1";
    } else if (Flag == "--work-dir") {
      A.WorkDir = Value;
    } else if (Flag == "--record") {
      A.Record = Value;
    } else if (Flag == "--commit") {
      A.Commit = Value;
    } else if (Flag == "--source-digest") {
      A.SourceDigest = Value;
    } else if (Flag == "--setup-only") {
      A.SetupOnly = Value == "1";
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!findWorkload(A.Workload))
    usage(("unknown workload '" + A.Workload + "'").c_str());
  return A;
}

/// Host fingerprint: records that differ in any field but the seed, commit
/// and source digest are not comparable.
struct Fingerprint {
  unsigned NProc = 0;
  std::string Compiler = PERFBENCH_COMPILER;
  std::string BuildType = PERFBENCH_BUILD_TYPE;
  unsigned Jobs = 0, Batch = 0;
  uint64_t Seed = 0;
  std::string Commit, SourceDigest;
};

/// The process's resident-set high-water mark. Read from VmHWM rather than
/// getrusage: ru_maxrss carries over the launching process's peak across
/// exec.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB.
  return 0;
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Builds a fresh pool on the calling thread and runs every worker's lazy
/// per-thread set-up, so the first timed repetition is warm. A barrier
/// holds each index until all --jobs threads have one, so every thread of
/// the pool warms exactly once.
std::unique_ptr<ThreadPool> setUp(const WorkloadSpec &W, unsigned Jobs) {
  auto Pool = std::make_unique<ThreadPool>(Jobs);
  std::barrier Sync(static_cast<std::ptrdiff_t>(Jobs));
  Pool->parallelFor(Jobs, [&](size_t) {
    Sync.arrive_and_wait();
    warmThread(W.Kind);
  });
  return Pool;
}

void countsJson(std::ostream &OS, const SimCounts &C) {
  if (C.Hunt)
    OS << "{\"programs_fuzzed\": " << C.ProgramsFuzzed
       << ", \"fuzz_runs\": " << C.FuzzRuns
       << ", \"weak_programs\": " << C.WeakPrograms
       << ", \"not_reproduced\": " << C.NotReproduced
       << ", \"shrink_candidates\": " << C.ShrinkCandidates
       << ", \"shrink_accepted\": " << C.ShrinkAccepted
       << ", \"cross_checks\": " << C.CrossChecks
       << ", \"duplicates\": " << C.Duplicates
       << ", \"new_entries\": " << C.NewEntries
       << ", \"oracle_checked\": " << C.OracleChecked << "}";
  else
    OS << "{\"app_runs\": " << C.AppRuns << ", \"errors\": " << C.Errors
       << ", \"timeouts\": " << C.Timeouts
       << ", \"litmus_runs\": " << C.LitmusRuns
       << ", \"litmus_weak\": " << C.LitmusWeak
       << ", \"oracle_checked\": " << C.OracleChecked
       << ", \"oracle_violations\": " << C.OracleViolations << "}";
}

std::string countsLine(const SimCounts &C) {
  std::ostringstream OS;
  countsJson(OS, C);
  return OS.str();
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// {"name": {"value": V, "unit": U}, ...} with every digit of each value.
void metricsJson(std::ostream &OS, const std::vector<Metric> &Metrics) {
  OS << "{";
  for (size_t I = 0; I != Metrics.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Metrics[I].Name
       << "\": {\"value\": " << num(Metrics[I].Value) << ", \"unit\": \""
       << Metrics[I].Unit << "\"}";
  OS << "}";
}

struct Outcome {
  unsigned Attempted = 0, Failed = 0;
  bool Correct = true;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Failures, one line each.
};

/// Tallies one operation. Refusals and failures the program reports
/// itself are failed operations; wrong outputs only the benchmark's checks
/// detect also make the run incorrect.
void tally(Outcome &O, const RepResult &R, const std::string &What) {
  ++O.Attempted;
  O.Failed += R.failed();
  O.Correct = O.Correct && R.Wrong.empty();
  if (!R.Completed)
    O.Notes.push_back(What + ": refused: " + R.Error);
  for (const std::string &F : R.Flagged)
    O.Notes.push_back(What + ": failed: " + F);
  for (const std::string &F : R.Wrong)
    O.Notes.push_back(What + ": wrong output: " + F);
}

const char *status(const RepResult &R) {
  return !R.Completed        ? "refused"
         : !R.Wrong.empty()   ? "wrong"
         : !R.Flagged.empty() ? "failed"
                              : "ok";
}

/// --setup-only: the one-time work a fresh process pays before its first
/// repetition — the pool with every worker's per-thread set-up, plus the
/// shard store a fabric worker or the corpus a hunt opens. run.py times
/// whole processes of this mode for setup_s.
int setupOnly(const WorkloadSpec &W, unsigned Jobs,
              const std::string &Scratch) {
  std::unique_ptr<ThreadPool> Pool = setUp(W, Jobs);
  std::string Err;
  bool Ok = true;
  if (W.Kind == WorkloadKind::Tab5Checked) {
    Ok = harness::ShardStore::open(Scratch, campaignConfig(W.Kind, 1), &Err)
             .has_value();
  } else if (W.Kind == WorkloadKind::Hunt) {
    hunt::Corpus Corpus;
    hunt::Corpus::OpenOptions CO;
    CO.Dir = Scratch;
    Ok = hunt::Corpus::open(CO, huntConfig(1, Scratch).manifest(), Corpus,
                            &Err);
  }
  std::error_code EC;
  std::filesystem::remove_all(Scratch, EC);
  if (!Ok)
    std::fprintf(stderr, "error: %s\n", Err.c_str());
  return Ok ? 0 : 1;
}

void writeRecord(const std::string &Path, const Args &A,
                 const WorkloadSpec &W, const Fingerprint &F,
                 const Outcome &O, const std::vector<RepResult> &Reps,
                 const std::vector<uint64_t> &Inputs,
                 const TracedResult *Traced) {
  std::ofstream OS(Path);
  OS << "{\n  \"schema\": \"perfbench-record-v1\",\n"
     << "  \"workload\": \"" << W.Name << "\",\n"
     << "  \"trace\": " << (A.Trace ? 1 : 0) << ",\n"
     << "  \"fingerprint\": {\"nproc\": " << F.NProc << ", \"compiler\": \""
     << jsonEscape(F.Compiler) << "\", \"build_type\": \""
     << jsonEscape(F.BuildType) << "\", \"jobs\": " << F.Jobs
     << ", \"batch\": " << F.Batch << ", \"seed\": " << F.Seed
     << ", \"commit\": \"" << jsonEscape(F.Commit)
     << "\", \"source_digest\": \"" << jsonEscape(F.SourceDigest)
     << "\"},\n"
     << "  \"correct\": " << (O.Correct ? "true" : "false")
     << ", \"attempted\": " << O.Attempted << ", \"failed\": " << O.Failed
     << ",\n  \"metrics\": ";
  metricsJson(OS, O.Metrics);
  OS << ",\n  \"notes\": [";
  for (size_t I = 0; I != O.Notes.size(); ++I)
    OS << (I ? ", " : "") << "\"" << jsonEscape(O.Notes[I]) << "\"";
  OS << "],\n  \"repetitions\": [";
  for (size_t I = 0; I != Reps.size(); ++I) {
    OS << (I ? "," : "") << "\n    {\"input_seed\": " << Inputs[I]
       << ", \"wall_s\": " << num(Reps[I].WallS)
       << ", \"completed\": " << (Reps[I].Completed ? "true" : "false")
       << ", \"counts\": ";
    countsJson(OS, Reps[I].Counts);
    OS << "}";
  }
  OS << "\n  ]";
  if (Traced) {
    OS << ",\n  \"spans\": [";
    const std::vector<Span> &S = Traced->Spans.spans();
    for (size_t I = 0; I != S.size(); ++I)
      OS << (I ? "," : "") << "\n    {\"name\": \"" << S[I].Name
         << "\", \"start_ns\": " << S[I].StartNs
         << ", \"end_ns\": " << S[I].EndNs << ", \"parent\": " << S[I].Parent
         << ", \"workload\": \"" << W.Name << "\", \"item\": \""
         << jsonEscape(S[I].Item) << "\", \"work\": " << S[I].Work
         << ", \"tag\": " << S[I].Tag << "}";
    OS << "\n  ]";
  }
  OS << "\n}\n";
}

/// Per-span-name table of the traced run: calls, p50/p99, total and self.
void printSpanTable(const Tracer &T) {
  const std::vector<double> Self = T.selfSeconds();
  std::map<std::string, std::vector<double>> Durs;
  std::map<std::string, double> SelfBy;
  for (size_t I = 0; I != T.spans().size(); ++I) {
    Durs[T.spans()[I].Name].push_back(T.spans()[I].seconds());
    SelfBy[T.spans()[I].Name] += Self[I];
  }
  std::printf("%-26s %9s %11s %11s %10s %10s\n", "span", "calls", "p50_ms",
              "p99_ms", "total_s", "self_s");
  for (auto &[Name, D] : Durs) {
    std::sort(D.begin(), D.end());
    double Total = 0;
    for (double X : D)
      Total += X;
    std::printf("%-26s %9zu %11.4f %11.4f %10.4f %10.4f\n", Name.c_str(),
                D.size(), percentile(D, 0.5) * 1e3, percentile(D, 0.99) * 1e3,
                Total, SelfBy[Name]);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  const WorkloadSpec &W = *findWorkload(A.Workload);

  Fingerprint F;
  F.NProc = std::max(1u, std::thread::hardware_concurrency());
  F.Jobs = std::min(W.Jobs, F.NProc);
  F.Batch = W.Batch;
  F.Seed = A.Seed;
  F.Commit = A.Commit;
  F.SourceDigest = A.SourceDigest;
  // Pin what the CLI would otherwise take from GPUWMM_* variables.
  sim::setEngineMode(sim::EngineMode::Auto);
  sim::setDefaultBatchWidth(W.Batch);

  std::error_code EC;
  std::filesystem::create_directories(A.WorkDir, EC);
  const std::string Scratch =
      A.WorkDir + "/" + W.Name + "-" + std::to_string(::getpid());

  if (A.SetupOnly)
    return setupOnly(W, F.Jobs, Scratch);

  std::printf("perfbench %s seed=%llu trace=%d | nproc=%u jobs=%u batch=%u "
              "%s %s commit=%s source=%s\n",
              W.Name, static_cast<unsigned long long>(A.Seed), A.Trace ? 1 : 0,
              F.NProc, F.Jobs, F.Batch, F.Compiler.c_str(),
              F.BuildType.c_str(), F.Commit.c_str(), F.SourceDigest.c_str());

  Outcome O;
  std::vector<RepResult> Reps;
  std::vector<uint64_t> Inputs;
  std::unique_ptr<TracedResult> Traced;
  std::unique_ptr<ThreadPool> Pool = setUp(W, F.Jobs);
  if (A.Trace) {
    Inputs.push_back(inputSeed(A.Seed, 0));
    Reps.push_back(runRepetition(W, Inputs[0], *Pool, Scratch));
    Traced = std::make_unique<TracedResult>(
        runTraced(W, Inputs[0], Reps[0], Scratch));
  } else {
    // Distinct inputs until the time is up (at least three), then the
    // first input again: its report must repeat byte for byte.
    const Clock::time_point Start = Clock::now();
    for (unsigned I = 0; I < 3 || secondsSince(Start) < A.Seconds; ++I) {
      Inputs.push_back(inputSeed(A.Seed, I));
      Reps.push_back(runRepetition(W, Inputs.back(), *Pool, Scratch));
    }
    Inputs.push_back(Inputs[0]);
    Reps.push_back(runRepetition(W, Inputs[0], *Pool, Scratch));
  }
  Pool.reset();
  std::filesystem::remove_all(Scratch, EC);

  for (size_t I = 0; I != Reps.size(); ++I)
    tally(O, Reps[I], "input " + std::to_string(Inputs[I]));

  std::printf("%-22s %10s %12s %9s  %s\n", "input_seed", "wall_s", "runs",
              "entries", "status");
  for (size_t I = 0; I != Reps.size(); ++I)
    std::printf("%-22llu %10.4f %12llu %9llu  %s\n",
                static_cast<unsigned long long>(Inputs[I]), Reps[I].WallS,
                static_cast<unsigned long long>(Reps[I].Counts.executions()),
                static_cast<unsigned long long>(Reps[I].Counts.entries()),
                status(Reps[I]));
  std::printf("simulated counts of input %llu (repeat exactly; the model "
              "is numerically unvalidated: no reference numbers): %s\n",
              static_cast<unsigned long long>(Inputs[0]),
              countsLine(Reps[0].Counts).c_str());

  if (Traced) {
    ++O.Attempted;
    if (!Traced->Completed || !Traced->Failures.empty())
      ++O.Failed;
    if (!Traced->Failures.empty())
      O.Correct = false;
    for (const std::string &Fail : Traced->Failures)
      O.Notes.push_back("traced replay: " + Fail);
    std::printf("traced replay: %.4f s with spans, %.4f s without, %zu "
                "spans, reconciliation %s\n",
                Traced->TracedWallS, Traced->UntracedWallS,
                Traced->Spans.spans().size(),
                Traced->Failures.empty() ? "ok" : "FAILED");
    printSpanTable(Traced->Spans);
    for (const std::string &N : Traced->Notes)
      std::printf("%s\n", N.c_str());
    for (const LayerMetric &M : Traced->Metrics)
      O.Metrics.push_back({M.Name, M.Unit, M.Value});
  } else {
    // Means over the distinct inputs' completed repetitions (all of them
    // if none completed); the identity repetition only checks. A refused
    // repetition stopped part-way, so its time and work would mix into the
    // means in proportions set by where it stopped. Input to input
    // variation dominates the spread between runs, and a mean over a
    // run's inputs averages it better than their median.
    const size_t Distinct = Reps.size() - 1;
    const bool AnyCompleted =
        std::any_of(Reps.begin(), Reps.begin() + Distinct,
                    [](const RepResult &R) { return R.Completed; });
    double Wall = 0, Execs = 0, Entries = 0;
    unsigned N = 0;
    for (size_t I = 0; I != Distinct; ++I)
      if (Reps[I].Completed || !AnyCompleted) {
        Wall += Reps[I].WallS;
        Execs += static_cast<double>(Reps[I].Counts.executions());
        Entries += static_cast<double>(Reps[I].Counts.entries());
        ++N;
      }
    const RepResult &Again = Reps.back();
    if (Again.Completed != Reps[0].Completed || Again.Error != Reps[0].Error ||
        Again.Report != Reps[0].Report) {
      O.Failed += !Again.failed();
      O.Correct = false;
      O.Notes.push_back("input " + std::to_string(Inputs[0]) +
                        ": report did not repeat byte for byte");
    }
    O.Metrics = {{"wall_s", "s", Wall / N},
                 {"runs_per_s", "1/s", Execs / Wall},
                 {"entries_per_s", "1/s", Entries / Wall},
                 {"peak_rss_mb", "MB", peakRssMb()}};
  }

  for (const std::string &N : O.Notes)
    std::printf("%s\n", N.c_str());
  for (const Metric &M : O.Metrics)
    std::printf("  %-34s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (!A.Record.empty())
    writeRecord(A.Record, A, W, F, O, Reps, Inputs, Traced.get());

  std::ostringstream Line;
  Line << "{\"correct\": " << (O.Correct ? "true" : "false")
       << ", \"attempted\": " << O.Attempted << ", \"failed\": " << O.Failed
       << ", \"metrics\": ";
  metricsJson(Line, O.Metrics);
  Line << "}";
  std::printf("%s\n", Line.str().c_str());
  return 0;
}
