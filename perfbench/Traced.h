//===- perfbench/Traced.h - The traced, per-layer run ----------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run: one workload input replayed serially, cell by cell and
/// hunt stage by hunt stage, through the public calls of each layer, with
/// a span around every call. The replay must reproduce the untraced
/// report byte for byte and its counts must add up to the report's
/// totals; then a few probes time the oracle on recorded traces. The
/// result is the per-layer metric table.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_PERFBENCH_TRACED_H
#define GPUWMM_PERFBENCH_TRACED_H

#include "Spans.h"
#include "Workloads.h"

#include <string>
#include <vector>

namespace perfbench {

struct LayerMetric {
  const char *Name;
  const char *Unit;
  double Value; ///< 0 when the workload does not exercise the layer.
};

struct TracedResult {
  bool Completed = false; ///< As RepResult::Completed, for the replay.
  std::string Error;
  /// Reconciliation failures: replayed report or counts differ from the
  /// untraced repetition's, or span self times exceed the traced wall.
  std::vector<std::string> Failures;
  double TracedWallS = 0;   ///< The replay with spans recorded.
  double UntracedWallS = 0; ///< The same replay with the recorder off.
  SimCounts Counts;         ///< Summed over the replay's cells / rounds.
  Tracer Spans{true};
  std::vector<LayerMetric> Metrics; ///< Every per-layer metric, in order.
  std::vector<std::string> Notes;   ///< What the probes left out, if any.
};

/// Replays input \p Seed of \p W (whose untraced repetition is \p Ref)
/// and measures every layer. \p ScratchDir holds stores and corpora.
TracedResult runTraced(const WorkloadSpec &W, uint64_t Seed,
                       const RepResult &Ref, const std::string &ScratchDir);

} // namespace perfbench

#endif // GPUWMM_PERFBENCH_TRACED_H
