//===- perfbench/Spans.h - In-memory span recorder --------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. Spans are opened and closed around
/// calls into the library on one thread, so they nest strictly: a span's
/// children tile part of its interval, and its self time is its duration
/// minus its children's. Spans stay in memory and are written out when
/// the run ends. A disabled recorder makes every call a no-op, which is
/// how the traced run measures its own overhead.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_PERFBENCH_SPANS_H
#define GPUWMM_PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char *Name = "";
  int64_t StartNs = 0, EndNs = 0; ///< Since the recorder was created.
  int Parent = -1;                ///< Index of the enclosing span.
  std::string Item;  ///< Cell key or hunt round the call belongs to.
  uint64_t Work = 0; ///< Runs, programs or events the call handled.
  int Tag = 0;       ///< A second count: timed-out runs of an app call,
                     ///< accepted reductions of a shrink call.

  double seconds() const { return (EndNs - StartNs) * 1e-9; }
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  int open(const char *Name, std::string Item = {}) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Item = std::move(Item);
    S.StartNs = now();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int Id, uint64_t Work, int Tag) {
    if (Id < 0)
      return;
    Span &S = Spans[Id];
    S.EndNs = now();
    S.Work = Work;
    S.Tag = Tag;
    Stack.pop_back();
  }

  bool enabled() const { return Enabled; }
  bool balanced() const { return Stack.empty(); }
  const std::vector<Span> &spans() const { return Spans; }

  /// Self seconds of every span: its duration minus its direct children's.
  std::vector<double> selfSeconds() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I) {
      Self[I] += Spans[I].seconds();
      if (Spans[I].Parent >= 0)
        Self[Spans[I].Parent] -= Spans[I].seconds();
    }
    return Self;
  }

private:
  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Origin)
        .count();
  }

  bool Enabled;
  std::chrono::steady_clock::time_point Origin =
      std::chrono::steady_clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// Nearest-rank percentile \p Q of \p Sorted (ascending); 0 when empty.
inline double percentile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  const size_t Rank = static_cast<size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  return Sorted[std::max<size_t>(Rank, 1) - 1];
}

/// A span over one scope; set Work and Tag before it closes.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, std::string Item = {})
      : T(T), Id(T.open(Name, std::move(Item))) {}
  ~ScopedSpan() { T.close(Id, Work, Tag); }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint64_t Work = 0;
  int Tag = 0;

private:
  Tracer &T;
  int Id;
};

} // namespace perfbench

#endif // GPUWMM_PERFBENCH_SPANS_H
