// Traced-run aggregator: turns the engine's existing trace spans into
// per-layer busy and wait time, per machine, plus the straggler gap.
//
// Spans of one thread nest (they are RAII scopes or completed waits inside
// them), so a span's self time is its interval minus its direct children.
// Threads of one machine overlap (gather runs beside scatter), so times are
// never added across threads: a layer's time on a machine is the length
// of the UNION of its intervals on that machine's threads.

#ifndef TGPP_PERFBENCH_TRACE_LEDGER_H_
#define TGPP_PERFBENCH_TRACE_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "util/trace.h"

namespace perfbench {

class TraceLedger {
 public:
  explicit TraceLedger(int num_machines) : num_machines_(num_machines) {}

  // Clears the rings and enables tracing.
  static void Begin();
  // Drains the rings into the ledger and clears them. Call at quiescence
  // (no query running), often enough that no ring wraps.
  void Collect();
  // Disables tracing.
  static void End();

  // Mean over machines of the union of `name` span intervals (seconds).
  double MeanSpanSeconds(const std::string& name) const;
  // Same, over the spans' self intervals (direct children removed).
  double MeanSelfSeconds(const std::string& name) const;
  // Mean duration of one `name` span, wherever it ran (service spans are
  // not attributed to a machine).
  double MeanSpanDuration(const std::string& name) const;
  // Straggler gap summed over supersteps (seconds): at each sync point of
  // a superstep (barrier.wait, allreduce), the last machine's arrival
  // minus the median machine's arrival.
  double straggler_gap_s() const { return straggler_gap_s_; }
  uint64_t dropped_events() const { return dropped_; }

  // {"machines": [{"<span>": {"span_s": .., "self_s": ..}, ..}, ..]}
  std::string ToJson() const;

 private:
  struct Interval {
    int64_t begin;
    int64_t end;
  };
  // name -> per-machine seconds, accumulated over every Collect().
  using SecondsMap = std::map<std::string, std::vector<double>>;

  void AddWindow(const std::vector<tgpp::trace::TraceEvent>& events);
  void AddStragglerGaps(
      const std::vector<const tgpp::trace::TraceEvent*>& supersteps,
      const std::vector<std::vector<int64_t>>& arrivals);
  static double UnionSeconds(std::vector<Interval> intervals);
  double MeanOverMachines(const SecondsMap& map, const std::string& name) const;

  int num_machines_;
  SecondsMap span_seconds_;
  SecondsMap self_seconds_;
  std::map<std::string, std::pair<double, uint64_t>> durations_;  // sum, count
  double straggler_gap_s_ = 0;
  uint64_t dropped_ = 0;
};

// Span-derived per-layer metrics (the traced run's), per op over `ops`
// traced operations.
void AddSpanLayerMetrics(const TraceLedger& ledger, double ops, Report* report);

}  // namespace perfbench

#endif  // TGPP_PERFBENCH_TRACE_LEDGER_H_
