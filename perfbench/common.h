// Shared pieces of the wall-clock benchmark (see README.md): options,
// the metric report, sample statistics, process clocks, registry reads,
// seeded input generation with an on-disk cache, and timed set-up.

#ifndef TGPP_PERFBENCH_COMMON_H_
#define TGPP_PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "graph/edge_list.h"
#include "util/histogram.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;             // tiny inputs for the benchmark's own test
  std::string work_dir;           // simulated machine disks
  std::string cache_dir;          // seeded inputs, reused across runs
};

// Ordered name -> (value, unit) list; the last stdout line is built
// from it.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string MetricsJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Correctness tally across every operation a run checks.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double SafeDiv(double num, double den);

// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
// CPU seconds the hypervisor gave to other guests, summed over this
// host's CPUs (/proc/stat "steal"; 0 where not reported).
double HostStealSeconds();

// Host noise (README.md): a timed sample during which the hypervisor
// stole more than this share of the host's CPU time was disturbed by
// other guests, and timing medians leave it out.
constexpr double kMaxStealShare = 0.02;
bool Disturbed(double steal_s, double wall_s);

// A timed sample and whether host noise disturbed it.
struct Timed {
  double seconds = 0;
  bool disturbed = false;
};
// Times fn() and judges it against the host steal while it ran.
Timed TimeSample(const std::function<void()>& fn);
// Seconds of the undisturbed samples, or of all of them when fewer than
// a quarter are undisturbed.
std::vector<double> QuietSeconds(const std::vector<Timed>& samples);
double QuietFraction(const std::vector<Timed>& samples);
// Prints {"samples": {"<name>": [...], "<name>_disturbed": [...]}} to
// stderr, for reading a run's spread.
void LogSamples(
    const std::vector<std::pair<std::string, std::vector<Timed>>>& samples);

// Peak resident set of a phase: Reset() starts the phase (clears the
// kernel's high-water mark when allowed), PeakMb() reads it.
class PeakRss {
 public:
  void Reset();
  double PeakMb() const;
};

// Sums of every instrument in the obs registry, by dotted name: counters
// and gauges summed over machines, histograms merged across machines.
struct RegistryTotals {
  std::map<std::string, double> sum;
  std::map<std::string, tgpp::Histogram> hist;

  static RegistryTotals Read();
  double Get(const std::string& name) const;
  // Merged histogram quantile, in the instrument's unit (ns).
  double HistQuantile(const std::string& name, double q) const;
};

// Zeroes every registered instrument (call at quiescence only).
void ResetRegistry();

// RMAT_scale per the repo convention (2^(scale-4) vertices, 2^scale
// edges), made undirected, generated from `seed` and cached under
// options.cache_dir; the newest few cached graphs are kept.
tgpp::EdgeList LoadOrGenerateGraph(const Options& options, int scale);

// Original ids with at least one edge, `count` of them, drawn from `seed`.
std::vector<tgpp::VertexId> PickSources(const tgpp::EdgeList& graph,
                                        uint64_t seed, int count);

// 4 simulated machines x 1 worker, disks under `dir`.
tgpp::ClusterConfig MakeClusterConfig(const std::string& dir,
                                      uint64_t budget_bytes);

// Timed set-up, repeated: each rep destroys the previous system, builds a
// fresh cluster and loads (BBP) a copy of the graph at `q`. The system
// of the last rep is kept for the measured phase.
struct SetupResult {
  std::unique_ptr<tgpp::TurboGraphSystem> system;
  std::vector<Timed> setup_s;
  std::vector<double> bbp_s;
  std::vector<double> write_mb;
  double edge_balance = 0;  // max machine edges / mean machine edges
};
SetupResult TimedSetup(const Options& options, const tgpp::EdgeList& graph,
                       uint64_t budget_bytes, int q, int reps);
void AddSetupMetrics(const SetupResult& setup, bool trace, Report* report);

// Runs fn(i) for i in [0, n) on up to `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

// Per-layer metrics that come from registry counters over a measured
// phase of `ops` operations, `updates` of them update batches.
void AddCounterLayerMetrics(const RegistryTotals& totals,
                            const tgpp::ClusterSnapshot& snapshot,
                            int machines, double ops, double updates,
                            Report* report);

}  // namespace perfbench

#endif  // TGPP_PERFBENCH_COMMON_H_
