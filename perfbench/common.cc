#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "graph/rmat.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace tgpp;

// Cached graphs kept per cache directory (each RMAT22 one is ~120 MB).
constexpr size_t kMaxCachedGraphs = 4;

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

std::string Report::MetricsJson() const {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", entries_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
        << "\": {\"value\": " << value << ", \"unit\": \""
        << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double SafeDiv(double num, double den) { return den == 0 ? 0 : num / den; }

void LogSamples(
    const std::vector<std::pair<std::string, std::vector<Timed>>>& samples) {
  std::ostringstream out;
  out << "{\"samples\": {";
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto& [name, timed] = samples[i];
    std::ostringstream seconds, disturbed;
    for (size_t j = 0; j < timed.size(); ++j) {
      seconds << (j == 0 ? "" : ", ") << timed[j].seconds;
      disturbed << (j == 0 ? "" : ", ") << (timed[j].disturbed ? 1 : 0);
    }
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": [" << seconds.str()
        << "], \"" << name << "_disturbed\": [" << disturbed.str() << "]";
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stderr);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  stat >> cpu;
  for (uint64_t& f : fields) stat >> f;
  return static_cast<double>(fields[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool Disturbed(double steal_s, double wall_s) {
  static const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return steal_s > kMaxStealShare * wall_s * cpus;
}

Timed TimeSample(const std::function<void()>& fn) {
  const double steal0 = HostStealSeconds();
  WallTimer timer;
  fn();
  Timed t;
  t.seconds = timer.Seconds();
  t.disturbed = Disturbed(HostStealSeconds() - steal0, t.seconds);
  return t;
}

std::vector<double> QuietSeconds(const std::vector<Timed>& samples) {
  std::vector<double> quiet, all;
  for (const Timed& t : samples) {
    all.push_back(t.seconds);
    if (!t.disturbed) quiet.push_back(t.seconds);
  }
  return !quiet.empty() && 4 * quiet.size() >= all.size() ? quiet : all;
}

double QuietFraction(const std::vector<Timed>& samples) {
  size_t quiet = 0;
  for (const Timed& t : samples) quiet += t.disturbed ? 0 : 1;
  return SafeDiv(static_cast<double>(quiet), static_cast<double>(samples.size()));
}

void PeakRss::Reset() {
  // "5" resets VmHWM to the current RSS (Linux >= 4.0). Where that is not
  // permitted the reading falls back to the process-lifetime peak.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::PeakMb() const {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

RegistryTotals RegistryTotals::Read() {
  RegistryTotals totals;
  obs::Registry::Global().Visit([&](const obs::InstrumentInfo& info) {
    double value = 0;
    switch (info.kind) {
      case obs::Kind::kCounter:
        value = static_cast<double>(info.counter->value());
        break;
      case obs::Kind::kGauge:
        value = static_cast<double>(info.gauge->value());
        break;
      case obs::Kind::kHistogram:
        totals.hist[info.name].Merge(info.histogram->SnapshotHistogram());
        return;
    }
    totals.sum[info.name] += value;
  });
  return totals;
}

double RegistryTotals::Get(const std::string& name) const {
  auto it = sum.find(name);
  return it == sum.end() ? 0 : it->second;
}

double RegistryTotals::HistQuantile(const std::string& name, double q) const {
  auto it = hist.find(name);
  return it == hist.end() ? 0 : static_cast<double>(it->second.Quantile(q));
}

void ResetRegistry() { obs::Registry::Global().ResetAll(); }

EdgeList LoadOrGenerateGraph(const Options& options, int scale) {
  fs::create_directories(options.cache_dir);
  const fs::path path = fs::path(options.cache_dir) /
                        ("rmat" + std::to_string(scale) + "u-seed" +
                         std::to_string(options.seed) + ".el");
  if (fs::exists(path)) {
    auto cached = LoadEdgeList(path.string());
    if (cached.ok()) {
      fs::last_write_time(path, fs::file_time_type::clock::now());
      return std::move(*cached);
    }
  }
  // Mix the seed so neighbouring seeds give unrelated graphs.
  EdgeList graph =
      GenerateRmatX(scale, options.seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  MakeUndirected(&graph);

  // Write to a temporary name and rename, so a killed run never leaves a
  // torn cache entry behind.
  const fs::path tmp = path.string() + ".tmp" + std::to_string(getpid());
  if (SaveEdgeList(graph, tmp.string()).ok()) {
    fs::rename(tmp, path);
  } else {
    fs::remove(tmp);
  }
  std::vector<fs::directory_entry> entries;
  for (const auto& entry : fs::directory_iterator(options.cache_dir)) {
    if (entry.path().extension() == ".el") entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.last_write_time() > b.last_write_time();
  });
  for (size_t i = kMaxCachedGraphs; i < entries.size(); ++i) {
    fs::remove(entries[i].path());
  }
  return graph;
}

std::vector<VertexId> PickSources(const EdgeList& graph, uint64_t seed,
                                  int count) {
  std::vector<uint8_t> has_edge(graph.num_vertices, 0);
  for (const Edge& e : graph.edges) has_edge[e.src] = 1;
  std::mt19937_64 rng(seed);
  std::vector<VertexId> sources;
  for (int guard = 0;
       static_cast<int>(sources.size()) < count && guard < (1 << 20);
       ++guard) {
    const VertexId v = rng() % graph.num_vertices;
    if (has_edge[v] &&
        std::find(sources.begin(), sources.end(), v) == sources.end()) {
      sources.push_back(v);
    }
  }
  TGPP_CHECK(static_cast<int>(sources.size()) == count)
      << "graph has too few non-isolated vertices";
  return sources;
}

ClusterConfig MakeClusterConfig(const std::string& dir,
                                uint64_t budget_bytes) {
  ClusterConfig config;
  config.num_machines = 4;
  config.threads_per_machine = 1;
  config.io_threads_per_machine = 1;
  config.memory_budget_bytes = budget_bytes;
  config.root_dir = dir;
  return config;
}

SetupResult TimedSetup(const Options& options, const EdgeList& graph,
                       uint64_t budget_bytes, int q, int reps) {
  SetupResult result;
  const std::string dir = options.work_dir + "/cluster";
  for (int rep = 0; rep < reps; ++rep) {
    // Tear-down of the previous rep and its files is not set-up work, nor
    // is kernel writeback of earlier writes (input cache, previous reps):
    // flush it before the clock starts.
    result.system.reset();
    fs::remove_all(dir);
    sync();

    std::unique_ptr<TurboGraphSystem> system;
    result.setup_s.push_back(TimeSample([&] {
      system = std::make_unique<TurboGraphSystem>(
          MakeClusterConfig(dir, budget_bytes));
      TGPP_CHECK_OK(system->LoadGraph(graph, PartitionScheme::kBbp, q));
    }));
    result.bbp_s.push_back(system->last_partition_seconds());
    result.write_mb.push_back(
        RegistryTotals::Read().Get("disk.write_bytes") / 1e6);
    result.system = std::move(system);
  }
  const PartitionedGraph* pg = result.system->partition();
  double max_edges = 0;
  double total_edges = 0;
  for (const MachinePartition& part : pg->machines) {
    max_edges = std::max(max_edges, static_cast<double>(part.num_edges));
    total_edges += static_cast<double>(part.num_edges);
  }
  result.edge_balance =
      SafeDiv(max_edges, total_edges / static_cast<double>(pg->p));
  // Each load leaves its pages dirty (~75 MB on RMAT22); flush them so
  // writeback does not run during the measured phase.
  sync();
  return result;
}

void AddSetupMetrics(const SetupResult& setup, bool trace, Report* report) {
  if (!trace) {
    report->Add("setup_s", Median(QuietSeconds(setup.setup_s)), "s");
    return;
  }
  report->Add("partition.bbp_s", Median(setup.bbp_s), "s");
  report->Add("partition.write_mb", Median(setup.write_mb), "MB");
  report->Add("partition.edge_balance", setup.edge_balance, "ratio");
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  const int count = std::max(1, std::min<int>(threads, static_cast<int>(n)));
  for (int t = 0; t < count; ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

void AddCounterLayerMetrics(const RegistryTotals& t,
                            const ClusterSnapshot& snapshot, int machines,
                            double ops, double updates, Report* r) {
  const double hits = t.Get("bufferpool.hits");
  const double misses = t.Get("bufferpool.misses");
  r->Add("storage.read_mb", SafeDiv(t.Get("disk.read_bytes") / 1e6, ops), "MB");
  r->Add("storage.pool_hits", SafeDiv(hits, ops), "count");
  r->Add("storage.pool_misses", SafeDiv(misses, ops), "count");
  r->Add("storage.pool_hit_rate", SafeDiv(hits, hits + misses), "ratio");
  r->Add("storage.pool_evictions", SafeDiv(t.Get("bufferpool.evictions"), ops),
         "count");
  r->Add("storage.read_latency_p50_us",
         t.HistQuantile("disk.read_latency_ns", 0.5) / 1e3, "us");
  r->Add("storage.write_mb_per_update",
         SafeDiv(t.Get("disk.write_bytes") / 1e6, updates), "MB");
  r->Add("dyn.wal_bytes_per_update", SafeDiv(t.Get("dyn.wal_bytes"), updates),
         "bytes");
  r->Add("dyn.delta_pages", SafeDiv(t.Get("dyn.delta_pages"), updates), "count");

  const double generated = t.Get("engine.updates_generated");
  r->Add("core.scatter_cpu_s", SafeDiv(t.Get("engine.scatter_cpu_ns") / 1e9, ops),
         "s");
  r->Add("core.gather_cpu_s", SafeDiv(t.Get("engine.gather_cpu_ns") / 1e9, ops),
         "s");
  r->Add("core.apply_cpu_s", SafeDiv(t.Get("engine.apply_cpu_ns") / 1e9, ops),
         "s");
  r->Add("core.updates_generated", SafeDiv(generated, ops), "count");
  // engine.updates_sent counts what leaves local gather, so the rest was
  // combined in place.
  r->Add("core.local_gather_frac",
         generated == 0 ? 0 : 1.0 - t.Get("engine.updates_sent") / generated,
         "ratio");
  r->Add("core.updates_spilled", SafeDiv(t.Get("engine.updates_spilled"), ops),
         "count");

  r->Add("net.mb", SafeDiv(t.Get("fabric.bytes_sent") / 1e6, ops), "MB");
  r->Add("net.messages", SafeDiv(t.Get("fabric.messages_sent"), ops), "count");
  r->Add("net.delivery_p50_us",
         t.HistQuantile("fabric.delivery_latency_ns", 0.5) / 1e3, "us");

  r->Add("cluster.cpu_imbalance",
         SafeDiv(snapshot.max_machine_cpu_seconds,
                 snapshot.cpu_seconds / machines),
         "ratio");

  const double sparse = t.Get("engine.frontier_sparse_windows");
  const double dense = t.Get("engine.frontier_dense_windows");
  r->Add("algos.sparse_window_frac", SafeDiv(sparse, sparse + dense), "ratio");
  r->Add("algos.pull_records_skipped",
         SafeDiv(t.Get("engine.pull_records_skipped"), ops), "count");
  r->Add("service.retries", t.Get("service.job_retries"), "count");
}

}  // namespace perfbench
