// One-shot workloads: load a graph once (timed set-up), then run one kind
// of query back to back, checking every answer against algos/reference.h.

#include <cmath>
#include <optional>

#include "algos/bfs.h"
#include "algos/pagerank.h"
#include "algos/reference.h"
#include "algos/triangle_counting.h"
#include "common/logging.h"
#include "core/memory_model.h"
#include "trace_ledger.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tgpp;

constexpr int kSetupReps = 3;
constexpr uint64_t kDefaultBudget = 64ull << 20;
// PageRank answers must match the reference to this relative error; the
// engine sums contributions in a different order.
constexpr double kPageRankTolerance = 1e-9;

// One-shot workloads run no service or update jobs; every traced run still
// reports the same metric names.
void AddIdleServiceMetrics(Report* report) {
  report->Add("service.submit_s", 0, "s");
  report->Add("service.queue_wait_p50_s", 0, "s");
  report->Add("service.run_p50_s", 0, "s");
  report->Add("dyn.edges_per_s", 0, "1/s");
  report->Add("update_p50_s", 0, "s");
  report->Add("update_p90_s", 0, "s");
}

struct OpResult {
  bool ok = false;
  double query_s = 0;  // RunQuery wall time
  QueryStats stats;
};

struct OneShotPlan {
  int scale = 22;
  uint64_t budget_bytes = kDefaultBudget;
  int q = 1;
  int min_ops = 1;      // measured ops even when --seconds runs out first
  int round_ops = 1;    // ops in one e2e round
  int traced_ops = 1;   // ops in the traced phase
  // Computes references from the input graph (untimed).
  std::function<void(const EdgeList&)> prepare;
  // Runs op `i` and checks its answer.
  std::function<OpResult(TurboGraphSystem*, int)> op;
};

void RunOneShot(const Options& options, OneShotPlan plan, Report* report,
                Tally* tally, RunInfo* info) {
  std::optional<EdgeList> graph = LoadOrGenerateGraph(options, plan.scale);
  info->num_vertices = graph->num_vertices;
  info->num_edges = graph->num_edges();
  info->machines = 4;
  info->budget_bytes = plan.budget_bytes;
  info->q = plan.q;
  plan.prepare(*graph);
  SetupResult setup = TimedSetup(options, *graph, plan.budget_bytes, plan.q,
                                 options.smoke ? 2 : kSetupReps);
  graph.reset();  // the system keeps its own copy
  TurboGraphSystem* system = setup.system.get();

  int next = 0;
  auto run_op = [&] {
    OpResult r = plan.op(system, next++);
    tally->Record(r.ok);
    return r;
  };
  run_op();  // warm-up, not measured

  ResetRegistry();
  PeakRss rss;
  rss.Reset();
  const double steal0 = HostStealSeconds();
  WallTimer phase;
  // Per op: RunQuery time, whole op (query + check) and process CPU.
  std::vector<Timed> query_s, op_s, op_cpu_s, round_s;
  double supersteps = 0, push = 0, pull = 0;
  int ops = 0;
  while (ops < plan.min_ops || phase.Seconds() < options.seconds) {
    round_s.push_back(TimeSample([&] {
      for (int k = 0; k < plan.round_ops; ++k, ++ops) {
        const double cpu0 = ProcessCpuSeconds();
        OpResult r;
        const Timed op = TimeSample([&] { r = run_op(); });
        if (!r.ok) continue;
        query_s.push_back({r.query_s, op.disturbed});
        op_s.push_back(op);
        op_cpu_s.push_back({ProcessCpuSeconds() - cpu0, op.disturbed});
        supersteps += r.stats.supersteps;
        push += r.stats.push_supersteps;
        pull += r.stats.pull_supersteps;
      }
    }));
  }
  info->steal_s = HostStealSeconds() - steal0;
  info->quiet_frac = QuietFraction(op_s);
  const double peak_mb = rss.PeakMb();
  const RegistryTotals totals = RegistryTotals::Read();
  const ClusterSnapshot snapshot = system->cluster()->Snapshot();
  LogSamples({{"setup_s", setup.setup_s}, {"query_s", query_s},
              {"op_cpu_s", op_cpu_s}, {"round_s", round_s}});
  const std::vector<double> quiet_query_s = QuietSeconds(query_s);
  const std::vector<double> quiet_round_s = QuietSeconds(round_s);

  if (!options.trace) {
    AddSetupMetrics(setup, false, report);
    report->Add("e2e_s",
                Median(QuietSeconds(setup.setup_s)) + Median(quiet_round_s),
                "s");
    report->Add("query_p50_s", Median(quiet_query_s), "s");
    report->Add("ops_per_s", SafeDiv(1, Median(QuietSeconds(op_s))), "1/s");
    report->Add("cpu_s_per_op", Median(QuietSeconds(op_cpu_s)), "s");
    report->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }

  // Traced phase: one ring drain per op keeps every ring below capacity.
  TraceLedger ledger(system->cluster()->num_machines());
  std::vector<Timed> traced_s;
  TraceLedger::Begin();
  for (int k = 0; k < plan.traced_ops; ++k) {
    OpResult r;
    const Timed op = TimeSample([&] { r = run_op(); });
    if (r.ok) traced_s.push_back({r.query_s, op.disturbed});
    ledger.Collect();
  }
  TraceLedger::End();
  std::printf("{\"ledger\": %s}\n", ledger.ToJson().c_str());
  tally->Record(ledger.dropped_events() == 0);  // a traced run must be whole

  AddSetupMetrics(setup, true, report);
  AddCounterLayerMetrics(totals, snapshot, system->cluster()->num_machines(),
                         ops, 0, report);
  AddSpanLayerMetrics(ledger, plan.traced_ops, report);
  report->Add("core.supersteps", SafeDiv(supersteps, ops), "count");
  report->Add("algos.push_supersteps", SafeDiv(push, ops), "count");
  report->Add("algos.pull_supersteps", SafeDiv(pull, ops), "count");
  report->Add("trace.overhead_frac",
              SafeDiv(Median(QuietSeconds(traced_s)), Median(quiet_query_s)) -
                  1.0,
              "ratio");
  report->Add("query_p90_s", Quantile(quiet_query_s, 0.9), "s");
  AddIdleServiceMetrics(report);
}

// Attributes by old id, checked element by element.
template <typename V, typename U, typename Check>
OpResult RunChecked(TurboGraphSystem* system, KWalkApp<V, U>& app,
                    const EngineOptions& engine_options, Check check) {
  OpResult r;
  std::vector<V> attrs;
  WallTimer timer;
  auto stats = system->RunQuery(app, &attrs, engine_options);
  r.query_s = timer.Seconds();
  if (!stats.ok()) {
    std::fprintf(stderr, "query failed: %s\n", stats.status().ToString().c_str());
    return r;
  }
  r.stats = *stats;
  r.ok = check(attrs, *stats);
  return r;
}

}  // namespace

void RunPrOneshot(const Options& options, Report* report, Tally* tally,
                  RunInfo* info) {
  constexpr int kIterations = 10;
  auto reference = std::make_shared<std::vector<double>>();
  OneShotPlan plan;
  plan.scale = options.smoke ? 12 : 22;
  plan.min_ops = 5;
  plan.traced_ops = 3;
  plan.prepare = [reference](const EdgeList& graph) {
    *reference = ReferencePageRank(graph, kIterations);
  };
  plan.op = [reference](TurboGraphSystem* system, int) {
    auto app = MakePageRankApp(system->partition(), kIterations);
    return RunChecked(
        system, app, EngineOptions{},
        [&](const std::vector<PageRankAttr>& attrs, const QueryStats&) {
          if (attrs.size() != reference->size()) return false;
          for (size_t v = 0; v < attrs.size(); ++v) {
            const double want = (*reference)[v];
            if (std::abs(attrs[v].pr - want) >
                kPageRankTolerance * std::max(1.0, std::abs(want))) {
              return false;
            }
          }
          return true;
        });
  };
  RunOneShot(options, std::move(plan), report, tally, info);
}

void RunBfsSources(const Options& options, Report* report, Tally* tally,
                   RunInfo* info) {
  constexpr int kSources = 16;
  struct Refs {
    std::vector<VertexId> sources;
    std::vector<std::vector<uint64_t>> levels;
  };
  auto refs = std::make_shared<Refs>();
  const uint64_t seed = options.seed;
  OneShotPlan plan;
  plan.scale = options.smoke ? 12 : 22;
  plan.min_ops = 100;
  plan.round_ops = kSources;
  plan.traced_ops = kSources;
  plan.prepare = [refs, seed](const EdgeList& graph) {
    refs->sources = PickSources(graph, seed, kSources);
    refs->levels.resize(kSources);
    ParallelFor(kSources, 4, [&](size_t i) {
      refs->levels[i] = ReferenceBfs(graph, refs->sources[i]);
    });
  };
  plan.op = [refs](TurboGraphSystem* system, int i) {
    const size_t k = static_cast<size_t>(i) % refs->sources.size();
    auto app = MakeBfsApp(system->partition(), refs->sources[k]);
    EngineOptions engine_options;
    engine_options.frontier.direction = DirectionMode::kAuto;
    engine_options.frontier.sparse_windows = true;
    return RunChecked(system, app, engine_options,
                      [&](const std::vector<BfsAttr>& attrs, const QueryStats&) {
                        const auto& want = refs->levels[k];
                        if (attrs.size() != want.size()) return false;
                        for (size_t v = 0; v < want.size(); ++v) {
                          if (attrs[v].dist != want[v]) return false;
                        }
                        return true;
                      });
  };
  RunOneShot(options, std::move(plan), report, tally, info);
}

void RunTcBudget(const Options& options, Report* report, Tally* tally,
                 RunInfo* info) {
  auto triangles = std::make_shared<uint64_t>(0);
  OneShotPlan plan;
  plan.scale = options.smoke ? 12 : 20;
  // The buffer pool keeps 64 x 64 KB frames; a budget just above them and
  // the k=2 fixed window costs makes the windows stream (README.md).
  plan.budget_bytes = 4608ull << 10;
  plan.min_ops = 3;
  plan.traced_ops = 1;
  MemoryModelInput in;
  in.k = 2;
  in.p = 4;
  in.num_vertices = 1ull << (plan.scale - 4);  // RMAT_X has 2^(X-4)
  in.vertex_attr_bytes = sizeof(TcAttr);
  in.page_size = kPageSize;
  in.total_budget_bytes =
      plan.budget_bytes - ClusterConfig{}.buffer_pool_frames * kPageSize;
  auto q = ComputeQMin(in);
  TGPP_CHECK_OK(q.status());
  plan.q = *q;
  plan.prepare = [triangles](const EdgeList& graph) {
    *triangles = ReferenceTriangleCount(graph);
  };
  plan.op = [triangles](TurboGraphSystem* system, int) {
    auto app = MakeTriangleCountingApp();
    return RunChecked(system, app, EngineOptions{},
                      [&](const std::vector<TcAttr>&, const QueryStats& stats) {
                        return stats.aggregate_sum == *triangles;
                      });
  };
  RunOneShot(options, std::move(plan), report, tally, info);
}

}  // namespace perfbench
