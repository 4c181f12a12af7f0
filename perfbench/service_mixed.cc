// service-mixed: one JobManager over one loaded graph, driven as a closed
// loop by two clients. 80% of operations are reads (pr-3 / sssp / wcc /
// bfs), 20% are update jobs of 64 conflict-free edge mutations.
//
// Correctness, all checked after the timed phase:
//  - every job finishes in state done;
//  - update jobs commit epochs 1, 2, ... in job-id order, so a read sees
//    epoch = number of update jobs with a smaller id (updates run
//    exclusively and admission is strict FIFO);
//  - reads of the same query and source at the same epoch agree on
//    result_crc;
//  - bfs / sssp / wcc digests equal the digest of algos/reference.h on the
//    graph as of that epoch; pr digests equal a deterministic replay on a
//    second system that applies the same batches in the same order, whose
//    ranks match ReferencePageRank within tolerance;
//  - the final graph's integer-PageRank digest equals that of a system
//    loaded from the offline rebuild (base - deletes + inserts).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "algos/pagerank.h"
#include "algos/reference.h"
#include "common/logging.h"
#include "dyn/dynamic_graph.h"
#include "dyn/incremental.h"
#include "service/job_manager.h"
#include "trace_ledger.h"
#include "util/crc32.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tgpp;

constexpr int kSetupReps = 3;
constexpr uint64_t kBudget = 64ull << 20;
constexpr int kClients = 2;
constexpr int kMaxRunning = 2;
constexpr int kWritePct = 20;
constexpr int kMutationsPerUpdate = 64;  // 32 undirected edges
constexpr int kSources = 8;
constexpr int kPrIterations = 3;
constexpr int kRoundOps = 16;     // ops in one e2e round
constexpr int kWarmupOps = 2;
constexpr int kTracedRounds = 10;  // kClients ops each
constexpr int64_t kWaitMs = 120000;
constexpr double kPageRankTolerance = 1e-9;

struct ServiceOp {
  service::JobSpec spec;
  std::vector<dyn::EdgeMutation> mutations;  // update jobs only
};

uint64_t Key(VertexId s, VertexId d) { return (s << 32) | d; }

// Deterministic op stream. Mutations are conflict-free: each undirected
// edge is touched at most once (an insert of an absent edge or a delete of
// a present one, both directions together), so the final edge set does
// not depend on the order update jobs commit in.
std::vector<ServiceOp> MakeOps(const EdgeList& graph, uint64_t seed,
                               size_t count) {
  std::mt19937_64 rng(seed ^ 0x5e41ce);
  const std::vector<VertexId> sources = PickSources(graph, seed, kSources);
  std::vector<uint64_t> present;
  present.reserve(graph.edges.size());
  for (const Edge& e : graph.edges) present.push_back(Key(e.src, e.dst));
  std::sort(present.begin(), present.end());
  std::unordered_set<uint64_t> touched;  // Key(min, max)
  const uint64_t n = graph.num_vertices;

  std::vector<ServiceOp> ops(count);
  for (size_t i = 0; i < count; ++i) {
    ServiceOp& op = ops[i];
    // Writes spread evenly through the stream.
    const bool write = (i + 1) * kWritePct / 100 > i * kWritePct / 100;
    if (!write) {
      static const char* kReads[] = {"pr", "sssp", "wcc", "bfs"};
      op.spec.query = kReads[rng() % 4];
      op.spec.iterations = kPrIterations;
      if (op.spec.query == "sssp" || op.spec.query == "bfs") {
        op.spec.source = sources[rng() % sources.size()];
      }
      continue;
    }
    op.spec.query = "update";
    for (int j = 0; j < kMutationsPerUpdate / 2; ++j) {
      VertexId s = 0, d = 0;
      dyn::EdgeOp kind = dyn::EdgeOp::kInsert;
      if (j % 4 == 3) {  // one delete per four changes, as in SNB
        kind = dyn::EdgeOp::kDelete;
        do {
          const Edge& e = graph.edges[rng() % graph.edges.size()];
          s = std::min(e.src, e.dst);
          d = std::max(e.src, e.dst);
        } while (s == d || touched.count(Key(s, d)) != 0);
      } else {
        do {
          s = rng() % n;
          d = rng() % n;
          if (s > d) std::swap(s, d);
        } while (s == d || touched.count(Key(s, d)) != 0 ||
                 std::binary_search(present.begin(), present.end(),
                                    Key(s, d)));
      }
      touched.insert(Key(s, d));
      for (const auto& [a, b] : {std::pair{s, d}, std::pair{d, s}}) {
        op.mutations.push_back({kind, a, b});
        op.spec.mutations.push_back(dyn::FormatEdgeMutation({kind, a, b}));
      }
    }
  }
  return ops;
}

// Applies one update batch to an in-memory edge list.
void ApplyToEdgeList(const std::vector<dyn::EdgeMutation>& mutations,
                     EdgeList* graph) {
  std::unordered_set<uint64_t> deleted;
  for (const dyn::EdgeMutation& m : mutations) {
    if (m.op == dyn::EdgeOp::kInsert) {
      graph->edges.push_back({m.src, m.dst});
    } else {
      deleted.insert(Key(m.src, m.dst));
    }
  }
  if (deleted.empty()) return;
  std::erase_if(graph->edges, [&](const Edge& e) {
    return deleted.count(Key(e.src, e.dst)) != 0;
  });
}

dyn::UpdateBatch ToBatch(const std::vector<dyn::EdgeMutation>& mutations) {
  dyn::UpdateBatch batch;
  batch.mutations = mutations;
  return batch;
}

// Digest of a converged integer PageRank in old-id order; independent of
// page layout, so a mutated system and a rebuilt one must agree.
uint32_t IntegerPrDigest(TurboGraphSystem* system) {
  auto app = dyn::MakePageRankIncApp(system->partition());
  std::vector<dyn::PrIncAttr> attrs;
  EngineOptions options;
  options.deterministic = true;
  TGPP_CHECK_OK(system->RunQuery(app, &attrs, options).status());
  std::vector<int64_t> ranks(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) ranks[i] = attrs[i].rank;
  return Crc32(ranks.data(), ranks.size() * sizeof(int64_t));
}

template <typename T>
uint32_t VectorCrc(const std::vector<T>& v) {
  return Crc32(v.data(), v.size() * sizeof(T));
}

struct Sample {
  size_t op = 0;
  bool update = false;
  double submit_s = 0;   // Submit() call
  double latency_s = 0;  // submit -> done
  double done_at = 0;    // since phase start
  double cpu_at = 0;     // process CPU seconds at completion
  double steal_at = 0;   // host steal seconds at completion
  bool disturbed = false;  // host noise during submit -> done
};

// Checks every job against references; returns per-job verdicts (job
// order = id order) and whether the final-state digest matched.
struct Verdicts {
  std::map<uint64_t, bool> ok;  // job id -> ok
  bool final_state_ok = false;
};

Verdicts CheckAll(const Options& options, const EdgeList& base, int q,
                  const std::vector<service::JobRecord>& jobs,
                  const std::map<uint64_t, size_t>& op_of_job,
                  const std::vector<ServiceOp>& ops,
                  TurboGraphSystem* live) {
  Verdicts v;
  // Epoch each job ran at; update commit order.
  std::vector<int> epoch(jobs.size(), 0);
  std::vector<size_t> updates;  // job indices in commit order
  for (size_t j = 0; j < jobs.size(); ++j) {
    const service::JobRecord& r = jobs[j];
    bool ok = r.state == service::JobState::kDone;
    if (r.spec.query == "update") {
      updates.push_back(j);
      ok = ok && r.epoch == updates.size();
    }
    epoch[j] = static_cast<int>(updates.size());
    v.ok[r.id] = ok;
  }

  // Reads grouped by (query, source, epoch).
  using GroupKey = std::tuple<std::string, VertexId, int>;
  std::map<GroupKey, std::vector<size_t>> groups;
  for (size_t j = 0; j < jobs.size(); ++j) {
    if (jobs[j].spec.query == "update") continue;
    groups[{jobs[j].spec.query, jobs[j].spec.source, epoch[j]}].push_back(j);
  }

  // Replay system: same graph, same q, same batches in the same order.
  auto replay = std::make_unique<TurboGraphSystem>(
      MakeClusterConfig(options.work_dir + "/replay", kBudget));
  TGPP_CHECK_OK(replay->LoadGraph(base, PartitionScheme::kBbp, q));
  dyn::DynamicGraph replay_dyn(replay->cluster(), replay->mutable_partition());

  EdgeList current = base;
  for (int e = 0; e <= static_cast<int>(updates.size()); ++e) {
    std::vector<std::pair<const GroupKey*, const std::vector<size_t>*>>
        at_epoch;
    for (const auto& [key, members] : groups) {
      if (std::get<2>(key) == e) at_epoch.push_back({&key, &members});
    }

    std::vector<PageRankAttr> replay_pr;
    bool need_pr = false;
    for (auto& [key, members] : at_epoch) need_pr |= std::get<0>(*key) == "pr";
    if (need_pr) {
      auto app = MakePageRankApp(replay->partition(), kPrIterations);
      EngineOptions det;
      det.deterministic = true;
      TGPP_CHECK_OK(replay->RunQuery(app, &replay_pr, det).status());
    }

    std::vector<char> group_ok(at_epoch.size(), 0);
    ParallelFor(at_epoch.size(), 4, [&](size_t g) {
      const auto& [query, source, ep] = *at_epoch[g].first;
      const std::vector<size_t>& members = *at_epoch[g].second;
      uint32_t want = 0;
      bool ok = true;
      if (query == "bfs") {
        want = VectorCrc(ReferenceBfs(current, source));
      } else if (query == "sssp") {
        want = VectorCrc(ReferenceSssp(current, source));
      } else if (query == "wcc") {
        want = VectorCrc(ReferenceWcc(current));
      } else {
        want = VectorCrc(replay_pr);
        const std::vector<double> ranks =
            ReferencePageRank(current, kPrIterations);
        ok = ranks.size() == replay_pr.size();
        for (size_t i = 0; ok && i < ranks.size(); ++i) {
          ok = std::abs(replay_pr[i].pr - ranks[i]) <=
               kPageRankTolerance * std::max(1.0, std::abs(ranks[i]));
        }
      }
      // Same query, same epoch: every read must return the same digest.
      for (size_t j : members) ok = ok && jobs[j].result_crc == want;
      if (!ok) {
        std::fprintf(stderr, "service-mixed: %s source=%llu epoch=%d wrong\n",
                     query.c_str(), static_cast<unsigned long long>(source),
                     ep);
      }
      group_ok[g] = ok;
    });
    for (size_t g = 0; g < at_epoch.size(); ++g) {
      for (size_t j : *at_epoch[g].second) {
        v.ok[jobs[j].id] = v.ok[jobs[j].id] && group_ok[g];
      }
    }

    if (e < static_cast<int>(updates.size())) {
      const ServiceOp& op = ops[op_of_job.at(jobs[updates[e]].id)];
      ApplyToEdgeList(op.mutations, &current);
      TGPP_CHECK_OK(replay_dyn.ApplyBatch(ToBatch(op.mutations)));
    }
  }
  replay.reset();

  auto rebuilt = std::make_unique<TurboGraphSystem>(
      MakeClusterConfig(options.work_dir + "/rebuilt", kBudget));
  TGPP_CHECK_OK(rebuilt->LoadGraph(current, PartitionScheme::kBbp, q));
  v.final_state_ok = IntegerPrDigest(live) == IntegerPrDigest(rebuilt.get());
  if (!v.final_state_ok) std::fprintf(stderr, "service-mixed: final state differs\n");
  return v;
}

}  // namespace

void RunServiceMixed(const Options& options, Report* report, Tally* tally,
                     RunInfo* info) {
  const EdgeList graph = LoadOrGenerateGraph(options, options.smoke ? 12 : 20);
  int q = 1;
  {
    // Pin q up front, as `tgpp serve` does: a mutated graph cannot be
    // repartitioned.
    Cluster probe(MakeClusterConfig(options.work_dir + "/probe", kBudget));
    auto required = service::RequiredQForService(probe, graph.num_vertices,
                                                 kMaxRunning);
    TGPP_CHECK_OK(required.status());
    q = *required;
  }
  info->num_vertices = graph.num_vertices;
  info->num_edges = graph.num_edges();
  info->machines = 4;
  info->budget_bytes = kBudget;
  info->q = q;

  const size_t max_ops = static_cast<size_t>(150 * options.seconds) + 200;
  const std::vector<ServiceOp> ops = MakeOps(graph, options.seed, max_ops);
  SetupResult setup = TimedSetup(options, graph, kBudget, q,
                                 options.smoke ? 2 : kSetupReps);
  TurboGraphSystem* system = setup.system.get();
  dyn::DynamicGraph dynamic(system->cluster(), system->mutable_partition());
  service::JobServiceOptions service_options;
  service_options.max_running = kMaxRunning;
  auto manager = std::make_unique<service::JobManager>(
      system->cluster(), system->partition(), service_options, &dynamic);

  std::mutex mu;
  std::map<uint64_t, size_t> op_of_job;
  std::atomic<size_t> next{0};
  // Runs op `i` from a client; false once the stream is exhausted.
  auto run = [&](const WallTimer& phase, Sample* sample) {
    const size_t i = next.fetch_add(1);
    if (i >= ops.size()) return false;
    const double steal0 = HostStealSeconds();
    const double t0 = phase.Seconds();
    auto id = manager->Submit(ops[i].spec);
    const double t1 = phase.Seconds();
    TGPP_CHECK_OK(id.status());
    {
      std::lock_guard<std::mutex> lock(mu);
      op_of_job[*id] = i;
    }
    // A job that fails or times out is caught by the terminal-state check.
    (void)manager->Wait(*id, kWaitMs);
    sample->op = i;
    sample->update = ops[i].spec.query == "update";
    sample->submit_s = t1 - t0;
    sample->done_at = phase.Seconds();
    sample->cpu_at = ProcessCpuSeconds();
    sample->steal_at = HostStealSeconds();
    sample->latency_s = sample->done_at - t0;
    sample->disturbed =
        Disturbed(sample->steal_at - steal0, sample->latency_s);
    return true;
  };

  {
    WallTimer warmup;
    Sample ignored;
    for (int k = 0; k < kWarmupOps; ++k) run(warmup, &ignored);
  }
  const size_t first_measured = next.load();

  ResetRegistry();
  PeakRss rss;
  rss.Reset();
  const double steal0 = HostStealSeconds();
  WallTimer phase;
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Sample s;
      while (phase.Seconds() < options.seconds && run(phase, &s)) {
        per_client[c].push_back(s);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  info->steal_s = HostStealSeconds() - steal0;
  const double peak_mb = rss.PeakMb();
  const RegistryTotals totals = RegistryTotals::Read();
  const ClusterSnapshot snapshot = system->cluster()->Snapshot();
  const size_t end_measured = next.load();

  std::vector<Sample> samples;
  for (const auto& c : per_client) samples.insert(samples.end(), c.begin(), c.end());
  std::vector<Timed> read_s, update_s;
  std::vector<double> submit_s;
  for (const Sample& s : samples) {
    (s.update ? update_s : read_s).push_back({s.latency_s, s.disturbed});
    submit_s.push_back(s.submit_s);
  }
  // Rounds of kRoundOps consecutive completions: wall and CPU per round.
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_at < b.done_at; });
  std::vector<Timed> round_s, round_cpu_s;
  for (size_t k = kRoundOps; k < samples.size(); k += kRoundOps) {
    const Sample& a = samples[k - kRoundOps];
    const Sample& b = samples[k];
    const double wall = b.done_at - a.done_at;
    const bool disturbed = Disturbed(b.steal_at - a.steal_at, wall);
    round_s.push_back({wall, disturbed});
    round_cpu_s.push_back({b.cpu_at - a.cpu_at, disturbed});
  }
  info->quiet_frac = QuietFraction(round_s);
  LogSamples({{"setup_s", setup.setup_s}, {"read_s", read_s},
              {"update_s", update_s}, {"round_s", round_s}});

  // Traced phase: rounds of kClients concurrent ops, rings drained between
  // rounds while nothing runs.
  TraceLedger ledger(system->cluster()->num_machines());
  if (options.trace) {
    TraceLedger::Begin();
    WallTimer traced;
    for (int r = 0; r < kTracedRounds; ++r) {
      std::vector<std::thread> round;
      for (int c = 0; c < kClients; ++c) {
        round.emplace_back([&] {
          Sample ignored;
          run(traced, &ignored);
        });
      }
      for (std::thread& t : round) t.join();
      ledger.Collect();
    }
    TraceLedger::End();
    std::printf("{\"ledger\": %s}\n", ledger.ToJson().c_str());
    tally->Record(ledger.dropped_events() == 0);
  }

  std::vector<service::JobRecord> jobs = manager->ListJobs();
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  std::vector<double> queue_wait_s, run_s, read_run_s, traced_read_run_s;
  double supersteps = 0, push = 0, pull = 0, edges = 0, update_run_s = 0;
  for (const service::JobRecord& r : jobs) {
    const size_t i = op_of_job.at(r.id);
    const bool update = r.spec.query == "update";
    if (i < first_measured) continue;
    if (i >= end_measured) {
      if (!update) traced_read_run_s.push_back(r.run_seconds);
      continue;
    }
    queue_wait_s.push_back(r.queue_wait_seconds);
    run_s.push_back(r.run_seconds);
    supersteps += r.supersteps;
    if (update) {
      edges += static_cast<double>(r.edges_inserted + r.edges_deleted);
      update_run_s += r.run_seconds;
      continue;
    }
    read_run_s.push_back(r.run_seconds);
    if (auto profile = manager->GetProfile(r.id); profile.ok()) {
      push += profile->push_supersteps;
      pull += profile->pull_supersteps;
    }
  }
  manager->Shutdown();
  manager.reset();

  const Verdicts verdicts =
      CheckAll(options, graph, q, jobs, op_of_job, ops, system);
  for (const auto& [id, ok] : verdicts.ok) tally->Record(ok);
  tally->Record(verdicts.final_state_ok);

  const double n_ops = static_cast<double>(samples.size());
  if (!options.trace) {
    AddSetupMetrics(setup, false, report);
    const double round = Median(QuietSeconds(round_s));
    report->Add("e2e_s", Median(QuietSeconds(setup.setup_s)) + round, "s");
    report->Add("query_p50_s", Median(QuietSeconds(read_s)), "s");
    report->Add("ops_per_s", SafeDiv(kRoundOps, round), "1/s");
    report->Add("cpu_s_per_op", Median(QuietSeconds(round_cpu_s)) / kRoundOps,
                "s");
    report->Add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  AddSetupMetrics(setup, true, report);
  AddCounterLayerMetrics(totals, snapshot, system->cluster()->num_machines(),
                         n_ops, static_cast<double>(update_s.size()), report);
  AddSpanLayerMetrics(ledger, kTracedRounds * kClients, report);
  report->Add("core.supersteps", SafeDiv(supersteps, n_ops), "count");
  report->Add("algos.push_supersteps", SafeDiv(push, n_ops), "count");
  report->Add("algos.pull_supersteps", SafeDiv(pull, n_ops), "count");
  // Jobs run concurrently, so overhead is judged on job run time.
  report->Add("trace.overhead_frac",
              SafeDiv(Median(traced_read_run_s), Median(read_run_s)) - 1.0,
              "ratio");
  report->Add("query_p90_s", Quantile(QuietSeconds(read_s), 0.9), "s");
  report->Add("service.submit_s", Median(submit_s), "s");
  report->Add("service.queue_wait_p50_s", Median(queue_wait_s), "s");
  report->Add("service.run_p50_s", Median(run_s), "s");
  report->Add("dyn.edges_per_s", SafeDiv(edges, update_run_s), "1/s");
  report->Add("update_p50_s", Median(QuietSeconds(update_s)), "s");
  report->Add("update_p90_s", Quantile(QuietSeconds(update_s), 0.9), "s");
}

}  // namespace perfbench
