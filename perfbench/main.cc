// tgpp_perfbench: wall-clock benchmark of one workload (README.md).
//
//   tgpp_perfbench --workload=<pr-oneshot|bfs-sources|tc-budget|service-mixed>
//                  --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//                  --cache-dir=DIR [--git-sha=SHA] [--smoke=1]
//
// Prints a provenance line, with --trace=1 a per-machine ledger line, and
// as its last line {"correct", "attempted", "failed", "metrics"}.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/logging.h"
#include "workloads.h"

#ifndef TGPP_BUILD_TYPE
#define TGPP_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string Flag(int argc, char** argv, const std::string& key,
                 const std::string& def) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return def;
}

int Main(int argc, char** argv) {
  using RunFn = void (*)(const Options&, Report*, Tally*, RunInfo*);
  const std::map<std::string, RunFn> workloads = {
      {"pr-oneshot", RunPrOneshot},
      {"bfs-sources", RunBfsSources},
      {"tc-budget", RunTcBudget},
      {"service-mixed", RunServiceMixed},
  };
  Options options;
  options.workload = Flag(argc, argv, "workload", "");
  options.seed = std::stoull(Flag(argc, argv, "seed", "1"));
  options.seconds = std::stod(Flag(argc, argv, "seconds", "10"));
  options.trace = Flag(argc, argv, "trace", "0") == "1";
  options.smoke = Flag(argc, argv, "smoke", "0") == "1";
  options.work_dir = Flag(argc, argv, "work-dir", "");
  options.cache_dir = Flag(argc, argv, "cache-dir", "");
  const std::string git_sha = Flag(argc, argv, "git-sha", "unknown");
  auto it = workloads.find(options.workload);
  if (it == workloads.end() || options.work_dir.empty() ||
      options.cache_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: tgpp_perfbench --workload=<pr-oneshot|bfs-sources|"
                 "tc-budget|service-mixed> --seed=N --seconds=S --trace=0|1 "
                 "--work-dir=DIR --cache-dir=DIR [--git-sha=SHA] "
                 "[--smoke=1]\n");
    return 2;
  }
  tgpp::SetLogLevel(tgpp::LogLevel::kWarning);

  Report report;
  Tally tally;
  RunInfo info;
  it->second(options, &report, &tally, &info);
  if (options.trace) {
    report.Add("fail_frac",
               SafeDiv(static_cast<double>(tally.failed),
                       static_cast<double>(tally.attempted)),
               "ratio");
  }

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"smoke\": %d, \"nproc\": %ld, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"vertices\": %llu, "
      "\"edges\": %llu, \"machines\": %d, \"threads_per_machine\": 1, "
      "\"budget_mb\": %.3f, \"q\": %d, \"host_steal_s\": %.2f, "
      "\"quiet_sample_frac\": %.3f, "
      "\"attempted\": %llu, \"failed\": %llu}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), TGPP_BUILD_TYPE, git_sha.c_str(),
      static_cast<unsigned long long>(info.num_vertices),
      static_cast<unsigned long long>(info.num_edges), info.machines,
      static_cast<double>(info.budget_bytes) / (1 << 20), info.q, info.steal_s,
      info.quiet_frac,
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      tally.failed == 0 && tally.attempted > 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed),
      report.MetricsJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
