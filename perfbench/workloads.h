// The benchmark's four workloads (README.md has why each was chosen).

#ifndef TGPP_PERFBENCH_WORKLOADS_H_
#define TGPP_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "common.h"

namespace perfbench {

// Facts about the measured input and cluster, printed with every result.
struct RunInfo {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  int machines = 0;
  uint64_t budget_bytes = 0;
  int q = 0;
  double steal_s = 0;     // host steal during the measured phase
  double quiet_frac = 0;  // share of its samples host noise left alone
};

// Each runs the named workload end to end, appends its end-to-end
// (options.trace == false) or per-layer (true) metrics, and records every
// checked operation in `tally`.
void RunPrOneshot(const Options& options, Report* report, Tally* tally,
                  RunInfo* info);
void RunBfsSources(const Options& options, Report* report, Tally* tally,
                   RunInfo* info);
void RunTcBudget(const Options& options, Report* report, Tally* tally,
                 RunInfo* info);
void RunServiceMixed(const Options& options, Report* report, Tally* tally,
                     RunInfo* info);

}  // namespace perfbench

#endif  // TGPP_PERFBENCH_WORKLOADS_H_
