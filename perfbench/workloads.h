// The benchmark's workloads. Each runs set-up, its measured phases and
// its output checks, and fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "harness.h"

namespace perfbench {

void RunPointRead(const Args& args, Report* report);
void RunBulkIngest(const Args& args, Report* report);
void RunMixedFeed(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
