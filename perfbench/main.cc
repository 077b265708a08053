// qc_perfbench: the repository benchmark. One run executes one workload
// and prints, as its last stdout line, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). perfbench/README.md defines every metric.
//
//   qc_perfbench --workload tpch-seq --seed 1 --seconds 15 --trace 0
//                [--out-dir DIR]
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "jit/engine.h"

namespace qc::perfbench {

const std::vector<WorkloadInfo>& AllWorkloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"tpch-seq",
       "warm JIT execution of the 22 queries at 1 thread: exec, jit and "
       "runtime do all timed work, compilation none"},
      {"tpch-adhoc",
       "plan-to-first-result on a warm database: qplan, lowering, bytecode "
       "compile and JIT stitch do most of the timed work"},
      {"tpch-par",
       "tpch-seq inputs on one 4-thread interpreter: morsel scheduling and "
       "the ordered merge, which tpch-seq bypasses"},
      {"serve-mix",
       "open-loop two-tenant traffic through the daemon: admission, plan "
       "cache, protocol, rendering and sockets sit on the request path"},
  };
  return kAll;
}

const WorkloadInfo* FindWorkload(const std::string& name) {
  for (const WorkloadInfo& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: qc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:");
  for (const WorkloadInfo& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') return false;
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o->seconds > 0) ||
          o->seconds > 120) {
        return false;
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      o->trace = v[0] == '1';
    } else if (k == "--out-dir") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(o->workload) != nullptr;
}

void PrintResult(const WorkloadRun& run) {
  const Tally& t = run.tally;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              t.attempted > 0 && t.failed == 0 ? "true" : "false",
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  bool first = true;
  for (const auto& [name, vu] : run.metrics.items()) {
    const double v = std::isfinite(vu.first) ? vu.first : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace qc::perfbench

int main(int argc, char** argv) {
  using namespace qc::perfbench;  // NOLINT
  RunOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return Usage();
  const WorkloadInfo& info = *FindWorkload(opts.workload);
  // First, while the process has no other thread: the oracle child.
  if (!PrecomputeOracle(opts.seed)) {
    std::fprintf(stderr, "qc_perfbench: oracle computation failed\n");
  }
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int spin_threads = std::max(1, std::min(nproc, 4));
  const double cores_start = SpinCalibrateCores(spin_threads, 100);

  WorkloadRun run;
  if (qc::exec::jit::JitUnavailableReason() !=
      qc::exec::jit::JitFallback::kNone) {
    run.validity.Invalidate("JIT unavailable");
  }
  if (std::string(info.name) == "serve-mix") {
    RunServeMix(opts, info, &run);
  } else {
    RunTpchWorkload(opts, info, &run);
  }
  const double cores_end = SpinCalibrateCores(spin_threads, 100);
  if (opts.trace) {
    run.metrics.Set("host.cores", std::min(cores_start, cores_end), "cores");
  } else if (run.tally.attempted > 0) {
    run.metrics.Set("ok_frac",
                    static_cast<double>(run.tally.attempted - run.tally.failed) /
                        static_cast<double>(run.tally.attempted),
                    "ratio");
  }
  std::printf("# env %s\n",
              EnvHeaderJson(opts, info.why, cores_start, cores_end,
                            run.validity)
                  .c_str());
  for (const std::string& r : run.validity.reasons) {
    std::fprintf(stderr, "qc_perfbench: run not comparable: %s\n", r.c_str());
  }
  PrintResult(run);
  return 0;
}
