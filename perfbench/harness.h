// Shared pieces of the perfbench program: clocks, the metric sink, the span
// tracer, the per-run environment header, and the TPC-H state every
// workload starts from (database, 22 cold-lowered plans, Volcano oracle).
#ifndef QC_PERFBENCH_HARNESS_H_
#define QC_PERFBENCH_HARNESS_H_

#include <time.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/compiler.h"
#include "exec/interp.h"
#include "qplan/plan.h"
#include "spans.h"
#include "storage/database.h"
#include "telemetry/trace.h"
#include "tpch/queries.h"

namespace qc::perfbench {

// --- clocks ---------------------------------------------------------------

inline int64_t WallNs() { return telemetry::TraceNowNs(); }

// CPU time of the whole process (every thread), the clock that does not
// depend on how many cores the host grants at the moment.
inline int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// CPU time of the calling thread only.
inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- run options and results ------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its span file
};

// Ordered name -> (value, unit) sink; main() prints it as the final JSON.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Operations attempted / failed. A failure is any operation that did not
// return OK or whose output differed from the oracle.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Validity of a run: a run that sets any reason is not comparable with
// others (the JIT degraded, a fallback happened, the load generator ran
// late). Reasons are reported in the environment header.
struct Validity {
  std::vector<std::string> reasons;
  void Invalidate(const std::string& why) { reasons.push_back(why); }
};

// --- tracing -----------------------------------------------------------------

// The traced run's span sink. A null Tracer* everywhere means "untraced":
// Scope then costs one branch.
class Tracer {
 public:
  SpanRecorder& recorder() { return rec_; }
  uint64_t NextOp() { return ++last_op_; }
  uint64_t current_op() const { return cur_op_; }
  void set_current_op(uint64_t op) { cur_op_ = op; }
  // Operations with ids >= this belong to the workload's own traced loop
  // (the self-time rollup covers only them).
  uint64_t loop_first_op() const { return loop_first_op_; }
  void set_loop_first_op(uint64_t op) { loop_first_op_ = op; }

 private:
  SpanRecorder rec_;
  uint64_t last_op_ = 0;
  uint64_t cur_op_ = 0;
  uint64_t loop_first_op_ = UINT64_MAX;
};

class Scope {
 public:
  Scope(Tracer* t, const char* name, const char* layer) : t_(t) {
    if (t_ != nullptr) {
      id_ = t_->recorder().Begin(name, layer, t_->current_op(), WallNs());
    }
  }
  ~Scope() {
    if (t_ != nullptr) t_->recorder().End(id_, WallNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int id_ = -1;
};

// Opens an operation span and makes its id current for nested spans.
class OpScope {
 public:
  OpScope(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) {
      prev_ = t_->current_op();
      t_->set_current_op(t_->NextOp());
      span_ = std::make_unique<Scope>(t_, name, "op");
    }
  }
  ~OpScope() {
    if (t_ != nullptr) {
      span_.reset();
      t_->set_current_op(prev_);
    }
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  Tracer* t_;
  uint64_t prev_ = 0;
  std::unique_ptr<Scope> span_;
};

// Runs `fn` in a forked child and returns the seconds it reports (-1 when
// the child failed). Only valid while the process runs no other thread.
double TimeInChild(const std::function<double()>& fn);

// --- environment -------------------------------------------------------------

// Effective parallelism: `threads` spinners run for `window_ms` wall; the
// summed thread CPU time over the window is the cores the host granted.
double SpinCalibrateCores(int threads, int window_ms);

// Peak resident set size of the process so far, in MB.
double PeakRssMb();

// One-line JSON environment header (compiler, CPU flags, nproc, JIT state,
// effective cores at start and end, validity).
std::string EnvHeaderJson(const RunOptions& opts, const std::string& why, double cores_start,
                          double cores_end, const Validity& validity);

// --- TPC-H state ---------------------------------------------------------------

constexpr int kLevel = 5;  // every workload runs the full five-level stack
// Scale factor of every workload. At SF 0.05 the working set outgrows the
// caches and the run-to-run spread of the time metrics on a shared host
// reached 25% (perfbench/README.md, "Noise"); at SF 0.01 it stays small.
constexpr double kSf = 0.01;

struct CompiledQuery {
  int q = 0;
  qplan::PlanPtr plan;
  std::unique_ptr<ir::TypeFactory> types;  // must outlive res.fn
  compiler::CompileResult res;
  double cold_ms = 0;  // first (cold) QueryCompiler::Compile of the query
};

// Database generation plus the cold lowering of all 22 queries — the
// common first part of every workload's set-up.
struct TpchState {
  std::unique_ptr<storage::Database> db;
  std::vector<CompiledQuery> queries;  // index q - 1
  std::vector<std::string> oracle;     // index q - 1, RenderRows of Volcano
  double datagen_s = 0;
};

std::unique_ptr<TpchState> BuildTpchState(uint64_t seed, Tracer* tracer);

// The Volcano evaluator's result of every query, rendered with
// server::RenderRows. Computed once per run, before anything else, in a
// child process on its own copy of the (deterministic) database: outside
// every timed region, and outside the benchmark's peak_rss_mb. Must be
// called before the process starts any thread. False when the child failed.
bool PrecomputeOracle(uint64_t seed);

// Gives `st` the precomputed oracle (empty when it failed, so every check
// fails).
void AttachOracle(TpchState* st);

exec::InterpOptions JitOptions(int threads);

// Threads of the parallel runs: 4, or nproc when the host has fewer (at
// least 2, so the morsel scheduler always runs).
int ParThreads();

// Renders `result` and compares it byte for byte with the oracle of query q
// (false while the oracle is not built yet).
bool MatchesOracle(const TpchState& st, int q,
                   const storage::ResultTable& result);

// Runs `fn` (ad-hoc: MakeQuery -> ResolvePlan -> Compile -> new Interpreter
// -> first Run) and returns whether the result matched the oracle. Used by
// the tpch-adhoc workload and the layer sweep alike.
struct AdhocTimes {
  double total_ms = 0;
  double cpu_ms = 0;
};
bool RunAdhoc(const TpchState& st, int q, Tracer* tracer, AdhocTimes* times,
              exec::Interpreter::JitRunStats* jit);

// --- workloads -----------------------------------------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
};
const WorkloadInfo* FindWorkload(const std::string& name);
const std::vector<WorkloadInfo>& AllWorkloads();

// Each workload fills the end-to-end metrics (untraced run) or, with a
// tracer, its own share of the per-layer metrics plus the traced/untraced
// pair behind trace.overhead_pct.
struct WorkloadRun {
  Metrics metrics;
  Tally tally;
  Validity validity;
};

void RunTpchWorkload(const RunOptions& opts, const WorkloadInfo& info,
                     WorkloadRun* out);
void RunServeMix(const RunOptions& opts, const WorkloadInfo& info,
                 WorkloadRun* out);

// --- traced-run layer sweep ------------------------------------------------------

// Measure every per-layer metric by calling each layer's public entry
// points directly on `st`, the workload's own database. Every workload's
// traced run runs all four sweeps.
void SweepCompileLayers(TpchState* st, Tracer* tracer, WorkloadRun* out);
void SweepExecLayers(TpchState* st, Tracer* tracer, WorkloadRun* out);
void SweepCgen(TpchState* st, const std::string& work_dir, Tracer* tracer,
               WorkloadRun* out);
void SweepServer(TpchState* st, uint64_t seed, Tracer* tracer,
                 WorkloadRun* out);

// Adds the per-layer self-time rollup (self.<layer>_ms, mean per operation
// of the workload's own traced loop) and writes the span file.
void FinishTrace(const RunOptions& opts, Tracer* tracer, WorkloadRun* out);

}  // namespace qc::perfbench

#endif  // QC_PERFBENCH_HARNESS_H_
