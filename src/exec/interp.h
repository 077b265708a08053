// In-process execution of the ANF IR. Every DSL level of the stack is
// directly executable (the paper's "each DSL is executable" property): every
// engine implements the full construct set, from generic MultiMaps at
// ScaLite[Map,List] down to malloc/pool operations at C.Lite. Compiled
// queries at different stack levels therefore run on identical machinery and
// differ only in the code the compiler produced — which is exactly what
// Table 3 measures.
//
// Three engines share this facade:
//   * kBytecode (default) — flattens the function once into register
//     bytecode and runs it on the direct-threaded VM (exec/bytecode.h).
//     Programs are cached per Function, so repeated Run() calls skip
//     translation.
//   * kJit — additionally stitches the bytecode into native x86-64 via
//     the copy-and-patch backend (src/jit/), with per-instruction deopt
//     into the VM; degrades silently to kBytecode where unsupported.
//   * kTreeWalk — the original pointer-walking interpreter, kept as the
//     executable-semantics reference oracle. It runs sequentially and
//     ungoverned only.
//
// The VM and the JIT support morsel-driven parallel execution of qualifying
// scan loops (exec/parallel.h): InterpOptions::num_threads > 1 attaches a
// persistent worker pool, and results stay bitwise identical to the
// sequential run — and to the tree walker — at every thread count.
#ifndef QC_EXEC_INTERP_H_
#define QC_EXEC_INTERP_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/bytecode.h"
#include "exec/parallel.h"
#include "exec/runtime.h"
#include "ir/parallel.h"
#include "ir/stmt.h"
#include "jit/engine.h"
#include "storage/database.h"
#include "storage/result.h"

namespace qc::exec {

struct InterpOptions {
  enum class Engine {
    kBytecode,  // register bytecode on the direct-threaded VM
    kTreeWalk,  // node-by-node Stmt-graph walk (reference engine)
    kJit,       // bytecode stitched to native x86-64 (src/jit/), with
                // per-instruction deopt into the VM; degrades silently to
                // kBytecode on platforms without executable-page support
                // or when QC_JIT_DISABLE is set — safe to select anywhere
  };
  Engine engine = Engine::kBytecode;

  // Morsel-driven parallelism (VM and JIT; the tree walker aborts on any
  // value above 1). 1 = sequential execution,
  // byte-for-byte the pre-parallel engine with zero overhead. N > 1 runs
  // qualifying top-level scan loops (ir/parallel.h) on a persistent pool
  // of N threads (the calling thread participates); results are bitwise
  // identical to num_threads = 1 regardless of N or morsel_rows.
  int num_threads = 1;
  int64_t morsel_rows = 16384;  // rows per morsel in parallel mode

  // Query governance (exec/governor.h; VM and JIT — the tree walker aborts
  // on a non-null control): when non-null, every Run() polls this control
  // at safepoints (loop back edges, morsel boundaries, JIT'd loop heads)
  // and unwinds within one safepoint interval of a cancellation, deadline,
  // or memory-budget trip. Owned by the caller; null = ungoverned (zero
  // safepoint slow paths). Inspect the outcome via
  // Interpreter::last_status().
  ExecControl* control = nullptr;
};

// Ownership contract: one Interpreter, one owning thread. Run() mutates
// unsynchronized per-Interpreter state (the program cache, register file,
// runtime heaps, result buffer), so concurrent Run() calls on the same
// instance are undefined — multi-threaded callers (e.g. the serving
// daemon's workers) must give each executing thread its own Interpreter
// and share only the immutable Database and ir::Functions. Run() enforces
// this with a non-reentrancy guard that aborts loudly on violation.
// Parallelism *within* one query is different and fully supported: it runs
// on the Interpreter's own WorkerPool (VM and JIT, num_threads > 1).
class Interpreter {
 public:
  // kTreeWalk with num_threads > 1 or a control aborts with a one-line
  // reason; the tree walker builds no worker pool.
  explicit Interpreter(storage::Database* db,
                       InterpOptions opts = InterpOptions());

  // Executes the function; rows produced by kEmit statements form the
  // result. Cached per-function state (bytecode, emit types, register
  // storage) is keyed by the Function's address, so a Function passed here
  // should outlive the Interpreter. Address reuse by a different function
  // is detected via a name/size fingerprint and recompiles (a same-named,
  // same-sized different function at the same address would still alias).
  storage::ResultTable Run(const ir::Function& fn);

  const AllocStats& stats() const { return stats_; }

  // Governance status of the most recent Run(): ok unless the attached
  // ExecControl tripped, in which case the returned table was empty and
  // this carries the structured reason. The Interpreter itself stays fully
  // reusable after any non-ok status (pools, heaps, caches intact).
  const QueryStatus& last_status() const { return last_status_; }

  // Replaces the governance control for subsequent Run() calls (null
  // detaches; same semantics as InterpOptions::control, so a kTreeWalk
  // Run() with a control attached aborts).
  void SetControl(ExecControl* ctl) { opts_.control = ctl; }

  // QC_JIT_STATS telemetry for the most recent kJit Run: native coverage
  // (templated pcs / total pcs) and the number of deopt events — interpreted
  // runs of the hybrid driver — during that Run. `jitted` is false when the
  // engine degraded to the plain VM (then the other fields are zero).
  struct JitRunStats {
    bool jitted = false;
    int native_pcs = 0;
    int total_pcs = 0;
    uint64_t deopts = 0;
    // Why the engine degraded to the plain VM (jit::JitFallback as int;
    // 0 = it didn't). Non-zero implies !jitted; surfaced in the bench
    // telemetry so fallbacks are never invisible.
    int fallback_reason = 0;
    double CoveragePct() const {
      return total_pcs > 0 ? 100.0 * native_pcs / total_pcs : 0.0;
    }
  };
  const JitRunStats& last_jit_stats() const { return jit_stats_; }

 private:
  Slot Val(const parallel::ExecState& st, const ir::Stmt* s) const {
    return st.regs[s->id];
  }
  void Set(parallel::ExecState& st, const ir::Stmt* s, Slot v) {
    st.regs[s->id] = v;
  }

  storage::ResultTable RunTreeWalk(const ir::Function& fn);
  void ExecBlock(parallel::ExecState& st, const ir::Block* b);
  void ExecStmt(parallel::ExecState& st, const ir::Stmt* s);
  bool BlockCond(parallel::ExecState& st, const ir::Block* b);
  // kArrSortBy/kListSortBy: the shared stable merge core (exec/runtime.h),
  // which the VM and JIT sorts use too.
  void SortSlots(parallel::ExecState& st, Slot* data, int64_t n,
                 const ir::Stmt* s);

  static const char* Intern(parallel::ExecState& st, std::string s) {
    st.strings->push_back(std::move(s));
    return st.strings->back().c_str();
  }

  storage::Database* db_;
  InterpOptions opts_;
  // Non-reentrancy guard for the single-owner contract above (set for the
  // duration of Run; entering Run while set aborts).
  std::atomic<bool> in_run_{false};
  AllocStats stats_;
  RecordHeap records_;
  std::unique_ptr<parallel::Engine> par_;
  std::vector<Slot> regs_;
  std::deque<RtList> lists_;
  std::deque<RtArray> arrays_;
  std::deque<RtHashMap> maps_;
  std::deque<RtMultiMap> mmaps_;
  std::deque<std::string> strings_;
  storage::ResultTable out_;

  // Bytecode engine: compiled programs cached per function, with a
  // fingerprint to catch allocator address reuse. The ParallelInfo owns
  // the loop plans the program's ParLoopCode entries point into.
  struct CachedProgram {
    std::string fn_name;
    int num_stmts = -1;
    ir::ParallelInfo par;
    BytecodeProgram prog;
    // kJit: stitched native code for `prog` (null = degraded to the VM),
    // compiled lazily on the first kJit Run and cached like the bytecode.
    std::unique_ptr<jit::JitProgram> jit;
    bool jit_compiled = false;
    // Fallback reason recorded at compile time (kNone when jit != null).
    jit::JitFallback jit_fallback = jit::JitFallback::kNone;
  };
  BytecodeVM vm_;
  std::unordered_map<const ir::Function*, CachedProgram> programs_;
  JitRunStats jit_stats_;
  QueryStatus last_status_;

  // Tree-walk engine: emit types discovered once per function, not per Run.
  const ir::Function* prepared_fn_ = nullptr;
  std::string prepared_name_;
  int prepared_stmts_ = -1;
  std::vector<storage::ColType> emit_types_;
};

}  // namespace qc::exec

#endif  // QC_EXEC_INTERP_H_
