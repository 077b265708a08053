#include "exec/interp.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "analysis/bc_verify.h"
#include "common/env.h"
#include "common/str.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qc::exec {

using ir::Block;
using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

// The tree walker is the sequential, ungoverned reference oracle: threads and
// governance belong to the VM and the JIT, which tests compare against it.
void RequireSequentialTreeWalk(const InterpOptions& o) {
  const char* why = o.num_threads > 1       ? "num_threads > 1"
                    : o.control != nullptr ? "an ExecControl"
                                           : nullptr;
  if (why == nullptr) return;
  std::fprintf(stderr,
               "exec: the tree walker runs sequentially and ungoverned only "
               "(given %s)\n",
               why);
  std::abort();
}

}  // namespace

Interpreter::Interpreter(storage::Database* db, InterpOptions opts)
    : db_(db), opts_(opts), records_(&stats_), vm_(&stats_) {
  if (opts_.engine == InterpOptions::Engine::kTreeWalk) {
    RequireSequentialTreeWalk(opts_);
  } else if (opts_.num_threads > 1) {
    par_ = std::make_unique<parallel::Engine>(opts_.num_threads,
                                              opts_.morsel_rows);
    vm_.SetParallel(par_.get());
  }
}

storage::ResultTable Interpreter::Run(const ir::Function& fn) {
  // Single-owner contract (see the class comment): Run() is not
  // re-entrant and must not race with itself from another thread — the
  // program cache, register file, and runtime heaps are all unsynchronized
  // by design. Catch violations loudly instead of corrupting state.
  if (in_run_.exchange(true, std::memory_order_acquire)) {
    std::fprintf(stderr,
                 "exec: Interpreter::Run entered concurrently — each "
                 "Interpreter must be owned by exactly one thread\n");
    std::abort();
  }
  struct RunGuard {
    std::atomic<bool>* flag;
    ~RunGuard() { flag->store(false, std::memory_order_release); }
  } run_guard{&in_run_};
  // SetControl() may have attached a control after construction.
  if (opts_.engine == InterpOptions::Engine::kTreeWalk) {
    RequireSequentialTreeWalk(opts_);
  }
  ExecControl* ctl = opts_.control;
  last_status_ = QueryStatus();
  if (ctl != nullptr) {
    ctl->BeginRun();
    // Pre-run poll: an already-cancelled or already-expired control never
    // starts executing (or even compiling) the query.
    if (ctl->cancel.load(std::memory_order_relaxed)) {
      ctl->Trip(QueryStatusCode::kCancelled);
    } else {
      int64_t dl = ctl->deadline_ns.load(std::memory_order_relaxed);
      if (dl != 0 && GovNowNs() >= dl) {
        ctl->Trip(QueryStatusCode::kDeadlineExceeded);
      }
    }
    if (ctl->Tripped()) {
      last_status_ = ctl->status();
      return storage::ResultTable();
    }
  }
  if (opts_.engine != InterpOptions::Engine::kTreeWalk) {
    auto it = programs_.find(&fn);
    if (it == programs_.end() || it->second.fn_name != fn.name() ||
        it->second.num_stmts != fn.num_stmts()) {
      CachedProgram cached;
      cached.fn_name = fn.name();
      cached.num_stmts = fn.num_stmts();
      telemetry::ScopedSpan span("bytecode_compile", "compile");
      if (par_ != nullptr) cached.par = ir::AnalyzeParallelism(fn);
      cached.prog = BytecodeCompiler(db_).Compile(
          fn, par_ != nullptr ? &cached.par : nullptr);
      // Debug/sanitizer builds (and QC_VERIFY=1 anywhere) prove the
      // freshly-compiled program before it is ever executed or stitched; a
      // violation here is a BytecodeCompiler bug, so die loudly.
      if (analysis::VerifyEnabled()) {
        analysis::CheckProgram(cached.prog, fn.name());
      }
      it = programs_.insert_or_assign(&fn, std::move(cached)).first;
    }
    CachedProgram& cached = it->second;
    if (opts_.engine == InterpOptions::Engine::kJit) {
      if (!cached.jit_compiled) {
        // Null on non-x86-64 builds, denied executable pages, or
        // QC_JIT_DISABLE: the engine degrades to the plain VM — with the
        // structured reason recorded and a one-time stderr notice (no more
        // invisible fallbacks).
        {
          telemetry::ScopedSpan span("jit_stitch", "compile");
          cached.jit = jit::JitProgram::Compile(cached.prog,
                                                &cached.jit_fallback);
        }
        if (cached.jit == nullptr) {
          telemetry::JitFallbacks().Inc();
          // One process-wide notice, race-free: concurrent first fallbacks
          // on different Interpreters log exactly once, and the logging
          // thread finishes before any other proceeds.
          static std::once_flag warned;
          std::call_once(warned, [&] {
            telemetry::Log(
                telemetry::LogLevel::kWarn, "jit_fallback",
                {{"reason", jit::JitFallbackName(cached.jit_fallback)},
                 {"note",
                  "degraded to bytecode VM; further fallbacks are silent — "
                  "see Interpreter::last_jit_stats"}});
          });
        } else {
          telemetry::JitCompiles().Inc();
        }
        if (cached.jit != nullptr && par_ != nullptr) {
          // Native sort sites run big post-aggregation sorts on the pool.
          cached.jit->BindParallel(par_.get());
        }
        cached.jit_compiled = true;
      }
      vm_.SetJit(cached.jit.get());
    }
    const jit::JitProgram* jp = cached.jit.get();
    uint64_t deopts_before =
        jp != nullptr && opts_.engine == InterpOptions::Engine::kJit
            ? jp->deopts()
            : 0;
    vm_.SetControl(ctl);
    storage::ResultTable result;
    {
      telemetry::ScopedSpan span(
          "exec", "exec", "threads",
          par_ != nullptr ? opts_.num_threads : 1);
      result = vm_.Run(cached.prog);
    }
    vm_.SetJit(nullptr);
    vm_.SetControl(nullptr);
    if (ctl != nullptr && ctl->Tripped()) {
      // Aborted at a safepoint: surface the structured status and drop the
      // partial rows. All engine state was already reset for this run and
      // is reset again by the next one — the Interpreter stays reusable.
      last_status_ = ctl->status();
      result = storage::ResultTable();
    }
    if (opts_.engine == InterpOptions::Engine::kJit) {
      jit_stats_ = JitRunStats();
      jit_stats_.fallback_reason = static_cast<int>(cached.jit_fallback);
      if (jp != nullptr) {
        jit_stats_.jitted = true;
        jit_stats_.native_pcs = jp->num_native();
        jit_stats_.total_pcs = jp->total_pcs();
        jit_stats_.deopts = jp->deopts() - deopts_before;
        if (jit_stats_.deopts > 0) {
          telemetry::JitDeoptEvents().Add(jit_stats_.deopts);
        }
      }
      if (EnvLevel("QC_JIT_STATS") != 0) {
        telemetry::Log(
            telemetry::LogLevel::kInfo, "jit_stats",
            {{"fn", fn.name()},
             {"coverage_pct", jit_stats_.CoveragePct()},
             {"native_pcs", jit_stats_.native_pcs},
             {"total_pcs", jit_stats_.total_pcs},
             {"deopts", static_cast<unsigned long long>(jit_stats_.deopts)},
             {"engine", jit_stats_.jitted ? "jit" : "vm_degraded"}});
      }
    }
    return result;
  }
  return RunTreeWalk(fn);
}

storage::ResultTable Interpreter::RunTreeWalk(const ir::Function& fn) {
  // Emit-type discovery walks the whole block tree; do it once per function
  // and reuse the register storage's capacity across runs.
  if (prepared_fn_ != &fn || prepared_name_ != fn.name() ||
      prepared_stmts_ != fn.num_stmts()) {
    emit_types_ = EmitRowTypes(fn);
    prepared_fn_ = &fn;
    prepared_name_ = fn.name();
    prepared_stmts_ = fn.num_stmts();
  }
  // Release the previous run's working set (results own their strings).
  lists_.clear();
  arrays_.clear();
  maps_.clear();
  mmaps_.clear();
  strings_.clear();
  records_.Reset();
  regs_.assign(fn.num_stmts(), SlotI(0));
  out_ = storage::ResultTable();
  out_.SetTypes(emit_types_);
  parallel::ExecState st;
  st.regs = regs_.data();
  st.stats = &stats_;
  st.records = &records_;
  st.lists = &lists_;
  st.arrays = &arrays_;
  st.maps = &maps_;
  st.mmaps = &mmaps_;
  st.strings = &strings_;
  st.out = &out_;
  {
    telemetry::ScopedSpan span("exec", "exec", "threads", 1);
    ExecBlock(st, fn.body());
  }
  return std::move(out_);
}

void Interpreter::ExecBlock(parallel::ExecState& st, const Block* b) {
  for (const Stmt* s : b->stmts) ExecStmt(st, s);
}

bool Interpreter::BlockCond(parallel::ExecState& st, const Block* b) {
  ExecBlock(st, b);
  return Val(st, b->result).i != 0;
}

void Interpreter::SortSlots(parallel::ExecState& st, Slot* data, int64_t n,
                            const Stmt* s) {
  struct TwCmp : SlotCmp {
    Interpreter* in;
    parallel::ExecState* st;
    const Block* blk;
    bool Less(Slot a, Slot b) override {
      in->Set(*st, blk->params[0], a);
      in->Set(*st, blk->params[1], b);
      return in->BlockCond(*st, blk);
    }
  };
  TwCmp cmp;
  cmp.in = this;
  cmp.st = &st;
  cmp.blk = s->blocks[0];
  StableSortSlots(data, n, cmp);
}

void Interpreter::ExecStmt(parallel::ExecState& st, const Stmt* s) {
  switch (s->op) {
    case Op::kConst:
      if (s->type->kind == TypeKind::kStr) {
        Set(st, s, SlotS(s->sval.c_str()));
      } else if (s->type->kind == TypeKind::kF64) {
        Set(st, s, SlotD(s->fval));
      } else {
        Set(st, s, SlotI(s->ival));
      }
      break;
    case Op::kNull:
      Set(st, s, SlotP(nullptr));
      break;

    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod: {
      Slot a = Val(st, s->args[0]), b = Val(st, s->args[1]);
      if (s->type->kind == TypeKind::kF64) {
        double r = 0;
        switch (s->op) {
          case Op::kAdd: r = a.d + b.d; break;
          case Op::kSub: r = a.d - b.d; break;
          case Op::kMul: r = a.d * b.d; break;
          case Op::kDiv: r = a.d / b.d; break;
          default: std::abort();
        }
        Set(st, s, SlotD(r));
      } else {
        int64_t r = 0;
        switch (s->op) {
          case Op::kAdd: r = a.i + b.i; break;
          case Op::kSub: r = a.i - b.i; break;
          case Op::kMul: r = a.i * b.i; break;
          case Op::kDiv: r = b.i == 0 ? 0 : a.i / b.i; break;
          case Op::kMod: r = b.i == 0 ? 0 : a.i % b.i; break;
          default: std::abort();
        }
        Set(st, s, SlotI(r));
      }
      break;
    }
    case Op::kNeg: {
      Slot a = Val(st, s->args[0]);
      Set(st, s,
          s->type->kind == TypeKind::kF64 ? SlotD(-a.d) : SlotI(-a.i));
      break;
    }
    case Op::kCast: {
      Slot a = Val(st, s->args[0]);
      TypeKind from = s->args[0]->type->kind;
      TypeKind to = s->type->kind;
      if (from == TypeKind::kF64 && to != TypeKind::kF64) {
        Set(st, s, SlotI(static_cast<int64_t>(a.d)));
      } else if (from != TypeKind::kF64 && to == TypeKind::kF64) {
        Set(st, s, SlotD(static_cast<double>(a.i)));
      } else {
        Set(st, s, a);
      }
      break;
    }

    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      Slot a = Val(st, s->args[0]), b = Val(st, s->args[1]);
      bool r = false;
      if (s->args[0]->type->kind == TypeKind::kF64) {
        switch (s->op) {
          case Op::kEq: r = a.d == b.d; break;
          case Op::kNe: r = a.d != b.d; break;
          case Op::kLt: r = a.d < b.d; break;
          case Op::kLe: r = a.d <= b.d; break;
          case Op::kGt: r = a.d > b.d; break;
          case Op::kGe: r = a.d >= b.d; break;
          default: break;
        }
      } else {
        switch (s->op) {
          case Op::kEq: r = a.i == b.i; break;
          case Op::kNe: r = a.i != b.i; break;
          case Op::kLt: r = a.i < b.i; break;
          case Op::kLe: r = a.i <= b.i; break;
          case Op::kGt: r = a.i > b.i; break;
          case Op::kGe: r = a.i >= b.i; break;
          default: break;
        }
      }
      Set(st, s, SlotI(r ? 1 : 0));
      break;
    }

    case Op::kAnd:
      Set(st, s,
          SlotI(Val(st, s->args[0]).i != 0 && Val(st, s->args[1]).i != 0
                    ? 1
                    : 0));
      break;
    case Op::kOr:
      Set(st, s,
          SlotI(Val(st, s->args[0]).i != 0 || Val(st, s->args[1]).i != 0
                    ? 1
                    : 0));
      break;
    case Op::kNot:
      Set(st, s, SlotI(Val(st, s->args[0]).i == 0 ? 1 : 0));
      break;
    case Op::kBitAnd:
      Set(st, s, SlotI(Val(st, s->args[0]).i & Val(st, s->args[1]).i));
      break;

    case Op::kStrEq:
      Set(st, s,
          SlotI(std::strcmp(Val(st, s->args[0]).s, Val(st, s->args[1]).s) ==
                0));
      break;
    case Op::kStrNe:
      Set(st, s,
          SlotI(std::strcmp(Val(st, s->args[0]).s, Val(st, s->args[1]).s) !=
                0));
      break;
    case Op::kStrLt:
      Set(st, s,
          SlotI(std::strcmp(Val(st, s->args[0]).s, Val(st, s->args[1]).s) <
                0));
      break;
    case Op::kStrStartsWith:
      Set(st, s,
          SlotI(StrStartsWith(Val(st, s->args[0]).s, Val(st, s->args[1]).s)));
      break;
    case Op::kStrEndsWith:
      Set(st, s,
          SlotI(StrEndsWith(Val(st, s->args[0]).s, Val(st, s->args[1]).s)));
      break;
    case Op::kStrContains:
      Set(st, s,
          SlotI(StrContains(Val(st, s->args[0]).s, Val(st, s->args[1]).s)));
      break;
    case Op::kStrLike:
      Set(st, s, SlotI(StrLike(Val(st, s->args[0]).s, s->sval)));
      break;
    case Op::kStrLen:
      Set(st, s,
          SlotI(static_cast<int64_t>(std::strlen(Val(st, s->args[0]).s))));
      break;
    case Op::kStrSubstr: {
      const char* str = Val(st, s->args[0]).s;
      size_t len = std::strlen(str);
      size_t start = std::min<size_t>(s->aux0, len);
      size_t n = std::min<size_t>(s->aux1, len - start);
      Set(st, s, SlotS(Intern(st, std::string(str + start, n))));
      break;
    }

    case Op::kVarNew:
      Set(st, s, Val(st, s->args[0]));
      break;
    case Op::kVarRead:
      Set(st, s, Val(st, s->args[0]));
      break;
    case Op::kVarAssign:
      Set(st, s->args[0], Val(st, s->args[1]));
      break;

    case Op::kIf:
      if (Val(st, s->args[0]).i != 0) {
        ExecBlock(st, s->blocks[0]);
      } else if (s->blocks.size() > 1) {
        ExecBlock(st, s->blocks[1]);
      }
      break;
    case Op::kForRange: {
      int64_t lo = Val(st, s->args[0]).i;
      int64_t hi = Val(st, s->args[1]).i;
      const Block* body = s->blocks[0];
      const Stmt* ivar = body->params[0];
      for (int64_t i = lo; i < hi; ++i) {
        Set(st, ivar, SlotI(i));
        ExecBlock(st, body);
      }
      break;
    }
    case Op::kWhile:
      while (BlockCond(st, s->blocks[0])) {
        ExecBlock(st, s->blocks[1]);
      }
      break;

    case Op::kRecNew: {
      Slot* rec = st.records->AllocHeap(s->args.size());
      for (size_t i = 0; i < s->args.size(); ++i) rec[i] = Val(st, s->args[i]);
      Set(st, s, SlotP(rec));
      break;
    }
    case Op::kRecGet:
      Set(st, s, static_cast<Slot*>(Val(st, s->args[0]).p)[s->aux0]);
      break;
    case Op::kRecSet:
      static_cast<Slot*>(Val(st, s->args[0]).p)[s->aux0] =
          Val(st, s->args[1]);
      break;

    case Op::kArrNew:
    case Op::kMalloc: {
      st.arrays->emplace_back();
      RtArray& a = st.arrays->back();
      int64_t n = Val(st, s->args[0]).i;
      a.data.assign(n, SlotI(0));
      if (s->op == Op::kMalloc) {
        st.stats->heap_bytes += n * sizeof(Slot);
        ++st.stats->heap_allocs;
      } else {
        st.stats->vector_bytes += n * sizeof(Slot);
      }
      Set(st, s, SlotP(&a));
      break;
    }
    case Op::kArrGet:
      Set(st, s,
          static_cast<RtArray*>(Val(st, s->args[0]).p)
              ->data[Val(st, s->args[1]).i]);
      break;
    case Op::kArrSet:
      static_cast<RtArray*>(Val(st, s->args[0]).p)
          ->data[Val(st, s->args[1]).i] = Val(st, s->args[2]);
      break;
    case Op::kArrLen:
      Set(st, s,
          SlotI(static_cast<int64_t>(
              static_cast<RtArray*>(Val(st, s->args[0]).p)->data.size())));
      break;
    case Op::kArrSortBy: {
      RtArray* arr = static_cast<RtArray*>(Val(st, s->args[0]).p);
      SortSlots(st, arr->data.data(), Val(st, s->args[1]).i, s);
      break;
    }

    case Op::kListNew: {
      st.lists->emplace_back();
      Set(st, s, SlotP(&st.lists->back()));
      break;
    }
    case Op::kListAppend: {
      RtList* l = static_cast<RtList*>(Val(st, s->args[0]).p);
      size_t before = l->items.capacity();
      l->items.push_back(Val(st, s->args[1]));
      st.stats->vector_bytes += (l->items.capacity() - before) * sizeof(Slot);
      break;
    }
    case Op::kListForeach: {
      RtList* l = static_cast<RtList*>(Val(st, s->args[0]).p);
      const Block* body = s->blocks[0];
      const Stmt* e = body->params[0];
      for (size_t i = 0; i < l->items.size(); ++i) {
        Set(st, e, l->items[i]);
        ExecBlock(st, body);
      }
      break;
    }
    case Op::kListSize:
      Set(st, s,
          SlotI(static_cast<int64_t>(
              static_cast<RtList*>(Val(st, s->args[0]).p)->items.size())));
      break;
    case Op::kListGet:
      Set(st, s,
          static_cast<RtList*>(Val(st, s->args[0]).p)
              ->items[Val(st, s->args[1]).i]);
      break;
    case Op::kListSortBy: {
      RtList* l = static_cast<RtList*>(Val(st, s->args[0]).p);
      SortSlots(st, l->items.data(),
                static_cast<int64_t>(l->items.size()), s);
      break;
    }

    case Op::kMapNew: {
      st.maps->emplace_back(s->type->key, st.stats);
      Set(st, s, SlotP(&st.maps->back()));
      break;
    }
    case Op::kMapGetOrElseUpdate: {
      RtHashMap* m = static_cast<RtHashMap*>(Val(st, s->args[0]).p);
      Slot key = Val(st, s->args[1]);
      RtHashMap::Node* n = m->Find(key);
      if (n == nullptr) {
        const Block* init = s->blocks[0];
        ExecBlock(st, init);
        n = m->Insert(key, Val(st, init->result));
      }
      Set(st, s, n->value);
      break;
    }
    case Op::kMapGetOrNull: {
      RtHashMap* m = static_cast<RtHashMap*>(Val(st, s->args[0]).p);
      RtHashMap::Node* n = m->Find(Val(st, s->args[1]));
      Set(st, s, n == nullptr ? SlotP(nullptr) : n->value);
      break;
    }
    case Op::kMapForeach: {
      RtHashMap* m = static_cast<RtHashMap*>(Val(st, s->args[0]).p);
      const Block* body = s->blocks[0];
      for (RtHashMap::Node* n : m->entries()) {
        Set(st, body->params[0], n->key);
        Set(st, body->params[1], n->value);
        ExecBlock(st, body);
      }
      break;
    }
    case Op::kMapSize:
      Set(st, s,
          SlotI(static_cast<int64_t>(
              static_cast<RtHashMap*>(Val(st, s->args[0]).p)->size())));
      break;

    case Op::kMMapNew: {
      st.mmaps->emplace_back(s->type->key, st.stats);
      Set(st, s, SlotP(&st.mmaps->back()));
      break;
    }
    case Op::kMMapAdd:
      static_cast<RtMultiMap*>(Val(st, s->args[0]).p)
          ->Add(Val(st, s->args[1]), Val(st, s->args[2]));
      break;
    case Op::kMMapGetOrNull:
      Set(st, s,
          SlotP(static_cast<RtMultiMap*>(Val(st, s->args[0]).p)
                    ->GetOrNull(Val(st, s->args[1]))));
      break;

    case Op::kIsNull:
      Set(st, s, SlotI(Val(st, s->args[0]).p == nullptr ? 1 : 0));
      break;

    case Op::kFree:
      break;  // arena/deque-owned; modelled as a no-op
    case Op::kPoolNew: {
      // The handle only needs to carry the element field count.
      Set(st, s,
          SlotI(static_cast<int64_t>(s->type->elem->record->fields.size())));
      break;
    }
    case Op::kPoolAlloc: {
      size_t fields = static_cast<size_t>(Val(st, s->args[0]).i);
      Set(st, s, SlotP(st.records->AllocPool(fields)));
      break;
    }
    case Op::kPoolRecNew: {
      Slot* rec = st.records->AllocPool(s->args.size() - 1);
      for (size_t i = 1; i < s->args.size(); ++i) {
        rec[i - 1] = Val(st, s->args[i]);
      }
      Set(st, s, SlotP(rec));
      break;
    }

    case Op::kTableRows:
      Set(st, s, SlotI(db_->table(s->aux0).rows()));
      break;
    case Op::kColGet:
      Set(st, s,
          db_->table(s->aux0).column(s->aux1).data[Val(st, s->args[0]).i]);
      break;
    case Op::kColDict:
      Set(st, s,
          SlotI(db_->Dictionary(s->aux0, s->aux1)
                    .codes[Val(st, s->args[0]).i]));
      break;
    case Op::kIdxBucketLen:
      Set(st, s,
          SlotI(db_->Partition(s->aux0, s->aux1)
                    .BucketLen(Val(st, s->args[0]).i)));
      break;
    case Op::kIdxBucketRow:
      Set(st, s,
          SlotI(db_->Partition(s->aux0, s->aux1)
                    .BucketRow(Val(st, s->args[0]).i, Val(st, s->args[1]).i)));
      break;
    case Op::kIdxPkRow:
      Set(st, s,
          SlotI(db_->PrimaryIndex(s->aux0, s->aux1)
                    .RowOf(Val(st, s->args[0]).i)));
      break;

    case Op::kEmit: {
      std::vector<Slot> row;
      row.reserve(s->args.size());
      for (const Stmt* a : s->args) {
        Slot v = Val(st, a);
        if (a->type->kind == TypeKind::kStr) {
          v = SlotS(st.out->InternString(v.s));
        }
        row.push_back(v);
      }
      st.out->AddRow(std::move(row));
      break;
    }

    default:
      std::fprintf(stderr, "interpreter: unhandled op %s\n", OpName(s->op));
      std::abort();
  }
}

}  // namespace qc::exec
