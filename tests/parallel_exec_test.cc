// Morsel-driven parallel execution (exec/parallel.h): results must be
// BITWISE identical to the sequential engines — same row order, same f64
// bit patterns, same string contents — for every TPC-H query, at every
// tested thread count and morsel size, on the bytecode VM and the JIT. The
// f64-addend replay makes this exact (not approximate) even for
// floating-point sums, so these tests compare bit patterns, not canonical
// text. The tree walker, which runs sequentially only, is the reference
// oracle: it must match the single-threaded VM bit for bit.
//
// Figure 8 accounting is asserted too: AllocStats of a parallel run must
// equal the sequential run's exactly (AllocStats::MergeFrom + the merge
// phase's credits for transient per-morsel storage).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "compiler/compiler.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "ir/parallel.h"
#include "lower/pipeline.h"
#include "telemetry/trace.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;
using exec::InterpOptions;

InterpOptions Opts(InterpOptions::Engine e, int threads,
                   int64_t morsel_rows = 2048) {
  InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

// Bit-exact, position-exact equality (doubles compared on bit patterns).
void ExpectBitExact(const storage::ResultTable& got,
                    const storage::ResultTable& want,
                    const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag << ": row count";
  ASSERT_EQ(got.types().size(), want.types().size()) << tag << ": arity";
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got.types().size(); ++c) {
      if (got.types()[c] == storage::ColType::kStr) {
        ASSERT_STREQ(got.row(r)[c].s, want.row(r)[c].s)
            << tag << ": row " << r << " col " << c;
      } else {
        ASSERT_EQ(got.row(r)[c].i, want.row(r)[c].i)
            << tag << ": row " << r << " col " << c;
      }
    }
  }
}

void ExpectStatsEqual(const exec::AllocStats& got,
                      const exec::AllocStats& want, const std::string& tag) {
  EXPECT_EQ(got.heap_bytes, want.heap_bytes) << tag << ": heap_bytes";
  EXPECT_EQ(got.heap_allocs, want.heap_allocs) << tag << ": heap_allocs";
  EXPECT_EQ(got.pool_bytes, want.pool_bytes) << tag << ": pool_bytes";
  EXPECT_EQ(got.vector_bytes, want.vector_bytes) << tag << ": vector_bytes";
}

storage::Database* TpchDb() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.01));
  return db;
}

// The engines that run morsel-parallel; the tree walker is sequential only.
const InterpOptions::Engine kThreadedEngines[] = {
    InterpOptions::Engine::kBytecode, InterpOptions::Engine::kJit};

const char* EngineName(InterpOptions::Engine e) {
  switch (e) {
    case InterpOptions::Engine::kBytecode:
      return "bytecode";
    case InterpOptions::Engine::kTreeWalk:
      return "treewalk";
    case InterpOptions::Engine::kJit:
      return "jit";
  }
  return "?";
}

// The sequential oracle: the tree walker at one thread must reproduce the
// single-threaded bytecode VM's result and AllocStats exactly.
void ExpectTreeWalkMatches(storage::Database* db, const ir::Function& fn,
                           const storage::ResultTable& want,
                           const exec::AllocStats& want_stats,
                           const std::string& tag) {
  exec::Interpreter tree(db, Opts(InterpOptions::Engine::kTreeWalk, 1));
  ExpectBitExact(tree.Run(fn), want, tag + " treewalk");
  ExpectStatsEqual(tree.stats(), want_stats, tag + " treewalk");
}

size_t CountOccurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Runs `fn` under a trace session and returns how many loops ran
// morsel-parallel (one `par_loop` span each).
size_t TracedParLoops(exec::Interpreter* interp, const ir::Function& fn,
                      storage::ResultTable* out) {
  uint64_t s = telemetry::TraceBeginSession();
  {
    telemetry::TraceScope scope(s);
    *out = interp->Run(fn);
  }
  return CountOccurrences(telemetry::TraceEndSession(s),
                          "\"name\":\"par_loop\"");
}

class ParallelExecTpchTest : public ::testing::TestWithParam<int> {
 protected:
  static storage::Database* db() { return TpchDb(); }

  // Runs `fn` sequentially as the reference, checks the tree-walk oracle
  // against it, then runs the threaded engines across thread counts x a
  // second morsel size, asserting bitwise equality and exact AllocStats
  // agreement every time.
  static void CheckAllConfigs(const ir::Function& fn,
                              const std::string& tag) {
    exec::Interpreter ref(db(), Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(fn);
    ExpectTreeWalkMatches(db(), fn, want, ref.stats(), tag);

    for (InterpOptions::Engine e : kThreadedEngines) {
      exec::AllocStats seq_stats;
      for (int threads : {1, 2, 4}) {
        exec::Interpreter interp(db(), Opts(e, threads));
        storage::ResultTable got = interp.Run(fn);
        std::string t =
            tag + " " + EngineName(e) + " threads=" + std::to_string(threads);
        ExpectBitExact(got, want, t);
        if (threads == 1) {
          seq_stats = interp.stats();
        } else {
          ExpectStatsEqual(interp.stats(), seq_stats, t);
        }
      }
      // An odd morsel size exercises boundary handling and many-morsel
      // merges; results must not depend on the decomposition.
      exec::Interpreter odd(db(), Opts(e, 3, 777));
      storage::ResultTable got = odd.Run(fn);
      ExpectBitExact(got, want, tag + " " + EngineName(e) + " morsel=777");
      ExpectStatsEqual(odd.stats(), seq_stats,
                       tag + " " + EngineName(e) + " morsel=777");
    }
  }
};

// ScaLite[Map,List]: the pipelined lowering — generic hash maps,
// multimaps, and lists are the reduction state.
TEST_P(ParallelExecTpchTest, PipelinedBitExactAcrossThreads) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  ir::TypeFactory types;
  auto fn = lower::LowerPlanPipelined(*plan, *db(), &types,
                                      "q" + std::to_string(q));
  CheckAllConfigs(*fn, "Q" + std::to_string(q) + " L3");
}

// Full 5-level stack: direct-addressed group arrays, intrusive bucket
// arrays, pools — the specialized reduction shapes.
TEST_P(ParallelExecTpchTest, Level5BitExactAcrossThreads) {
  int q = GetParam();
  qplan::PlanPtr plan = tpch::MakeQuery(q);
  qplan::ResolvePlan(plan.get(), *db());
  ir::TypeFactory types;
  QueryCompiler qc(db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
  CheckAllConfigs(*res.fn, "Q" + std::to_string(q) + " L5");
}

INSTANTIATE_TEST_SUITE_P(AllQueries, ParallelExecTpchTest,
                         ::testing::Range(1, 23));

// Hand-built global-aggregation shapes (sum / count / guarded min / max /
// f64 sum), exactly as lower/pipeline.cc lowers them: the scalar-reduction
// merges must fold the morsel accumulators correctly. Guards against the
// scalar paths regressing while the TPC-H suite happens not to exercise
// them (its scalar folds are shadowed by grouped shapes).
TEST(ParallelScalarReductionTest, SumCountMinMaxMatchSequential) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("scalar_aggs", &types);
  ir::Builder b(&fn);
  ir::Stmt* sum = b.VarNew(b.I64(0));
  ir::Stmt* fsum = b.VarNew(b.F64(0.0));
  ir::Stmt* cnt = b.VarNew(b.I64(0));
  ir::Stmt* mn = b.VarNew(b.I64(0));
  ir::Stmt* mx = b.VarNew(b.I64(0));
  const int64_t kRows = 100000;
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.If(b.Eq(b.Mod(i, b.I64(7)), b.I64(3)), [&] {
      ir::Stmt* n0 = b.VarRead(cnt);
      ir::Stmt* v = b.Mul(b.Sub(b.I64(50000), i), b.I64(3));
      b.VarAssign(sum, b.Add(b.VarRead(sum), v));
      b.VarAssign(fsum, b.Add(b.VarRead(fsum), b.Cast(v, types.F64())));
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Lt(v, b.VarRead(mn))),
           [&] { b.VarAssign(mn, v); });
      b.If(b.Or(b.Eq(n0, b.I64(0)), b.Gt(v, b.VarRead(mx))),
           [&] { b.VarAssign(mx, v); });
      b.VarAssign(cnt, b.Add(n0, b.I64(1)));
    });
  });
  b.EmitRow({b.VarRead(sum), b.VarRead(fsum), b.VarRead(cnt), b.VarRead(mn),
             b.VarRead(mx)});

  // The loop must actually qualify, with all five scalar reductions.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 5u);

  int64_t want_sum = 0, want_cnt = 0, want_mn = 0, want_mx = 0;
  double want_fsum = 0.0;
  for (int64_t i = 0; i < kRows; ++i) {
    if (i % 7 != 3) continue;
    int64_t v = (50000 - i) * 3;
    want_sum += v;
    want_fsum += static_cast<double>(v);
    if (want_cnt == 0 || v < want_mn) want_mn = v;
    if (want_cnt == 0 || v > want_mx) want_mx = v;
    ++want_cnt;
  }

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ExpectTreeWalkMatches(&db, fn, want, ref.stats(), "scalar");
  for (InterpOptions::Engine engine : kThreadedEngines) {
    for (int threads : {1, 4}) {
      std::string tag =
          std::string(EngineName(engine)) + " threads=" +
          std::to_string(threads);
      exec::Interpreter interp(&db, Opts(engine, threads, 512));
      storage::ResultTable r = interp.Run(fn);
      ASSERT_EQ(r.size(), 1u);
      EXPECT_EQ(r.row(0)[0].i, want_sum) << "sum, " << tag;
      EXPECT_EQ(r.row(0)[1].d, want_fsum) << "fsum, " << tag;
      EXPECT_EQ(r.row(0)[2].i, want_cnt) << "count, " << tag;
      EXPECT_EQ(r.row(0)[3].i, want_mn) << "min, " << tag;
      EXPECT_EQ(r.row(0)[4].i, want_mx) << "max, " << tag;
      ExpectBitExact(r, want, tag);
    }
  }
}

// An f64 sum whose addend is a column read that a later min guard compares
// too (a shape the property test's random plans produce). The bytecode
// compiler sinks each column read to just before its first consumer; in a
// morsel fragment that consumer is the kLogRow logging the addend, not the
// min guard — sunk past the log, the read would log the previous row.
TEST(ParallelScalarReductionTest, LoggedColumnAddendAlsoFeedsMinGuard) {
  qplan::PlanPtr plan = qplan::AggOp(
      qplan::ScanOp("lineitem"), {},
      {qplan::Sum(qplan::Col("l_extendedprice"), "s"),
       qplan::Min(qplan::Col("l_extendedprice"), "mn")});
  qplan::ResolvePlan(plan.get(), *TpchDb());
  ir::TypeFactory types;
  QueryCompiler qc(TpchDb(), &types);
  for (int level : {2, 5}) {
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "sum_min");
    std::string lvl = "L" + std::to_string(level);
    exec::Interpreter ref(TpchDb(), Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(*res.fn);
    ExpectTreeWalkMatches(TpchDb(), *res.fn, want, ref.stats(), lvl);
    for (InterpOptions::Engine e : kThreadedEngines) {
      for (int64_t morsel : {509, 2048}) {
        std::string tag = lvl + " " + EngineName(e) +
                          " morsel=" + std::to_string(morsel);
        exec::Interpreter interp(TpchDb(), Opts(e, 4, morsel));
        storage::ResultTable got;
        EXPECT_EQ(TracedParLoops(&interp, *res.fn, &got), 1u) << tag;
        ExpectBitExact(got, want, tag);
      }
    }
  }
}

// Skewed-key multimap build: a handful of hot keys whose value chains span
// every morsel. Locks the ordered merge's per-key bulk append (one probe
// per key per morsel, RtMultiMap::AddAll) — the values must recombine in
// exact sequential row order, with AllocStats to the byte, at every thread
// count and for a decomposition into many morsels.
TEST(ParallelSkewedKeyTest, HotKeyChainsMergeInRowOrder) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("skewed_mmap", &types);
  ir::Builder b(&fn);
  const ir::Type* i64 = types.I64();
  const int64_t kRows = 60000;
  const int64_t kKeys = 3;  // three hot chains, ~20k values each
  ir::Stmt* mm = b.MMapNew(i64, i64);
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    b.MMapAdd(mm, b.Mod(i, b.I64(kKeys)), b.Mul(i, b.I64(3)));
  });
  for (int64_t k = 0; k < kKeys; ++k) {
    ir::Stmt* vals = b.MMapGetOrNull(mm, b.I64(k));
    b.If(b.Not(b.IsNull(vals)), [&] {
      b.ListForeach(vals, [&](ir::Stmt* v) { b.EmitRow({v}); });
    });
  }

  // The build loop must qualify with the multimap reduction.
  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 1u);
  EXPECT_EQ(info.loops[0].reductions[0].kind, ir::ParRedKind::kMMap);

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), static_cast<size_t>(kRows));
  ExpectTreeWalkMatches(&db, fn, want, ref.stats(), "skewed");
  for (InterpOptions::Engine engine : kThreadedEngines) {
    exec::AllocStats seq_stats;
    const char* name = EngineName(engine);
    for (int threads : {1, 2, 4}) {
      // Morsel size 509: ~118 morsels, so every hot chain is stitched from
      // over a hundred per-morsel fragments.
      exec::Interpreter interp(&db, Opts(engine, threads, 509));
      storage::ResultTable got = interp.Run(fn);
      std::string t = std::string("skewed ") + name + " threads=" +
                      std::to_string(threads);
      ExpectBitExact(got, want, t);
      if (threads == 1) {
        seq_stats = interp.stats();
      } else {
        ExpectStatsEqual(interp.stats(), seq_stats, t);
      }
    }
  }
}

// Runtime witness that direct-addressed group arrays still run in parallel.
// A loop privatizes its group/bucket arrays only when each fits in one
// morsel (larger ones would cost more to allocate and merge than the scan
// saves), so the suite above would still pass if no array loop ever ran in
// parallel. The par_loop span count pins which loops did:
//   Q1:  the lineitem scan into a 6-slot group array;
//   Q17: the lineitem scan into a 2000-slot (part key) group array, plus a
//        scalar f64-sum scan;
//   Q18: the lineitem scan into a 15000-slot (order key) group array, plus
//        a hash-map scan — at morsel 2048 the array no longer fits. Its two
//        15000-row join-bucket builds stay sequential at both sizes: too
//        few rows for two 16384-row morsels, too many slots for 2048;
//   Q20: the lineitem scan into a 200000-slot group array stays sequential
//        at any morsel size here; only the multimap build runs in parallel.
TEST(ParallelArrayGateTest, GroupArrayLoopsStillRunInParallel) {
  struct Case {
    int q;
    int64_t morsel_rows;
    size_t par_loops;
  };
  const Case cases[] = {{1, 16384, 1}, {17, 16384, 2}, {17, 2048, 2},
                        {18, 16384, 2}, {18, 2048, 1}, {20, 16384, 1}};
  for (const Case& c : cases) {
    qplan::PlanPtr plan = tpch::MakeQuery(c.q);
    qplan::ResolvePlan(plan.get(), *TpchDb());
    ir::TypeFactory types;
    QueryCompiler qc(TpchDb(), &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(c.q));
    exec::Interpreter ref(TpchDb(), Opts(InterpOptions::Engine::kBytecode, 1));
    storage::ResultTable want = ref.Run(*res.fn);
    ExpectTreeWalkMatches(TpchDb(), *res.fn, want, ref.stats(),
                          "Q" + std::to_string(c.q));
    for (InterpOptions::Engine e : kThreadedEngines) {
      std::string tag = "Q" + std::to_string(c.q) + " " + EngineName(e) +
                        " morsel=" + std::to_string(c.morsel_rows);
      exec::Interpreter interp(TpchDb(), Opts(e, 4, c.morsel_rows));
      storage::ResultTable got;
      EXPECT_EQ(TracedParLoops(&interp, *res.fn, &got), c.par_loops) << tag;
      ExpectBitExact(got, want, tag);
    }
  }
}

// A group array with more slots than a morsel has rows runs sequentially
// (no par_loop span) — same bytes, same AllocStats at every thread count.
// With a morsel big enough for the array, the same loop runs in parallel.
TEST(ParallelArrayGateTest, ArrayLargerThanMorselRunsSequentially) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("wide_group_array", &types);
  ir::Builder b(&fn);
  const ir::Type* agg = types.Record(
      "G", {{"g", types.I64()}, {"sum", types.F64()}, {"n", types.I64()}});
  const int64_t kRows = 40000;
  const int64_t kSlots = 5000;
  ir::Stmt* arr = b.ArrNew(agg, b.I64(kSlots));
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    ir::Stmt* k = b.Mod(b.Mul(i, b.I64(7919)), b.I64(kSlots));
    b.If(b.IsNull(b.ArrGet(arr, k)), [&] {
      b.ArrSet(arr, k, b.RecNew(agg, {k, b.F64(0.0), b.I64(0)}));
    });
    ir::Stmt* rec = b.ArrGet(arr, k);
    b.RecSet(rec, 1,
             b.Add(b.RecGet(rec, 1),
                   b.Mul(b.Cast(i, types.F64()), b.F64(0.1))));
    b.RecSet(rec, 2, b.Add(b.RecGet(rec, 2), b.I64(1)));
  });
  // Fewer than two morsels of rows at both sizes below: the emit loop
  // itself never runs in parallel.
  b.ForRange(b.I64(0), b.I64(kSlots), [&](ir::Stmt* j) {
    ir::Stmt* rec = b.ArrGet(arr, j);
    b.If(b.Not(b.IsNull(rec)), [&] {
      b.EmitRow({b.RecGet(rec, 0), b.RecGet(rec, 1), b.RecGet(rec, 2)});
    });
  });

  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  bool group_array = false;
  for (const ir::ParLoop& pl : info.loops) {
    for (const ir::ParReduction& r : pl.reductions) {
      group_array |= r.kind == ir::ParRedKind::kGroupArray;
    }
  }
  ASSERT_TRUE(group_array) << "the scan must qualify as a group-array loop";

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), static_cast<size_t>(kSlots));
  ExpectTreeWalkMatches(&db, fn, want, ref.stats(), "wide group array");
  for (InterpOptions::Engine e : kThreadedEngines) {
    exec::AllocStats seq_stats;
    for (int threads : {1, 2, 4}) {
      std::string tag =
          std::string(EngineName(e)) + " threads=" + std::to_string(threads);
      // 4096-row morsels: the 5000-slot array does not fit.
      exec::Interpreter interp(&db, Opts(e, threads, 4096));
      storage::ResultTable got;
      EXPECT_EQ(TracedParLoops(&interp, fn, &got), 0u) << tag;
      ExpectBitExact(got, want, tag);
      if (threads == 1) {
        seq_stats = interp.stats();
      } else {
        ExpectStatsEqual(interp.stats(), seq_stats, tag);
      }
    }
    exec::Interpreter fits(&db, Opts(e, 4, 8192));
    storage::ResultTable got;
    EXPECT_EQ(TracedParLoops(&fits, fn, &got), 1u) << EngineName(e);
    ExpectBitExact(got, want, std::string(EngineName(e)) + " morsel=8192");
    ExpectStatsEqual(fits.stats(), seq_stats,
                     std::string(EngineName(e)) + " morsel=8192");
  }
}

// Hash-map grouping with an f64 sum: its log entries are keyed by the
// morsel-local group record and replayed through the merge's flat remap
// table. Thousands of groups recur in every morsel, so each merge combines
// into existing main records; morsel sizes 7 and 509 size the per-morsel
// table from its minimum up to ~1k slots.
TEST(ParallelMapRemapTest, ManyGroupsF64SumBitExact) {
  storage::Database db;
  ir::TypeFactory types;
  ir::Function fn("map_f64_groups", &types);
  ir::Builder b(&fn);
  const ir::Type* agg = types.Record(
      "M", {{"g", types.I64()}, {"sum", types.F64()}, {"n", types.I64()}});
  const int64_t kRows = 30000;
  const int64_t kGroups = 2500;
  ir::Stmt* map = b.MapNew(types.I64(), agg);
  b.ForRange(b.I64(0), b.I64(kRows), [&](ir::Stmt* i) {
    ir::Stmt* k = b.Mod(b.Mul(i, b.I64(31)), b.I64(kGroups));
    ir::Stmt* rec = b.MapGetOrElseUpdate(map, k, [&] {
      return b.RecNew(agg, {k, b.F64(0.0), b.I64(0)});
    });
    b.RecSet(rec, 1,
             b.Add(b.RecGet(rec, 1),
                   b.Div(b.Cast(i, types.F64()), b.F64(3.0))));
    b.RecSet(rec, 2, b.Add(b.RecGet(rec, 2), b.I64(1)));
  });
  b.MapForeach(map, [&](ir::Stmt* /*k*/, ir::Stmt* rec) {
    b.EmitRow({b.RecGet(rec, 0), b.RecGet(rec, 1), b.RecGet(rec, 2)});
  });

  ir::ParallelInfo info = ir::AnalyzeParallelism(fn);
  ASSERT_EQ(info.loops.size(), 1u);
  ASSERT_EQ(info.loops[0].reductions.size(), 1u);
  EXPECT_EQ(info.loops[0].reductions[0].kind, ir::ParRedKind::kMap);
  ASSERT_EQ(info.loops[0].logs.size(), 1u);
  EXPECT_LT(info.loops[0].logs[0].array_red, 0) << "record-keyed channel";

  exec::Interpreter ref(&db, Opts(InterpOptions::Engine::kBytecode, 1));
  storage::ResultTable want = ref.Run(fn);
  ASSERT_EQ(want.size(), static_cast<size_t>(kGroups));
  exec::AllocStats seq_stats = ref.stats();
  ExpectTreeWalkMatches(&db, fn, want, seq_stats, "map remap");
  for (InterpOptions::Engine e : kThreadedEngines) {
    for (int64_t morsel : {7, 509}) {
      for (int threads : {2, 4}) {
        std::string tag = std::string(EngineName(e)) +
                          " morsel=" + std::to_string(morsel) +
                          " threads=" + std::to_string(threads);
        exec::Interpreter interp(&db, Opts(e, threads, morsel));
        storage::ResultTable got;
        EXPECT_EQ(TracedParLoops(&interp, fn, &got), 1u) << tag;
        ExpectBitExact(got, want, tag);
        ExpectStatsEqual(interp.stats(), seq_stats, tag);
      }
    }
  }
}

// Two 4-thread runs must produce identical bytes (scheduling independence).
TEST(ParallelDeterminismTest, FourThreadRunsIdentical) {
  storage::Database db = tpch::MakeTpchDatabase(0.01);
  for (int q : {1, 6, 3}) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(5), "q" + std::to_string(q));
    exec::Interpreter a(&db, Opts(InterpOptions::Engine::kBytecode, 4, 1024));
    exec::Interpreter b(&db, Opts(InterpOptions::Engine::kBytecode, 4, 1024));
    storage::ResultTable ra = a.Run(*res.fn);
    storage::ResultTable rb = b.Run(*res.fn);
    ExpectBitExact(ra, rb, "determinism Q" + std::to_string(q));
    ExpectStatsEqual(a.stats(), b.stats(),
                     "determinism Q" + std::to_string(q));
  }
}

// Guard against the whole suite passing vacuously: the analysis must
// actually find parallelizable loops (with the expected reduction shapes)
// in the flagship queries, at both stack levels.
TEST(ParallelAnalysisTest, FlagshipLoopsQualify) {
  storage::Database db = tpch::MakeTpchDatabase(0.002);

  auto analyze = [&](int q, int level) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), db);
    ir::TypeFactory types;
    if (level == 3) {
      auto fn = lower::LowerPlanPipelined(*plan, db, &types, "q");
      return ir::AnalyzeParallelism(*fn);
    }
    QueryCompiler qc(&db, &types);
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "q");
    return ir::AnalyzeParallelism(*res.fn);
  };

  // Q6: global f64 sum — one loop, one kVarSumF reduction with a log.
  {
    ir::ParallelInfo info = analyze(6, 5);
    ASSERT_EQ(info.loops.size(), 1u) << "Q6 L5 scan loop must qualify";
    const ir::ParLoop& pl = info.loops[0];
    ASSERT_EQ(pl.reductions.size(), 1u);
    EXPECT_EQ(pl.reductions[0].kind, ir::ParRedKind::kVarSumF);
    ASSERT_EQ(pl.logs.size(), 1u);
    EXPECT_EQ(pl.logs[0].values.size(), 1u);
  }
  // Q1 L5: direct-addressed group array with f64-sum fields + count.
  {
    ir::ParallelInfo info = analyze(1, 5);
    bool found = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        if (r.kind == ir::ParRedKind::kGroupArray) {
          found = true;
          int sum_f = 0, sum_i = 0;
          for (ir::ParFold f : r.fields) {
            sum_f += f == ir::ParFold::kSumF;
            sum_i += f == ir::ParFold::kSumI;
          }
          EXPECT_EQ(sum_f, 7) << "Q1 has 7 f64 accumulator fields";
          EXPECT_GE(sum_i, 1) << "shared count field";
          EXPECT_FALSE(pl.logs.empty());
        }
      }
    }
    EXPECT_TRUE(found) << "Q1 L5 aggregation scan must qualify";
  }
  // Q1 L3: generic hash-map grouping.
  {
    ir::ParallelInfo info = analyze(1, 3);
    bool found = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        found |= r.kind == ir::ParRedKind::kMap;
      }
    }
    EXPECT_TRUE(found) << "Q1 L3 map aggregation must qualify";
  }
  // Q3 L5: intrusive bucket-array build + probe loop with map grouping.
  {
    ir::ParallelInfo info = analyze(3, 5);
    bool bucket = false, map = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        bucket |= r.kind == ir::ParRedKind::kBucketArray;
        map |= r.kind == ir::ParRedKind::kMap;
      }
    }
    EXPECT_TRUE(bucket) << "Q3 L5 build loop must qualify";
    EXPECT_TRUE(map) << "Q3 L5 probe loop must qualify";
  }
  // Q3 L3: generic multimap build.
  {
    ir::ParallelInfo info = analyze(3, 3);
    bool mmap = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        mmap |= r.kind == ir::ParRedKind::kMMap;
      }
    }
    EXPECT_TRUE(mmap) << "Q3 L3 multimap build must qualify";
  }
  // Q2 has a grouped min aggregate.
  {
    ir::ParallelInfo info = analyze(2, 5);
    bool min = false;
    for (const ir::ParLoop& pl : info.loops) {
      for (const ir::ParReduction& r : pl.reductions) {
        for (ir::ParFold f : r.fields) min |= f == ir::ParFold::kMin;
      }
    }
    EXPECT_TRUE(min) << "Q2 L5 min aggregation must qualify";
  }
}

}  // namespace
}  // namespace qc
