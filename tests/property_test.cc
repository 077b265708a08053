// Randomized property testing: generates random (but type-correct) query
// plans over the TPC-H schema — filters with random predicates, FK joins of
// random shape, random grouped/global aggregations — and checks that every
// stack configuration produces exactly the Volcano oracle's rows. This
// sweeps plan shapes the hand-written TPC-H queries do not cover.
//
// At every level the sequential tree walker is the differential oracle for
// the threaded engines: the VM and the JIT at 4 threads with odd-sized
// morsels must reproduce its rows position by position and bit for bit.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "compiler/compiler.h"
#include "exec/interp.h"
#include "tpch/datagen.h"
#include "volcano/volcano.h"

namespace qc {
namespace {

using namespace qc::qplan;  // NOLINT

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

exec::InterpOptions Opts(exec::InterpOptions::Engine e, int threads,
                         int64_t morsel_rows = 16384) {
  exec::InterpOptions o;
  o.engine = e;
  o.num_threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.002, 21));
  return db;
}

struct TableInfo {
  const char* name;
  const char* int_col;   // low-cardinality integral column
  const char* f64_col;   // numeric measure
  double f64_hi;         // rough max for predicate constants
  const char* fk_col;    // FK column (nullptr if none)
  const char* fk_table;  // referenced table
  const char* fk_pk;     // referenced PK
};

const TableInfo kTables[] = {
    {"lineitem", "l_linenumber", "l_extendedprice", 90000.0, "l_orderkey",
     "orders", "o_orderkey"},
    {"orders", "o_shippriority", "o_totalprice", 300000.0, "o_custkey",
     "customer", "c_custkey"},
    {"customer", "c_nationkey", "c_acctbal", 9000.0, "c_nationkey", "nation",
     "n_nationkey"},
    {"partsupp", "ps_availqty", "ps_supplycost", 1000.0, "ps_partkey", "part",
     "p_partkey"},
    {"supplier", "s_nationkey", "s_acctbal", 9000.0, "s_nationkey", "nation",
     "n_nationkey"},
};

class RandomPlanTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomPlanTest, AllConfigsMatchOracle) {
  Rng rng(GetParam());
  const TableInfo& t = kTables[rng.Uniform(0, std::size(kTables) - 1)];

  PlanPtr plan = ScanOp(t.name);
  // Random filter.
  if (rng.Uniform(0, 2) != 0) {
    double frac = rng.UniformDouble(0.2, 0.9);
    ExprPtr pred = Lt(Col(t.f64_col), F(t.f64_hi * frac));
    if (rng.Uniform(0, 1) == 0) {
      pred = And(pred, Gt(Col(t.f64_col), F(t.f64_hi * frac * 0.3)));
    }
    plan = SelectOp(std::move(plan), pred);
  }
  // Random FK join (inner / semi / anti).
  bool joined = false;
  if (t.fk_col != nullptr && rng.Uniform(0, 2) != 0) {
    JoinKind kinds[] = {JoinKind::kInner, JoinKind::kSemi, JoinKind::kAnti};
    JoinKind kind = kinds[rng.Uniform(0, 2)];
    plan = JoinOp(kind, std::move(plan), ScanOp(t.fk_table), {Col(t.fk_col)},
                  {Col(t.fk_pk)});
    joined = kind == JoinKind::kInner;
    (void)joined;
  }
  // Random aggregation: global or grouped by the low-cardinality column.
  if (rng.Uniform(0, 1) == 0) {
    plan = AggOp(std::move(plan), {},
                 {Sum(Col(t.f64_col), "s"), Count("n"),
                  Min(Col(t.f64_col), "mn"), Max(Col(t.f64_col), "mx")});
  } else {
    plan = AggOp(std::move(plan), {{"g", Col(t.int_col)}},
                 {Sum(Col(t.f64_col), "s"), Count("n"),
                  Avg(Col(t.f64_col), "a")});
  }

  ResolvePlan(plan.get(), *Db());
  storage::ResultTable oracle = volcano::Execute(*plan, *Db());

  ir::TypeFactory types;
  compiler::QueryCompiler qc(Db(), &types);
  for (int levels = 2; levels <= 5; ++levels) {
    compiler::CompileResult res = qc.Compile(
        *plan, compiler::StackConfig::Level(levels), "rand");
    exec::Interpreter interp(Db());
    storage::ResultTable got = interp.Run(*res.fn);
    std::string diff;
    EXPECT_TRUE(got.SameRows(oracle, &diff))
        << "seed " << GetParam() << " level " << levels << "\n"
        << plan->ToString() << diff;

    exec::Interpreter tree(Db(),
                           Opts(exec::InterpOptions::Engine::kTreeWalk, 1));
    storage::ResultTable want = tree.Run(*res.fn);
    for (auto engine : {exec::InterpOptions::Engine::kBytecode,
                        exec::InterpOptions::Engine::kJit}) {
      exec::Interpreter par(Db(), Opts(engine, 4, 509));
      std::string tag =
          "seed " + std::to_string(GetParam()) + " level " +
          std::to_string(levels) +
          (engine == exec::InterpOptions::Engine::kJit ? " jit" : " vm") +
          " threads=4 vs treewalk\n" + plan->ToString();
      ExpectBitExact(par.Run(*res.fn), want, tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlanTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace qc
