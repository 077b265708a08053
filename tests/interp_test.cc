// Direct tests of the IR interpreter on hand-built programs: control flow,
// mutable variables, arrays, lists, generic maps, pools, sorting — each
// executable DSL level runs on the same machinery ("each DSL is executable").
#include <gtest/gtest.h>

#include "exec/governor.h"
#include "exec/interp.h"
#include "ir/builder.h"
#include "storage/database.h"

namespace qc {
namespace {

using ir::Builder;
using ir::Function;
using ir::Stmt;
using ir::TypeFactory;

storage::Database EmptyDb() { return storage::Database(); }

TEST(Interp, ArithmeticAndEmit) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.Add(b.I64(2), b.I64(3));
  Stmt* y = b.Mul(b.Cast(x, types.F64()), b.F64(1.5));
  Stmt* z = b.Div(b.I64(7), b.I64(2));
  b.EmitRow({x, y, z, b.Mod(b.I64(7), b.I64(3))});
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.row(0)[0].i, 5);
  EXPECT_DOUBLE_EQ(r.row(0)[1].d, 7.5);
  EXPECT_EQ(r.row(0)[2].i, 3);
  EXPECT_EQ(r.row(0)[3].i, 1);
}

TEST(Interp, LoopsAndVars) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(1), b.I64(11), [&](Stmt* i) {
    b.VarAssign(sum, b.Add(b.VarRead(sum), i));
  });
  b.EmitRow({b.VarRead(sum)});
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  EXPECT_EQ(r.row(0)[0].i, 55);
}

TEST(Interp, WhileLoop) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  // Collatz steps from 27.
  Stmt* n = b.VarNew(b.I64(27));
  Stmt* steps = b.VarNew(b.I64(0));
  b.While(
      [&] { return b.Gt(b.VarRead(n), b.I64(1)); },
      [&] {
        Stmt* cur = b.VarRead(n);
        Stmt* even = b.Eq(b.Mod(cur, b.I64(2)), b.I64(0));
        b.If(
            even, [&] { b.VarAssign(n, b.Div(cur, b.I64(2))); },
            [&] {
              b.VarAssign(n, b.Add(b.Mul(cur, b.I64(3)), b.I64(1)));
            });
        b.VarAssign(steps, b.Add(b.VarRead(steps), b.I64(1)));
      });
  b.EmitRow({b.VarRead(steps)});
  exec::Interpreter in(&db);
  EXPECT_EQ(in.Run(fn).row(0)[0].i, 111);
}

TEST(Interp, ArraysAndSort) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* arr = b.ArrNew(types.I64(), b.I64(5));
  int64_t vals[] = {42, 7, 19, 3, 23};
  for (int i = 0; i < 5; ++i) {
    b.ArrSet(arr, b.I64(i), b.I64(vals[i]));
  }
  b.ArrSortBy(arr, b.I64(5), [&](Stmt* x, Stmt* y) { return b.Lt(x, y); });
  b.ForRange(b.I64(0), b.I64(5),
             [&](Stmt* i) { b.EmitRow({b.ArrGet(arr, i)}); });
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  int64_t expected[] = {3, 7, 19, 23, 42};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.row(i)[0].i, expected[i]);
}

TEST(Interp, GenericMapGroupCount) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("G", {{"k", types.I64()},
                                           {"n", types.I64()}});
  Stmt* map = b.MapNew(types.I64(), rec);
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    Stmt* key = b.Mod(i, b.I64(3));
    Stmt* r = b.MapGetOrElseUpdate(
        map, key, [&] { return b.RecNew(rec, {key, b.I64(0)}); });
    b.RecSet(r, 1, b.Add(b.RecGet(r, 1), b.I64(1)));
  });
  b.MapForeach(map, [&](Stmt* k, Stmt* r) {
    b.EmitRow({k, b.RecGet(r, 1)});
  });
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  ASSERT_EQ(r.size(), 3u);
  int64_t total = 0;
  for (size_t i = 0; i < 3; ++i) total += r.row(i)[1].i;
  EXPECT_EQ(total, 10);
}

TEST(Interp, MultiMapBuckets) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("V", {{"v", types.I64()}});
  Stmt* mm = b.MMapNew(types.I64(), rec);
  b.ForRange(b.I64(0), b.I64(6), [&](Stmt* i) {
    b.MMapAdd(mm, b.Mod(i, b.I64(2)), b.RecNew(rec, {i}));
  });
  Stmt* lst = b.MMapGetOrNull(mm, b.I64(0));
  b.If(b.Not(b.IsNull(lst)), [&] {
    b.ListForeach(lst, [&](Stmt* e) { b.EmitRow({b.RecGet(e, 0)}); });
  });
  Stmt* missing = b.MMapGetOrNull(mm, b.I64(7));
  b.If(b.IsNull(missing), [&] { b.EmitRow({b.I64(-1)}); });
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  ASSERT_EQ(r.size(), 4u);  // 0, 2, 4 and the -1 marker
}

TEST(Interp, PoolsTrackBytesSeparately) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  const ir::Type* rec = types.Record("P", {{"a", types.I64()}});
  Stmt* pool = b.PoolNew(rec, b.I64(100));
  Stmt* acc = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), b.I64(50), [&](Stmt* i) {
    Stmt* r = b.Emit(ir::Op::kPoolRecNew, rec, {pool, i});
    b.VarAssign(acc, b.Add(b.VarRead(acc), b.RecGet(r, 0)));
  });
  b.EmitRow({b.VarRead(acc)});
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  EXPECT_EQ(r.row(0)[0].i, 49 * 50 / 2);
  EXPECT_GT(in.stats().pool_bytes, 0u);
  EXPECT_EQ(in.stats().heap_allocs, 0u);  // everything pooled
}

TEST(Interp, StringOps) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* s = b.StrC("hello world");
  b.EmitRow({b.StrEq(s, b.StrC("hello world")),
             b.StrStartsWith(s, b.StrC("hello")),
             b.StrEndsWith(s, b.StrC("world")),
             b.StrContains(s, b.StrC("lo wo")), b.StrLike(s, "%o w%"),
             b.StrLen(s), b.StrSubstr(s, 6, 5)});
  exec::Interpreter in(&db);
  storage::ResultTable r = in.Run(fn);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r.row(0)[i].i, 1);
  EXPECT_EQ(r.row(0)[5].i, 11);
  EXPECT_STREQ(r.row(0)[6].s, "world");
}

// The tree walker is the sequential, ungoverned reference oracle: threads
// and governance belong to the bytecode VM and the JIT, and asking the tree
// walker for either aborts with a one-line reason.
exec::InterpOptions TreeWalkOpts() {
  exec::InterpOptions o;
  o.engine = exec::InterpOptions::Engine::kTreeWalk;
  return o;
}

// sum(1..10) in a loop: enough to reach the engine.
void BuildSumLoop(Function* fn) {
  Builder b(fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(1), b.I64(11), [&](Stmt* i) {
    b.VarAssign(sum, b.Add(b.VarRead(sum), i));
  });
  b.EmitRow({b.VarRead(sum)});
}

constexpr char kSequentialOnly[] =
    "tree walker runs sequentially and ungoverned";

TEST(InterpDeathTest, TreeWalkRejectsThreads) {
  storage::Database db = EmptyDb();
  exec::InterpOptions o = TreeWalkOpts();
  o.num_threads = 2;
  EXPECT_DEATH({ exec::Interpreter in(&db, o); }, kSequentialOnly);
}

TEST(InterpDeathTest, TreeWalkRejectsControlOption) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  BuildSumLoop(&fn);
  exec::ExecControl ctl;
  exec::InterpOptions o = TreeWalkOpts();
  o.control = &ctl;
  EXPECT_DEATH(
      {
        exec::Interpreter in(&db, o);
        in.Run(fn);
      },
      kSequentialOnly);
}

TEST(InterpDeathTest, TreeWalkRejectsSetControl) {
  storage::Database db = EmptyDb();
  TypeFactory types;
  Function fn("f", &types);
  BuildSumLoop(&fn);
  exec::Interpreter in(&db, TreeWalkOpts());
  EXPECT_EQ(in.Run(fn).row(0)[0].i, 55);
  exec::ExecControl ctl;
  in.SetControl(&ctl);
  EXPECT_DEATH(in.Run(fn), kSequentialOnly);
  // Detaching restores the ungoverned oracle.
  in.SetControl(nullptr);
  EXPECT_EQ(in.Run(fn).row(0)[0].i, 55);
}

}  // namespace
}  // namespace qc
