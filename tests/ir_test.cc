// Unit tests for the ANF IR: type interning, scoped CSE (dominance-correct
// sharing), the level verifier (expressibility principle), and dead code
// elimination including store-through-reference aliasing.
#include <gtest/gtest.h>

#include <vector>

#include "ir/builder.h"
#include "ir/numbering.h"
#include "ir/printer.h"
#include "ir/rewrite.h"
#include "ir/verify.h"
#include "opt/dce.h"

namespace qc::ir {
namespace {

TEST(TypeFactory, InternsScalars) {
  TypeFactory t;
  EXPECT_EQ(t.I64(), t.I64());
  EXPECT_EQ(t.Array(t.I64()), t.Array(t.I64()));
  EXPECT_NE(t.Array(t.I64()), t.Array(t.F64()));
  EXPECT_EQ(t.Map(t.I64(), t.Str()), t.Map(t.I64(), t.Str()));
  EXPECT_NE(t.Map(t.I64(), t.Str()), t.MMap(t.I64(), t.Str()));
}

TEST(TypeFactory, RecordsByName) {
  TypeFactory t;
  const Type* r1 = t.Record("R", {{"a", t.I64()}, {"b", t.Str()}});
  const Type* r2 = t.Record("R", {{"a", t.I64()}, {"b", t.Str()}});
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1->record->FieldIndex("b"), 1);
  EXPECT_EQ(r1->record->FieldIndex("zz"), -1);
  EXPECT_EQ(t.FindRecord("R"), r1);
  EXPECT_EQ(t.FindRecord("S"), nullptr);
}

TEST(TypeFactory, SelfReferentialRecord) {
  TypeFactory t;
  const Type* base = t.Record("Node", {{"v", t.I64()}});
  const Type* ext = t.ExtendRecordWithSelfPtr(base, "Node_il", "__next");
  ASSERT_EQ(ext->record->fields.size(), 2u);
  EXPECT_EQ(ext->record->fields[1].type->kind, TypeKind::kPtr);
  EXPECT_EQ(ext->record->fields[1].type->elem, ext);
  // Idempotent.
  EXPECT_EQ(t.ExtendRecordWithSelfPtr(base, "Node_il", "__next"), ext);
}

TEST(Builder, CseSharesPureExpressions) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.I64(2);
  Stmt* a1 = b.Add(x, b.I64(3));
  Stmt* a2 = b.Add(x, b.I64(3));
  EXPECT_EQ(a1, a2);  // value-numbered
  EXPECT_NE(b.Add(x, b.I64(4)), a1);
}

TEST(Builder, CseRespectsScopes) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* outer = b.Add(b.I64(1), b.I64(2));
  Stmt* inner_reuse = nullptr;
  Stmt* inner_new = nullptr;
  Stmt* loop_first = nullptr;
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    inner_reuse = b.Add(b.I64(1), b.I64(2));  // dominated by outer: shared
    inner_new = b.Add(i, b.I64(2));           // depends on loop var
    loop_first = b.Mul(outer, b.I64(2));      // outer values, first seen here
  });
  EXPECT_EQ(inner_reuse, outer);
  Stmt* after = b.Add(b.I64(1), b.I64(2));
  EXPECT_EQ(after, outer);
  // After the loop, the loop-local expression must NOT be reused.
  Stmt* loop_again = b.Mul(outer, b.I64(2));
  EXPECT_NE(loop_again, loop_first);
  b.EmitRow({loop_again});
  CheckFunction(fn);
}

TEST(Builder, CseDoesNotShareBetweenThenAndElse) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.I64(3);
  Stmt* y = b.I64(4);
  Stmt* in_then = nullptr;
  Stmt* in_else = nullptr;
  b.If(
      b.Lt(x, y), [&] { in_then = b.Add(x, y); },
      [&] { in_else = b.Add(x, y); });
  EXPECT_NE(in_then, in_else);
  Stmt* after = b.Add(x, y);
  EXPECT_NE(after, in_then);
  EXPECT_NE(after, in_else);
  CheckFunction(fn);
}

TEST(Builder, CseTableGrowsWhileScopesAreOpen) {
  // Enough entries to grow the value-numbering table several times, most
  // of them two scopes deep; the scope pops must still undo them exactly.
  constexpr int kOuter = 100;
  constexpr int kInner = 300;
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  std::vector<Stmt*> outer;
  for (int k = 0; k < kOuter; ++k) outer.push_back(b.I64(k));
  std::vector<Stmt*> inner_consts;
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    b.If(b.Gt(i, outer[1]), [&] {
      std::vector<Stmt*> inner;
      for (int k = 0; k < kInner; ++k) {
        inner_consts.push_back(b.I64(kOuter + k));
        inner.push_back(b.Mul(i, inner_consts.back()));
      }
      for (int k = 0; k < kOuter; ++k) EXPECT_EQ(b.I64(k), outer[k]);
      for (int k = 0; k < kInner; ++k) {
        EXPECT_EQ(b.I64(kOuter + k), inner_consts[k]);
        EXPECT_EQ(b.Mul(i, inner_consts[k]), inner[k]);
      }
    });
  });
  for (int k = 0; k < kOuter; ++k) EXPECT_EQ(b.I64(k), outer[k]) << k;
  for (int k = 0; k < kInner; ++k) {
    EXPECT_NE(b.I64(kOuter + k), inner_consts[k]) << k;
  }
  CheckFunction(fn);
}

TEST(Builder, EffectfulOpsNeverShared) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* v1 = b.VarNew(b.I64(0));
  Stmt* v2 = b.VarNew(b.I64(0));
  EXPECT_NE(v1, v2);
  Stmt* r1 = b.VarRead(v1);
  Stmt* r2 = b.VarRead(v1);
  EXPECT_NE(r1, r2);  // reads see state, never value-numbered
}

TEST(Verify, CatchesUseBeforeDef) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* loop_local = nullptr;
  b.ForRange(b.I64(0), b.I64(3), [&](Stmt* i) { loop_local = b.Add(i, i); });
  // Manually smuggle a use of the loop-local symbol outside its scope.
  Stmt* bad = fn.NewStmt(Op::kNeg, types.I64());
  bad->args.push_back(loop_local);
  fn.body()->stmts.push_back(bad);
  EXPECT_FALSE(VerifyFunction(fn).empty());
}

TEST(Verify, CatchesStatementBoundTwice) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* x = b.Add(b.I64(1), b.I64(2));
  ASSERT_TRUE(VerifyFunction(fn).empty());
  fn.body()->stmts.push_back(x);
  EXPECT_FALSE(VerifyFunction(fn).empty());
}

TEST(Verify, CatchesForeignStatementWithACollidingId) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* own = b.Add(b.I64(1), b.I64(2));
  Function other("g", &types);
  Builder ob(&other);
  Stmt* foreign = ob.Add(ob.I64(1), ob.I64(2));
  ASSERT_EQ(foreign->id, own->id);  // same shape, same ids
  Stmt* bad = fn.NewStmt(Op::kNeg, types.I64());
  bad->args.push_back(foreign);
  fn.body()->stmts.push_back(bad);
  EXPECT_FALSE(VerifyFunction(fn).empty());
  bad->args[0] = own;
  EXPECT_TRUE(VerifyFunction(fn).empty());
}

TEST(Verify, LevelRangesEnforced) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* m = b.MapNew(types.I64(), types.I64());
  (void)m;
  // Map ops belong to ScaLite[Map,List] only.
  EXPECT_TRUE(VerifyLevel(fn, Level::kMapList).empty());
  EXPECT_FALSE(VerifyLevel(fn, Level::kList, false).empty());
  EXPECT_FALSE(VerifyLevel(fn, Level::kScaLite, false).empty());
  EXPECT_FALSE(VerifyLevel(fn, Level::kCLite, false).empty());
  // ... unless marked as an external library call.
  m->lib_call = true;
  EXPECT_TRUE(VerifyLevel(fn, Level::kCLite, true).empty());
}

TEST(Verify, MallocOnlyAtBottom) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  b.Malloc(types.I64(), b.I64(16));
  EXPECT_TRUE(VerifyLevel(fn, Level::kCLite).empty());
  EXPECT_FALSE(VerifyLevel(fn, Level::kScaLite).empty());
  EXPECT_FALSE(VerifyLevel(fn, Level::kMapList).empty());
}

TEST(Dce, RemovesUnusedPureCode) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* used = b.I64(7);
  b.Mul(b.Add(b.I64(1), b.I64(2)), b.I64(3));  // dead tree
  b.EmitRow({used});
  int removed = opt::DeadCodeElimination(&fn);
  EXPECT_GE(removed, 3);
  std::string text = PrintFunction(fn);
  EXPECT_EQ(text.find("mul"), std::string::npos) << text;
  EXPECT_NE(text.find("emit"), std::string::npos);
}

TEST(Dce, KeepsStoresThroughDerivedReferences) {
  // append into a list fetched from an array: the classic aliasing case.
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* arr = b.ArrNew(types.List(types.I64()), b.I64(4));
  Stmt* lst = b.ListNew(types.I64());
  b.ArrSet(arr, b.I64(0), lst);
  Stmt* fetched = b.ArrGet(arr, b.I64(0));
  b.ListAppend(fetched, b.I64(42));
  // Observe the array through a foreach that emits.
  Stmt* fetched2 = b.ArrGet(arr, b.I64(0));
  b.ListForeach(fetched2, [&](Stmt* e) { b.EmitRow({e}); });
  opt::DeadCodeElimination(&fn);
  std::string text = PrintFunction(fn);
  EXPECT_NE(text.find("list_append"), std::string::npos) << text;
}

TEST(Dce, RemovesWhollyDeadDataStructures) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* dead_list = b.ListNew(types.I64());
  b.ListAppend(dead_list, b.I64(1));  // stores to a never-read list
  b.EmitRow({b.I64(0)});
  opt::DeadCodeElimination(&fn);
  std::string text = PrintFunction(fn);
  EXPECT_EQ(text.find("list_new"), std::string::npos) << text;
  EXPECT_EQ(text.find("list_append"), std::string::npos) << text;
}

TEST(Dce, DropsEmptyControlFlow) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    b.Add(i, b.I64(1));  // pure, unused
  });
  b.EmitRow({b.I64(0)});
  opt::DeadCodeElimination(&fn);
  std::string text = PrintFunction(fn);
  EXPECT_EQ(text.find("for("), std::string::npos) << text;
}

TEST(Cloner, IdentityCloneIsEquivalent) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* n = b.I64(10);
  Stmt* sum = b.VarNew(b.I64(0));
  b.ForRange(b.I64(0), n, [&](Stmt* i) {
    b.If(b.Gt(i, b.I64(4)),
         [&] { b.VarAssign(sum, b.Add(b.VarRead(sum), i)); });
  });
  b.EmitRow({b.VarRead(sum)});

  class Identity : public Cloner {};
  Identity id;
  auto clone = id.Run(fn);
  CheckFunction(*clone);
  EXPECT_EQ(PrintFunction(fn), PrintFunction(*clone));
}

TEST(Cloner, ClonesAcrossHolesInTheIdSpace) {
  TypeFactory types;
  Function fn("f", &types);
  Builder b(&fn);
  Stmt* sum = b.VarNew(b.I64(0));
  b.Mul(b.I64(6), b.I64(7));  // dead: leaves holes once DCE runs
  b.ForRange(b.I64(0), b.I64(10), [&](Stmt* i) {
    b.Sub(i, b.I64(100));  // dead
    b.VarAssign(sum, b.Add(b.VarRead(sum), i));
  });
  b.StrC("dead");
  b.EmitRow({b.VarRead(sum)});
  EXPECT_GT(opt::DeadCodeElimination(&fn), 0);
  CheckFunction(fn);

  class Identity : public Cloner {};
  auto clone = Identity().Run(fn);
  CheckFunction(*clone);
  EXPECT_LT(clone->num_stmts(), fn.num_stmts());
  // The clone numbers statements densely in program order, as
  // RenumberDense does in place.
  RenumberDense(&fn);
  EXPECT_EQ(clone->num_stmts(), fn.num_stmts());
  EXPECT_EQ(PrintFunction(*clone), PrintFunction(fn));
}

TEST(Printer, ShowsAnfBindings) {
  TypeFactory types;
  Function fn("agg", &types);
  Builder b(&fn);
  // The paper's ANF example shape: shared subexpressions bound once.
  Stmt* ra = b.F64(1.5);
  Stmt* rb = b.F64(2.5);
  Stmt* x1 = b.Mul(ra, rb);
  Stmt* x2 = b.Sub(b.F64(1.0), b.F64(0.5));
  Stmt* x3 = b.Mul(x1, x2);
  b.EmitRow({x1, x3});
  std::string text = PrintFunction(fn);
  EXPECT_NE(text.find("val x2: f64 = mul(x0, x1)"), std::string::npos) << text;
}

}  // namespace
}  // namespace qc::ir
