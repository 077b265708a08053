// Tests for the stack pass manager: configuration presets map to the
// paper's Table 3 rows, phases appear in the unique lowering order
// (transformation cohesion), every phase output verifies at its level, and
// compilation is deterministic.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "ir/printer.h"
#include "ir/verify.h"
#include "legobase/legobase.h"
#include "tpch/datagen.h"
#include "tpch/queries.h"

namespace qc {
namespace {

using compiler::QueryCompiler;
using compiler::StackConfig;

storage::Database* Db() {
  static storage::Database* db =
      new storage::Database(tpch::MakeTpchDatabase(0.002, 17));
  return db;
}

TEST(StackConfig, PresetsMatchPaperRows) {
  StackConfig l2 = StackConfig::Level(2);
  EXPECT_FALSE(l2.string_dict);
  EXPECT_FALSE(l2.index_inference);
  EXPECT_FALSE(l2.hash_spec);
  EXPECT_FALSE(l2.pool_hoist);

  StackConfig l3 = StackConfig::Level(3);
  EXPECT_TRUE(l3.pool_hoist);
  EXPECT_TRUE(l3.scalar_repl);
  EXPECT_FALSE(l3.hash_spec);  // needs the 4th level

  StackConfig l4 = StackConfig::Level(4);
  EXPECT_TRUE(l4.hash_spec);
  EXPECT_TRUE(l4.index_inference);
  EXPECT_FALSE(l4.intrusive_lists);  // needs the 5th level

  StackConfig l5 = StackConfig::Level(5);
  EXPECT_TRUE(l5.intrusive_lists);

  StackConfig compliant = StackConfig::Compliant();
  EXPECT_FALSE(compliant.string_dict);
  EXPECT_FALSE(compliant.index_inference);
  EXPECT_FALSE(compliant.hash_spec);
  EXPECT_TRUE(compliant.pool_hoist);

  StackConfig lego = StackConfig::LegoBase();
  EXPECT_TRUE(lego.hash_spec);
  EXPECT_FALSE(lego.index_inference);  // the DBLAB/LB-only optimization
}

TEST(Compiler, PhasesFollowTheLoweringPath) {
  qplan::PlanPtr plan = tpch::MakeQuery(3);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  compiler::CompileResult res =
      qc.Compile(*plan, StackConfig::Level(5), "q3");

  std::vector<std::string> names;
  for (const auto& [n, ms] : res.phase_ms) names.push_back(n);
  // Cohesion: pipelining first, finalize last, dictionaries before hash
  // specialization (they unlock partitioned keys), index inference before
  // hash specialization (it consumes MultiMap patterns).
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names.front(), "pipelining");
  EXPECT_EQ(names.back(), "finalize");
  auto pos = [&](const std::string& n) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == n) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_LT(pos("string-dict"), pos("hash-specialization"));
  EXPECT_LT(pos("index-inference"), pos("hash-specialization"));
  EXPECT_LT(pos("hash-specialization"), pos("pool-hoisting"));
  EXPECT_GT(res.total_ms, 0.0);
}

TEST(Compiler, EveryConfigEndsAtCLite) {
  qplan::PlanPtr plan = tpch::MakeQuery(12);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  for (const StackConfig& cfg :
       {StackConfig::Level(2), StackConfig::Level(3), StackConfig::Level(4),
        StackConfig::Level(5), StackConfig::Compliant(),
        StackConfig::LegoBase()}) {
    compiler::CompileResult res = qc.Compile(*plan, cfg, "q12");
    EXPECT_TRUE(ir::VerifyLevel(*res.fn, ir::Level::kCLite, true).empty())
        << cfg.name;
  }
}

// The lowering output may not depend on where the allocator puts
// statements and types: the second compile of every query runs in a fresh
// TypeFactory, after allocations that shift and fragment the heap.
TEST(Compiler, DeterministicOutput) {
  auto lower = [](const qplan::Plan& plan, int level) {
    ir::TypeFactory types;
    QueryCompiler qc(Db(), &types);
    return ir::PrintFunction(
        *qc.Compile(plan, StackConfig::Level(level), "q").fn);
  };
  for (int q = 1; q <= tpch::kNumQueries; ++q) {
    qplan::PlanPtr plan = tpch::MakeQuery(q);
    qplan::ResolvePlan(plan.get(), *Db());
    for (int level = 2; level <= 5; ++level) {
      std::string first = lower(*plan, level);
      std::vector<std::unique_ptr<char[]>> ballast;
      for (int i = 0; i < 64 * (q + level); ++i) {
        ballast.emplace_back(new char[16 + (i * 37) % 600]);
        if (i % 3 == 0) ballast[ballast.size() / 2].reset();
      }
      EXPECT_EQ(lower(*plan, level), first) << "q" << q << " level " << level;
    }
  }
}

TEST(Compiler, HigherLevelsNeverAddGenericCollections) {
  // Moving up the stack can only *remove* generic library collections.
  qplan::PlanPtr plan = tpch::MakeQuery(4);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  QueryCompiler qc(Db(), &types);
  auto count_lib = [&](int level) {
    compiler::CompileResult res =
        qc.Compile(*plan, StackConfig::Level(level), "q4");
    std::string text = ir::PrintFunction(*res.fn);
    int n = 0;
    size_t pos = 0;
    while ((pos = text.find("[lib]", pos)) != std::string::npos) {
      ++n;
      pos += 5;
    }
    return n;
  };
  int prev = count_lib(2);
  for (int level = 3; level <= 5; ++level) {
    int cur = count_lib(level);
    EXPECT_LE(cur, prev) << "level " << level;
    prev = cur;
  }
}

TEST(LegoBase, MonolithicFacadeCompilesAndRuns) {
  qplan::PlanPtr plan = tpch::MakeQuery(14);
  qplan::ResolvePlan(plan.get(), *Db());
  ir::TypeFactory types;
  legobase::LegoBaseResult res =
      legobase::CompileMonolithic(*plan, Db(), &types, "q14");
  ASSERT_NE(res.fn, nullptr);
  EXPECT_TRUE(ir::VerifyLevel(*res.fn, ir::Level::kCLite, true).empty());
  EXPECT_GT(res.compile_ms, 0.0);
}

}  // namespace
}  // namespace qc
