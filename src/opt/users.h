// Shared def-use indexing over the ANF IR (single-definition symbols make
// this a plain multimap). Used by the analysis-driven passes.
//
// Like every per-statement side table of the lowering stack, the index is a
// set of vectors indexed by Stmt::id (see ir/rewrite.h): no pointer-keyed
// containers, and analyses that visit "every statement" walk `stmts`, which
// is program order, so their results never depend on heap addresses.
#ifndef QC_OPT_USERS_H_
#define QC_OPT_USERS_H_

#include <vector>

#include "ir/stmt.h"

namespace qc::opt {

struct UseIndex {
  // Every statement bound in a block (block parameters excluded), in
  // program order: a statement comes before those of its nested blocks.
  std::vector<const ir::Stmt*> stmts;
  // id -> statements using it as an argument, in program order
  std::vector<std::vector<const ir::Stmt*>> users;
  // id -> the block-carrying statement whose block contains it (nullptr at
  // the top level and for block parameters)
  std::vector<const ir::Stmt*> parent;

  const std::vector<const ir::Stmt*>& UsersOf(const ir::Stmt* s) const {
    return users[s->id];
  }
  const ir::Stmt* ParentOf(const ir::Stmt* s) const { return parent[s->id]; }
};

UseIndex BuildUseIndex(const ir::Function& fn);

}  // namespace qc::opt

#endif  // QC_OPT_USERS_H_
