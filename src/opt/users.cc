#include "opt/users.h"

namespace qc::opt {

namespace {

void Walk(const ir::Block* b, const ir::Stmt* parent, UseIndex* idx) {
  for (const ir::Stmt* s : b->stmts) {
    idx->stmts.push_back(s);
    idx->parent[s->id] = parent;
    for (const ir::Stmt* a : s->args) idx->users[a->id].push_back(s);
    for (const ir::Block* nb : s->blocks) Walk(nb, s, idx);
  }
}

}  // namespace

UseIndex BuildUseIndex(const ir::Function& fn) {
  UseIndex idx;
  const size_t n = static_cast<size_t>(fn.num_stmts());
  idx.users.resize(n);
  idx.parent.assign(n, nullptr);
  Walk(fn.body(), nullptr, &idx);
  return idx;
}

}  // namespace qc::opt
