#include "opt/dce.h"

#include <vector>

namespace qc::opt {

using ir::Block;
using ir::Op;
using ir::Stmt;

namespace {

bool IsStore(Op op) {
  switch (op) {
    case Op::kVarAssign:
    case Op::kRecSet:
    case Op::kArrSet:
    case Op::kListAppend:
    case Op::kMMapAdd:
    case Op::kArrSortBy:
    case Op::kListSortBy:
    case Op::kMapGetOrElseUpdate:
    case Op::kFree:
      return true;
    default:
      return false;
  }
}

class DcePass {
 public:
  int Run(ir::Function* fn) {
    const size_t n = static_cast<size_t>(fn->num_stmts());
    parent_.assign(n, nullptr);
    stores_on_.assign(n, {});
    live_.assign(n, false);
    Index(fn->body(), nullptr);
    // Seed: emissions are always observable.
    for (Stmt* s : all_) {
      if (s->op == Op::kEmit) MarkLive(s);
    }
    while (!worklist_.empty()) {
      Stmt* s = worklist_.back();
      worklist_.pop_back();
      Process(s);
    }
    int removed = 0;
    Prune(fn->body(), &removed);
    return removed;
  }

 private:
  // Ops whose result is a reference *into* an existing object: a store
  // through such a derived reference mutates the base object, so liveness of
  // any node along the chain keeps the store alive.
  static bool IsDerivedRef(Op op) {
    switch (op) {
      case Op::kArrGet:
      case Op::kListGet:
      case Op::kRecGet:
      case Op::kVarRead:
      case Op::kMapGetOrElseUpdate:
      case Op::kMapGetOrNull:
      case Op::kMMapGetOrNull:
      case Op::kCast:
        return true;
      default:
        return false;
    }
  }

  void Index(Block* b, Stmt* parent) {
    for (Stmt* s : b->stmts) {
      all_.push_back(s);
      parent_[s->id] = parent;
      if (IsStore(s->op) && !s->args.empty()) {
        // Register the store against the whole derivation chain of its
        // target; a store whose chain escapes into a block parameter is
        // conservatively live.
        Stmt* t = s->args[0];
        while (true) {
          stores_on_[t->id].push_back(s);
          if (ir::IsParam(t)) {
            MarkLive(s);
            break;
          }
          if (!IsDerivedRef(t->op) || t->args.empty()) break;
          t = t->args[0];
        }
      }
      for (Block* nb : s->blocks) Index(nb, s);
    }
  }

  void MarkLive(Stmt* s) {
    if (s == nullptr || live_[s->id]) return;
    live_[s->id] = true;
    worklist_.push_back(s);
  }

  void Process(Stmt* s) {
    for (Stmt* a : s->args) MarkLive(a);
    for (Block* nb : s->blocks) {
      if (nb->result != nullptr) MarkLive(nb->result);
    }
    MarkLive(parent_[s->id]);
    for (Stmt* st : stores_on_[s->id]) MarkLive(st);
  }

  void Prune(Block* b, int* removed) {
    std::vector<Stmt*> kept;
    kept.reserve(b->stmts.size());
    for (Stmt* s : b->stmts) {
      if (!live_[s->id]) {
        ++*removed;
        continue;
      }
      for (Block* nb : s->blocks) Prune(nb, removed);
      kept.push_back(s);
    }
    b->stmts = std::move(kept);
  }

  std::vector<Stmt*> all_;
  // Indexed by Stmt::id.
  std::vector<Stmt*> parent_;
  std::vector<std::vector<Stmt*>> stores_on_;
  std::vector<bool> live_;
  std::vector<Stmt*> worklist_;
};

}  // namespace

int DeadCodeElimination(ir::Function* fn) { return DcePass().Run(fn); }

}  // namespace qc::opt
