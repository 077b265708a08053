#include "opt/index_infer.h"

#include <memory>
#include <vector>

#include "ir/rewrite.h"
#include "opt/users.h"

namespace qc::opt {

using ir::Block;
using ir::Op;
using ir::Stmt;

namespace {

struct InferredIndex {
  const Stmt* mmap_new = nullptr;
  const Stmt* build_loop = nullptr;   // the ForRange over the base table
  const Stmt* build_recnew = nullptr;
  const Stmt* build_add = nullptr;
  const Stmt* probe_get = nullptr;    // mmap_get_or_null
  const Stmt* probe_isnull = nullptr;
  const Stmt* probe_not = nullptr;
  const Stmt* probe_if = nullptr;
  const Stmt* probe_foreach = nullptr;
  int table = -1;
  int column = -1;
  bool is_pk = false;
};

// True if every statement inside the loop is pure computation, an If-filter,
// or the single rec_new/mmap_add pair (i.e. the build side is a scan of one
// base table with optional selections — Fig. 7's applicability condition).
bool ValidateBuildLoop(const Block* b, const Stmt* recnew, const Stmt* add) {
  for (const Stmt* s : b->stmts) {
    if (s == recnew || s == add) continue;
    if (s->op == Op::kIf) {
      if (s->blocks.size() > 1 && !s->blocks[1]->stmts.empty()) return false;
      if (!ValidateBuildLoop(s->blocks[0], recnew, add)) return false;
      continue;
    }
    if (s->HasEffect()) return false;
    if (!s->blocks.empty()) return false;
  }
  return true;
}

class IndexInferencePass : public ir::Cloner {
 public:
  explicit IndexInferencePass(storage::Database* db) : db_(db) {}

  void Analyze(const ir::Function& fn) {
    UseIndex idx = BuildUseIndex(fn);
    const size_t n = static_cast<size_t>(fn.num_stmts());
    drop_.assign(n, false);
    probe_sites_.assign(n, nullptr);
    spliced_adds_.assign(n, nullptr);
    for (const Stmt* s : idx.stmts) {
      if (s->op == Op::kMMapNew) TryInfer(s, idx);
    }
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    // Field reads on a spliced foreach element resolve to the cloned
    // build-record argument (the record never materializes).
    if (s->op == Op::kRecGet && !splice_stack_.empty()) {
      for (auto it = splice_stack_.rbegin(); it != splice_stack_.rend();
           ++it) {
        if (s->args[0] == it->elem_param) return it->field_values[s->aux0];
      }
    }

    if (drop_[s->id]) return Drop();
    if (const InferredIndex* info = probe_sites_[s->id]) {
      EmitProbe(*info);
      return Drop();
    }
    if (const InferredIndex* info = spliced_adds_[s->id]) {
      SpliceForeachBody(*info);
      return Drop();
    }
    return nullptr;
  }

 private:
  void TryInfer(const Stmt* mm, const UseIndex& idx) {
    InferredIndex info;
    info.mmap_new = mm;

    for (const Stmt* u : idx.UsersOf(mm)) {
      if (u->op == Op::kMMapAdd) {
        if (info.build_add != nullptr) return;  // exactly one build site
        info.build_add = u;
      } else if (u->op == Op::kMMapGetOrNull) {
        if (info.probe_get != nullptr) return;  // exactly one probe site
        info.probe_get = u;
      } else {
        return;
      }
    }
    if (info.build_add == nullptr || info.probe_get == nullptr) return;

    // Build side: key must be a PK/FK column of the scanned table.
    const Stmt* key = info.build_add->args[1];
    if (key->op == Op::kCast) key = key->args[0];
    if (key->op != Op::kColGet) return;
    info.table = key->aux0;
    info.column = key->aux1;
    const storage::TableDef& def = db_->table(info.table).def();
    info.is_pk = def.primary_key == info.column;
    if (!info.is_pk && !def.IsForeignKey(info.column)) return;

    const Stmt* rec = info.build_add->args[2];
    if (rec->op != Op::kRecNew) return;
    info.build_recnew = rec;

    // Locate the enclosing ForRange over table_rows(T) with row = loop var.
    const Stmt* p = info.build_add;
    while (true) {
      p = idx.ParentOf(p);
      if (p == nullptr) return;
      if (p->op == Op::kForRange) break;
      if (p->op != Op::kIf) return;
    }
    if (p->args[1]->op != Op::kTableRows || p->args[1]->aux0 != info.table) {
      return;
    }
    if (p->args[0]->op != Op::kConst || p->args[0]->ival != 0) return;
    if (key->args[0] != p->blocks[0]->params[0]) return;
    if (!ValidateBuildLoop(p->blocks[0], info.build_recnew, info.build_add)) {
      return;
    }
    info.build_loop = p;

    // Probe side: lst -> is_null -> not -> if { foreach } (the exact shape
    // the pipelining lowering emits).
    const Stmt* lst = info.probe_get;
    const Stmt *isnull = nullptr, *foreach_s = nullptr;
    for (const Stmt* u : idx.UsersOf(lst)) {
      if (u->op == Op::kIsNull && isnull == nullptr) {
        isnull = u;
      } else if (u->op == Op::kListForeach && foreach_s == nullptr) {
        foreach_s = u;
      } else {
        return;
      }
    }
    if (isnull == nullptr || foreach_s == nullptr) return;
    const Stmt* not_s = nullptr;
    for (const Stmt* u : idx.UsersOf(isnull)) {
      if (u->op != Op::kNot || not_s != nullptr) return;
      not_s = u;
    }
    if (not_s == nullptr) return;
    const Stmt* if_s = nullptr;
    for (const Stmt* u : idx.UsersOf(not_s)) {
      if (u->op != Op::kIf || if_s != nullptr) return;
      if_s = u;
    }
    if (if_s == nullptr) return;
    // The then-branch must consist of exactly the foreach.
    if (if_s->blocks[0]->stmts.size() != 1 ||
        if_s->blocks[0]->stmts[0] != foreach_s) {
      return;
    }
    // All uses of the foreach element are field reads (no escape).
    const Stmt* elem = foreach_s->blocks[0]->params[0];
    for (const Stmt* u : idx.UsersOf(elem)) {
      if (u->op != Op::kRecGet) return;
    }

    info.probe_isnull = isnull;
    info.probe_not = not_s;
    info.probe_if = if_s;
    info.probe_foreach = foreach_s;

    inferred_.push_back(std::make_unique<InferredIndex>(info));
    InferredIndex* stored = inferred_.back().get();
    for (const Stmt* d : {mm, info.build_loop, info.probe_get,
                          info.probe_isnull, info.probe_not}) {
      drop_[d->id] = true;
    }
    probe_sites_[info.probe_if->id] = stored;
    spliced_adds_[info.build_add->id] = stored;

    // Build the load-time index now: construction is charged to loading.
    if (info.is_pk) {
      db_->PrimaryIndex(info.table, info.column);
    } else {
      db_->Partition(info.table, info.column);
    }
  }

  // Replaces the probe If: iterate matching base-table rows through the
  // load-time index and inline the (filtered) build body per row.
  void EmitProbe(const InferredIndex& info) {
    Stmt* key = Lookup(info.probe_get->args[1]);
    if (info.is_pk) {
      Stmt* row = b().IdxPkRow(info.table, info.column, key);
      b().If(b().Ge(row, b().I64(0)), [&] { InlineBuildBody(info, row); });
    } else {
      Stmt* len = b().IdxBucketLen(info.table, info.column, key);
      b().ForRange(b().I64(0), len, [&](Stmt* j) {
        Stmt* row = b().IdxBucketRow(info.table, info.column, key, j);
        InlineBuildBody(info, row);
      });
    }
  }

  void InlineBuildBody(const InferredIndex& info, Stmt* row) {
    // Clone the build loop body with the loop variable bound to `row`; the
    // registered mmap_add inside it splices the probe's foreach body.
    Map(info.build_loop->blocks[0]->params[0], row);
    CloneBlockBody(info.build_loop->blocks[0]);
  }

  void SpliceForeachBody(const InferredIndex& info) {
    Splice sp;
    sp.elem_param = info.probe_foreach->blocks[0]->params[0];
    for (const Stmt* a : info.build_recnew->args) {
      sp.field_values.push_back(Lookup(a));
    }
    splice_stack_.push_back(std::move(sp));
    CloneBlockBody(info.probe_foreach->blocks[0]);
    splice_stack_.pop_back();
  }

  struct Splice {
    const Stmt* elem_param = nullptr;
    std::vector<Stmt*> field_values;
  };

  storage::Database* db_;
  std::vector<std::unique_ptr<InferredIndex>> inferred_;
  // Indexed by source Stmt::id.
  std::vector<bool> drop_;
  std::vector<const InferredIndex*> probe_sites_;
  std::vector<const InferredIndex*> spliced_adds_;
  std::vector<Splice> splice_stack_;
};

}  // namespace

std::unique_ptr<ir::Function> InferIndexes(const ir::Function& fn,
                                           storage::Database* db) {
  IndexInferencePass pass(db);
  pass.Analyze(fn);
  return pass.Run(fn);
}

}  // namespace qc::opt
