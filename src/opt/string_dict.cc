#include "opt/string_dict.h"

#include <algorithm>
#include <string>
#include <vector>

#include "ir/rewrite.h"
#include "opt/users.h"

namespace qc::opt {

using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

class DictPass : public ir::Cloner {
 public:
  DictPass(storage::Database* db, const StringDictOptions& options)
      : db_(db), options_(options) {}

  void Analyze(const ir::Function& fn) {
    rewritten_.assign(static_cast<size_t>(fn.num_stmts()), false);
    if (!options_.rewrite_hash_keys) return;
    UseIndex idx = BuildUseIndex(fn);
    // Hash keys: record-key constructions reaching map/mmap operations where
    // every string component is a dictionary-eligible column read.
    for (const Stmt* map_stmt : idx.stmts) {
      if (map_stmt->op != Op::kMapNew && map_stmt->op != Op::kMMapNew) {
        continue;
      }
      std::vector<const Stmt*> recnews;
      for (const Stmt* u : idx.UsersOf(map_stmt)) {
        if ((u->op == Op::kMapGetOrElseUpdate || u->op == Op::kMMapAdd ||
             u->op == Op::kMMapGetOrNull) &&
            u->args[0] == map_stmt && u->args[1]->op == Op::kRecNew) {
          recnews.push_back(u->args[1]);
        }
      }
      bool ok = true;
      bool any_str = false;
      for (const Stmt* rn : recnews) {
        for (const Stmt* comp : rn->args) {
          if (comp->type->kind != TypeKind::kStr) continue;
          any_str = true;
          if (!Dictable(comp)) ok = false;
        }
      }
      if (!ok || !any_str) continue;
      // The foreach key parameter (if any) must be unused: its type changes.
      if (ForeachKeyUsed(map_stmt, idx)) continue;
      rewritten_[map_stmt->id] = true;
      for (const Stmt* rn : recnews) rewritten_[rn->id] = true;
    }
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    switch (s->op) {
      case Op::kStrEq:
      case Op::kStrNe: {
        auto [col, cst] = ColVsConst(s);
        if (col == nullptr) return nullptr;
        const storage::StringDictionary& d =
            db_->Dictionary(col->aux0, col->aux1);
        int32_t code = d.CodeOf(cst->sval);
        if (code < 0) {
          // The constant never occurs: the comparison is statically decided.
          return b().BoolC(s->op == Op::kStrNe);
        }
        Stmt* dc = DictRead(col);
        return s->op == Op::kStrEq ? b().Eq(dc, b().I32(code))
                                   : b().Ne(dc, b().I32(code));
      }
      case Op::kStrLt: {
        // Ordered dictionary: rank comparisons replace strcmp.
        const Stmt *a = s->args[0], *c = s->args[1];
        if (IsDictableCol(a) && c->op == Op::kConst) {
          const storage::StringDictionary& d = db_->Dictionary(a->aux0, a->aux1);
          auto lb = std::lower_bound(d.sorted_values.begin(),
                                     d.sorted_values.end(), c->sval);
          int32_t rank = static_cast<int32_t>(lb - d.sorted_values.begin());
          return b().Lt(DictRead(a), b().I32(rank));
        }
        if (a->op == Op::kConst && IsDictableCol(c)) {
          const storage::StringDictionary& d = db_->Dictionary(c->aux0, c->aux1);
          auto ub = std::upper_bound(d.sorted_values.begin(),
                                     d.sorted_values.end(), a->sval);
          int32_t rank = static_cast<int32_t>(ub - d.sorted_values.begin());
          return b().Ge(DictRead(c), b().I32(rank));
        }
        return nullptr;
      }
      case Op::kStrStartsWith: {
        const Stmt *a = s->args[0], *c = s->args[1];
        if (!IsDictableCol(a) || c->op != Op::kConst) return nullptr;
        const storage::StringDictionary& d = db_->Dictionary(a->aux0, a->aux1);
        auto [lo, hi] = d.PrefixRange(c->sval);
        if (lo > hi) return b().BoolC(false);
        Stmt* dc = DictRead(a);
        return b().And(b().Ge(dc, b().I32(lo)), b().Le(dc, b().I32(hi)));
      }
      case Op::kRecNew: {
        if (!rewritten_[s->id]) return nullptr;
        const Type* nt = DictKeyType(s->type->record);
        std::vector<Stmt*> args;
        for (const Stmt* comp : s->args) {
          if (comp->type->kind == TypeKind::kStr) {
            args.push_back(DictRead(comp));
          } else {
            args.push_back(Lookup(comp));
          }
        }
        return b().RecNew(nt, std::move(args));
      }
      case Op::kMapNew: {
        if (!rewritten_[s->id]) return nullptr;
        Stmt* m = b().MapNew(DictKeyType(s->type->key->record),
                             s->type->value);
        m->aux0 = s->aux0;
        m->aux1 = s->aux1;
        return m;
      }
      case Op::kMMapNew: {
        if (!rewritten_[s->id]) return nullptr;
        Stmt* m = b().MMapNew(DictKeyType(s->type->key->record),
                              s->type->value);
        m->aux0 = s->aux0;
        return m;
      }
      default:
        return nullptr;
    }
  }

 private:
  bool IsDictableCol(const Stmt* s) const {
    return s->op == Op::kColGet && s->type->kind == TypeKind::kStr &&
           Dictable(s);
  }

  bool Dictable(const Stmt* col) const {
    if (col->op != Op::kColGet || col->type->kind != TypeKind::kStr) {
      return false;
    }
    return db_->Stats(col->aux0, col->aux1).distinct <= options_.max_distinct;
  }

  // Reads the dictionary code column in place of the string column.
  Stmt* DictRead(const Stmt* col) {
    return b().ColDict(col->aux0, col->aux1, Lookup(col->args[0]));
  }

  std::pair<const Stmt*, const Stmt*> ColVsConst(const Stmt* s) const {
    const Stmt *a = s->args[0], *c = s->args[1];
    if (IsDictableCol(a) && c->op == Op::kConst) return {a, c};
    if (IsDictableCol(c) && a->op == Op::kConst) return {c, a};
    return {nullptr, nullptr};
  }

  const Type* DictKeyType(const ir::RecordSchema* rec) {
    std::vector<ir::Field> fields;
    for (size_t i = 0; i < rec->fields.size(); ++i) {
      const Type* ft = rec->fields[i].type;
      if (ft->kind == TypeKind::kStr) {
        ft = b().types()->I32();
      }
      fields.push_back(ir::Field{rec->fields[i].name, ft});
    }
    return b().types()->Record(rec->name + "_dc", std::move(fields));
  }

  bool ForeachKeyUsed(const Stmt* map_stmt, const UseIndex& idx) const {
    for (const Stmt* u : idx.UsersOf(map_stmt)) {
      if (u->op != Op::kMapForeach) continue;
      const Stmt* key_param = u->blocks[0]->params[0];
      if (!idx.UsersOf(key_param).empty()) return true;
    }
    return false;
  }

  storage::Database* db_;
  StringDictOptions options_;
  // Indexed by source Stmt::id: the map_new/mmap_new statements whose keys
  // are dictionary-encoded, and the rec_new statements building those keys.
  std::vector<bool> rewritten_;
};

}  // namespace

std::unique_ptr<ir::Function> ApplyStringDictionaries(
    const ir::Function& fn, storage::Database* db,
    const StringDictOptions& options) {
  DictPass pass(db, options);
  pass.Analyze(fn);
  return pass.Run(fn);
}

}  // namespace qc::opt
