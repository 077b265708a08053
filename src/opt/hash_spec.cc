#include "opt/hash_spec.h"

#include <deque>
#include <vector>

#include "ir/rewrite.h"
#include "opt/range.h"
#include "opt/users.h"

namespace qc::opt {

using ir::Op;
using ir::Stmt;
using ir::Type;
using ir::TypeKind;

namespace {

struct MapSpec {
  bool linear = false;               // composite key, linearized
  int64_t lo = 0;                    // scalar key offset
  std::vector<int64_t> los;          // per-component offsets (linear)
  std::vector<int64_t> strides;      // per-component strides (linear)
  uint64_t size = 0;                 // slots in the direct-addressed array
};

struct MMapSpec {
  int64_t lo = 0;
  int64_t hi = 0;
  uint64_t size = 0;
  bool intrusive = false;
  const Type* rec = nullptr;      // original build-record type
  const Type* ext_rec = nullptr;  // with appended __next (intrusive mode)
  int next_field = -1;
};

class HashSpecPass : public ir::Cloner {
 public:
  HashSpecPass(storage::Database* db, const HashSpecOptions& options)
      : db_(db), options_(options) {}

  void Analyze(const ir::Function& fn, ir::TypeFactory* types) {
    RangeAnalysis ranges(fn, db_);
    UseIndex idx = BuildUseIndex(fn);
    const size_t n = static_cast<size_t>(fn.num_stmts());
    map_spec_of_.assign(n, nullptr);
    mmap_spec_of_.assign(n, nullptr);
    recnew_spec_of_.assign(n, nullptr);
    for (const Stmt* s : idx.stmts) {
      if (s->op == Op::kMapNew) AnalyzeMap(s, idx, &ranges);
      if (s->op == Op::kMMapNew) AnalyzeMMap(s, idx, &ranges, types);
    }
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    switch (s->op) {
      case Op::kMapNew: {
        const MapSpec* spec = map_spec_of_[s->id];
        if (spec == nullptr) return nullptr;
        return b().ArrNew(s->type->value,
                          b().I64(static_cast<int64_t>(spec->size)));
      }
      case Op::kMapGetOrElseUpdate: {
        const MapSpec* found = map_spec_of_[s->args[0]->id];
        if (found == nullptr) return nullptr;
        const MapSpec& spec = *found;
        Stmt* arr = Lookup(s->args[0]);
        Stmt* index = KeyIndex(spec, s->args[1]);
        Stmt* cur = b().ArrGet(arr, index);
        const ir::Block* init = s->blocks[0];
        b().If(b().IsNull(cur), [&] {
          CloneBlockBody(init);
          b().ArrSet(arr, index, Lookup(init->result));
        });
        return b().ArrGet(arr, index);
      }
      case Op::kMapForeach: {
        const MapSpec* found = map_spec_of_[s->args[0]->id];
        if (found == nullptr) return nullptr;
        const MapSpec& spec = *found;
        Stmt* arr = Lookup(s->args[0]);
        const ir::Block* body = s->blocks[0];
        return b().ForRange(
            b().I64(0), b().I64(static_cast<int64_t>(spec.size)),
            [&](Stmt* i) {
              Stmt* v = b().ArrGet(arr, i);
              b().If(b().Not(b().IsNull(v)), [&] {
                // Scalar keys are reconstructible from the slot index;
                // linearized composite keys were checked to be unused.
                Map(body->params[0],
                    spec.linear ? v : b().Add(i, b().I64(spec.lo)));
                Map(body->params[1], v);
                CloneBlockBody(body);
              });
            });
      }

      case Op::kMMapNew: {
        const MMapSpec* found = mmap_spec_of_[s->id];
        if (found == nullptr) return nullptr;
        const MMapSpec& spec = *found;
        const Type* bucket = spec.intrusive
                                 ? spec.ext_rec
                                 : b().types()->List(s->type->value);
        Stmt* arr = b().ArrNew(
            bucket, b().I64(static_cast<int64_t>(spec.size)));
        arr->sval = "bucket_array";
        return arr;
      }
      case Op::kMMapAdd: {
        const MMapSpec* found = mmap_spec_of_[s->args[0]->id];
        if (found == nullptr) return nullptr;
        const MMapSpec& spec = *found;
        Stmt* arr = Lookup(s->args[0]);
        Stmt* index = b().Sub(Lookup(s->args[1]), b().I64(spec.lo));
        Stmt* val = Lookup(s->args[2]);
        if (spec.intrusive) {
          // Fig. 4f: thread the record through the bucket head.
          Stmt* head = b().ArrGet(arr, index);
          b().RecSet(val, spec.next_field, head);
          b().ArrSet(arr, index, val);
          return Drop();
        }
        Stmt* lst = b().ArrGet(arr, index);
        b().If(b().IsNull(lst), [&] {
          b().ArrSet(arr, index, b().ListNew(spec.rec));
        });
        Stmt* lst2 = b().ArrGet(arr, index);
        return b().ListAppend(lst2, val);
      }
      case Op::kMMapGetOrNull: {
        const MMapSpec* found = mmap_spec_of_[s->args[0]->id];
        if (found == nullptr) return nullptr;
        const MMapSpec& spec = *found;
        Stmt* arr = Lookup(s->args[0]);
        Stmt* key = Lookup(s->args[1]);
        const Type* bucket = spec.intrusive
                                 ? spec.ext_rec
                                 : b().types()->List(spec.rec);
        // Probe keys come from the other relation and may fall outside the
        // build key range: guard the direct access.
        Stmt* res = b().VarNew(b().NullOf(bucket));
        Stmt* in_range = b().And(b().Ge(key, b().I64(spec.lo)),
                                 b().Le(key, b().I64(spec.hi)));
        b().If(in_range, [&] {
          b().VarAssign(res, b().ArrGet(arr, b().Sub(key, b().I64(spec.lo))));
        });
        return b().VarRead(res);
      }
      case Op::kListForeach: {
        // Intrusive bucket traversal (while-loop over __next, Fig. 4f).
        const Stmt* src = s->args[0];
        if (src->op != Op::kMMapGetOrNull) return nullptr;
        const MMapSpec* found = mmap_spec_of_[src->args[0]->id];
        if (found == nullptr || !found->intrusive) return nullptr;
        const MMapSpec& spec = *found;
        const ir::Block* body = s->blocks[0];
        Stmt* cur = b().VarNew(Lookup(src));
        return b().While(
            [&]() -> Stmt* { return b().Not(b().IsNull(b().VarRead(cur))); },
            [&] {
              Stmt* r = b().VarRead(cur);
              Map(body->params[0], r);
              CloneBlockBody(body);
              b().VarAssign(cur, b().RecGet(r, spec.next_field));
            });
      }
      case Op::kRecNew: {
        const MMapSpec* found = recnew_spec_of_[s->id];
        if (found == nullptr) return nullptr;
        const MMapSpec& spec = *found;
        std::vector<Stmt*> args;
        for (const Stmt* a : s->args) args.push_back(Lookup(a));
        args.push_back(b().NullOf(
            spec.ext_rec->record->fields[spec.next_field].type));
        return b().RecNew(spec.ext_rec, std::move(args));
      }
      default:
        return nullptr;
    }
  }

 private:
  Stmt* KeyIndex(const MapSpec& spec, const Stmt* key_src) {
    if (!spec.linear) {
      return b().Sub(b().Cast(Lookup(key_src), b().types()->I64()),
                     b().I64(spec.lo));
    }
    // key_src is the key-record construction; index from its components
    // directly (the record itself becomes dead and is removed by DCE).
    Stmt* acc = nullptr;
    for (size_t i = 0; i < key_src->args.size(); ++i) {
      Stmt* c = b().Cast(Lookup(key_src->args[i]), b().types()->I64());
      Stmt* term = b().Mul(b().Sub(c, b().I64(spec.los[i])),
                           b().I64(spec.strides[i]));
      acc = acc == nullptr ? term : b().Add(acc, term);
    }
    return acc;
  }

  void AnalyzeMap(const Stmt* m, const UseIndex& idx, RangeAnalysis* ranges) {
    std::vector<const Stmt*> gous;
    for (const Stmt* u : idx.UsersOf(m)) {
      switch (u->op) {
        case Op::kMapGetOrElseUpdate:
          if (u->args[0] == m) gous.push_back(u);
          break;
        case Op::kMapForeach:
          break;
        default:
          if (u->args[0] == m) return;  // unexpected use: stay generic
      }
    }
    if (gous.empty()) return;

    MapSpec spec;
    if (m->type->key->IsIntegral()) {
      ValueRange r{};
      for (const Stmt* g : gous) {
        ValueRange kr = ranges->Of(g->args[1]);
        if (!kr.known) return;
        if (!r.known) {
          r = kr;
        } else {
          r.lo = std::min(r.lo, kr.lo);
          r.hi = std::max(r.hi, kr.hi);
        }
      }
      if (!r.known || r.Size() == 0 || r.Size() > options_.max_slots) return;
      spec.lo = r.lo;
      spec.size = r.Size();
    } else if (m->type->key->kind == TypeKind::kRecord) {
      // Composite key: every construction must be a RecNew with components
      // of known range; the slot index is the linearization.
      size_t ncomp = m->type->key->record->fields.size();
      std::vector<ValueRange> comp(ncomp);
      for (const Stmt* g : gous) {
        const Stmt* rn = g->args[1];
        if (rn->op != Op::kRecNew || rn->args.size() != ncomp) return;
        for (size_t i = 0; i < ncomp; ++i) {
          ValueRange r = ranges->Of(rn->args[i]);
          if (!r.known) return;
          if (!comp[i].known) {
            comp[i] = r;
          } else {
            comp[i].lo = std::min(comp[i].lo, r.lo);
            comp[i].hi = std::max(comp[i].hi, r.hi);
          }
        }
      }
      uint64_t total = 1;
      for (const ValueRange& r : comp) {
        if (!r.known || r.Size() == 0) return;
        if (total > options_.max_slots / r.Size()) return;  // overflow guard
        total *= r.Size();
      }
      if (total > options_.max_slots) return;
      // The foreach key parameter cannot be reconstructed from a linear
      // index; require it unused (true for aggregation loops).
      for (const Stmt* u : idx.UsersOf(m)) {
        if (u->op == Op::kMapForeach &&
            !idx.UsersOf(u->blocks[0]->params[0]).empty()) {
          return;
        }
      }
      spec.linear = true;
      spec.size = total;
      uint64_t stride = total;
      for (const ValueRange& r : comp) {
        stride /= r.Size();
        spec.los.push_back(r.lo);
        spec.strides.push_back(static_cast<int64_t>(stride));
      }
    } else {
      return;
    }
    map_specs_.push_back(std::move(spec));
    map_spec_of_[m->id] = &map_specs_.back();
  }

  void AnalyzeMMap(const Stmt* mm, const UseIndex& idx, RangeAnalysis* ranges,
                   ir::TypeFactory* types) {
    if (!mm->type->key->IsIntegral()) return;
    std::vector<const Stmt*> adds;
    const Stmt* add_recnew = nullptr;
    for (const Stmt* u : idx.UsersOf(mm)) {
      if (u->args.empty() || u->args[0] != mm) continue;
      switch (u->op) {
        case Op::kMMapAdd:
          adds.push_back(u);
          if (u->args[2]->op == Op::kRecNew) add_recnew = u->args[2];
          break;
        case Op::kMMapGetOrNull:
          break;
        default:
          return;  // unexpected use
      }
    }
    if (adds.empty()) return;

    ValueRange r{};
    for (const Stmt* a : adds) {
      ValueRange kr = ranges->Of(a->args[1]);
      if (!kr.known) return;
      if (!r.known) {
        r = kr;
      } else {
        r.lo = std::min(r.lo, kr.lo);
        r.hi = std::max(r.hi, kr.hi);
      }
    }
    if (!r.known || r.Size() == 0 || r.Size() > options_.max_slots) return;

    MMapSpec spec;
    spec.lo = r.lo;
    spec.hi = r.hi;
    spec.size = r.Size();
    spec.rec = mm->type->value;
    if (options_.intrusive_lists && spec.rec->kind == TypeKind::kRecord &&
        adds.size() == 1 && add_recnew != nullptr) {
      spec.ext_rec = types->ExtendRecordWithSelfPtr(
          spec.rec, spec.rec->record->name + "_il", "__next");
      spec.next_field = static_cast<int>(spec.rec->record->fields.size());
      spec.intrusive = true;
    }
    mmap_specs_.push_back(spec);
    mmap_spec_of_[mm->id] = &mmap_specs_.back();
    if (spec.intrusive) recnew_spec_of_[add_recnew->id] = &mmap_specs_.back();
  }

  storage::Database* db_;
  HashSpecOptions options_;
  std::deque<MapSpec> map_specs_;  // deques: stable addresses
  std::deque<MMapSpec> mmap_specs_;
  // Indexed by source Stmt::id: the spec of a specialised map_new or
  // mmap_new, and of the mmap a rec_new is threaded through (intrusive
  // lists); nullptr when generic.
  std::vector<const MapSpec*> map_spec_of_;
  std::vector<const MMapSpec*> mmap_spec_of_;
  std::vector<const MMapSpec*> recnew_spec_of_;
};

}  // namespace

std::unique_ptr<ir::Function> SpecializeHashStructures(
    const ir::Function& fn, storage::Database* db,
    const HashSpecOptions& options) {
  HashSpecPass pass(db, options);
  pass.Analyze(fn, fn.types());
  return pass.Run(fn);
}

}  // namespace qc::opt
