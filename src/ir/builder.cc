#include "ir/builder.h"

#include <cassert>
#include <cstring>

#include "common/hash.h"

namespace qc::ir {

namespace {

constexpr size_t kInitialCseSlots = 256;

uint64_t FloatBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint64_t CseHash(Op op, const Type* type, const std::vector<Stmt*>& args,
                 int64_t ival, double fval, const std::string& sval, int aux0,
                 int aux1) {
  uint64_t h = HashCombine(static_cast<uint64_t>(op),
                           reinterpret_cast<uintptr_t>(type));
  for (const Stmt* a : args) h = HashCombine(h, reinterpret_cast<uintptr_t>(a));
  h = HashCombine(h, static_cast<uint64_t>(ival));
  h = HashCombine(h, FloatBits(fval));
  if (!sval.empty()) h = HashCombine(h, HashString(sval));
  h = HashCombine(h, static_cast<uint64_t>(aux0));
  return HashCombine(h, static_cast<uint64_t>(aux1));
}

}  // namespace

Builder::Builder(Function* fn) : fn_(fn), cse_slots_(kInitialCseSlots) {
  scope_.push_back(fn->body());
}

void Builder::PushBlock(Block* b) {
  scope_.push_back(b);
  cse_marks_.push_back(cse_log_.size());
}

void Builder::PopBlock() {
  assert(scope_.size() > 1 && "cannot pop the function body");
  scope_.pop_back();
  while (cse_log_.size() > cse_marks_.back()) {
    cse_slots_[cse_log_.back()].stmt = nullptr;
    cse_log_.pop_back();
  }
  cse_marks_.pop_back();
}

Block* Builder::InBlock(const std::function<void()>& body) {
  Block* b = fn_->NewBlock();
  PushBlock(b);
  body();
  PopBlock();
  return b;
}

Stmt* Builder::CseFind(uint64_t hash, Op op, const Type* type,
                       const std::vector<Stmt*>& args, int64_t ival,
                       double fval, const std::string& sval, int aux0,
                       int aux1, size_t* empty_slot) const {
  const size_t mask = cse_slots_.size() - 1;
  size_t i = hash & mask;
  for (; cse_slots_[i].stmt != nullptr; i = (i + 1) & mask) {
    const CseSlot& e = cse_slots_[i];
    const Stmt* s = e.stmt;
    if (e.hash == hash && s->op == op && s->type == type &&
        s->ival == ival && FloatBits(s->fval) == FloatBits(fval) &&
        s->aux0 == aux0 && s->aux1 == aux1 && s->args == args &&
        s->sval == sval) {
      return e.stmt;
    }
  }
  *empty_slot = i;
  return nullptr;
}

void Builder::CseGrow() {
  // Re-inserting in insertion order keeps the newest-first removal exact.
  std::vector<CseSlot> old(2 * cse_slots_.size());
  old.swap(cse_slots_);
  const size_t mask = cse_slots_.size() - 1;
  for (size_t& slot : cse_log_) {
    const CseSlot e = old[slot];
    slot = e.hash & mask;
    while (cse_slots_[slot].stmt != nullptr) slot = (slot + 1) & mask;
    cse_slots_[slot] = e;
  }
}

Stmt* Builder::Emit(Op op, const Type* type, std::vector<Stmt*> args,
                    int64_t ival, double fval, std::string sval, int aux0,
                    int aux1) {
  const bool cse = OpIsCseable(op);
  uint64_t hash = 0;
  size_t slot = 0;
  if (cse) {
    hash = CseHash(op, type, args, ival, fval, sval, aux0, aux1);
    Stmt* found =
        CseFind(hash, op, type, args, ival, fval, sval, aux0, aux1, &slot);
    if (found != nullptr) return found;
  }
  Stmt* s = fn_->NewStmt(op, type);
  s->args = std::move(args);
  s->ival = ival;
  s->fval = fval;
  s->sval = std::move(sval);
  s->aux0 = aux0;
  s->aux1 = aux1;
  CurrentBlock()->stmts.push_back(s);
  if (cse) {
    cse_slots_[slot] = CseSlot{hash, s};
    cse_log_.push_back(slot);
    if (2 * cse_log_.size() > cse_slots_.size()) CseGrow();
  }
  return s;
}

// --- literals ---------------------------------------------------------------

Stmt* Builder::I32(int32_t v) { return Emit(Op::kConst, types()->I32(), {}, v); }
Stmt* Builder::I64(int64_t v) { return Emit(Op::kConst, types()->I64(), {}, v); }
Stmt* Builder::F64(double v) {
  return Emit(Op::kConst, types()->F64(), {}, 0, v);
}
Stmt* Builder::BoolC(bool v) {
  return Emit(Op::kConst, types()->Bool(), {}, v ? 1 : 0);
}
Stmt* Builder::StrC(const std::string& v) {
  return Emit(Op::kConst, types()->Str(), {}, 0, 0.0, v);
}
Stmt* Builder::DateC(int32_t yyyymmdd) {
  return Emit(Op::kConst, types()->DateT(), {}, yyyymmdd);
}
Stmt* Builder::NullOf(const Type* t) { return Emit(Op::kNull, t); }

// --- arithmetic -------------------------------------------------------------

const Type* Builder::Promote(Stmt** a, Stmt** b) {
  const Type* ta = (*a)->type;
  const Type* tb = (*b)->type;
  assert(ta->IsNumeric() && tb->IsNumeric() && "numeric operands required");
  if (ta == tb) return ta;
  const Type* f64 = types()->F64();
  const Type* i64 = types()->I64();
  if (ta->kind == TypeKind::kF64 || tb->kind == TypeKind::kF64) {
    if (ta->kind != TypeKind::kF64) *a = Cast(*a, f64);
    if (tb->kind != TypeKind::kF64) *b = Cast(*b, f64);
    return f64;
  }
  // Mixed integral widths (date counts as i32): widen to i64.
  if (ta->kind != TypeKind::kI64) *a = Cast(*a, i64);
  if (tb->kind != TypeKind::kI64) *b = Cast(*b, i64);
  return i64;
}

Stmt* Builder::Add(Stmt* a, Stmt* b) {
  const Type* t = Promote(&a, &b);
  return Emit(Op::kAdd, t, {a, b});
}
Stmt* Builder::Sub(Stmt* a, Stmt* b) {
  const Type* t = Promote(&a, &b);
  return Emit(Op::kSub, t, {a, b});
}
Stmt* Builder::Mul(Stmt* a, Stmt* b) {
  const Type* t = Promote(&a, &b);
  return Emit(Op::kMul, t, {a, b});
}
Stmt* Builder::Div(Stmt* a, Stmt* b) {
  const Type* t = Promote(&a, &b);
  return Emit(Op::kDiv, t, {a, b});
}
Stmt* Builder::Mod(Stmt* a, Stmt* b) {
  const Type* t = Promote(&a, &b);
  return Emit(Op::kMod, t, {a, b});
}
Stmt* Builder::Neg(Stmt* a) { return Emit(Op::kNeg, a->type, {a}); }

Stmt* Builder::Cast(Stmt* a, const Type* to) {
  if (a->type == to) return a;
  return Emit(Op::kCast, to, {a});
}

// --- comparisons ------------------------------------------------------------

Stmt* Builder::Cmp(Op op, Stmt* a, Stmt* b) {
  if (a->type != b->type) Promote(&a, &b);
  return Emit(op, types()->Bool(), {a, b});
}
Stmt* Builder::Eq(Stmt* a, Stmt* b) { return Cmp(Op::kEq, a, b); }
Stmt* Builder::Ne(Stmt* a, Stmt* b) { return Cmp(Op::kNe, a, b); }
Stmt* Builder::Lt(Stmt* a, Stmt* b) { return Cmp(Op::kLt, a, b); }
Stmt* Builder::Le(Stmt* a, Stmt* b) { return Cmp(Op::kLe, a, b); }
Stmt* Builder::Gt(Stmt* a, Stmt* b) { return Cmp(Op::kGt, a, b); }
Stmt* Builder::Ge(Stmt* a, Stmt* b) { return Cmp(Op::kGe, a, b); }

// --- booleans ---------------------------------------------------------------

Stmt* Builder::And(Stmt* a, Stmt* b) {
  return Emit(Op::kAnd, types()->Bool(), {a, b});
}
Stmt* Builder::Or(Stmt* a, Stmt* b) {
  return Emit(Op::kOr, types()->Bool(), {a, b});
}
Stmt* Builder::Not(Stmt* a) { return Emit(Op::kNot, types()->Bool(), {a}); }
Stmt* Builder::BitAnd(Stmt* a, Stmt* b) {
  return Emit(Op::kBitAnd, types()->Bool(), {a, b});
}

// --- strings ----------------------------------------------------------------

Stmt* Builder::StrEq(Stmt* a, Stmt* b) {
  return Emit(Op::kStrEq, types()->Bool(), {a, b});
}
Stmt* Builder::StrNe(Stmt* a, Stmt* b) {
  return Emit(Op::kStrNe, types()->Bool(), {a, b});
}
Stmt* Builder::StrLt(Stmt* a, Stmt* b) {
  return Emit(Op::kStrLt, types()->Bool(), {a, b});
}
Stmt* Builder::StrStartsWith(Stmt* a, Stmt* prefix) {
  return Emit(Op::kStrStartsWith, types()->Bool(), {a, prefix});
}
Stmt* Builder::StrEndsWith(Stmt* a, Stmt* suffix) {
  return Emit(Op::kStrEndsWith, types()->Bool(), {a, suffix});
}
Stmt* Builder::StrContains(Stmt* a, Stmt* infix) {
  return Emit(Op::kStrContains, types()->Bool(), {a, infix});
}
Stmt* Builder::StrLike(Stmt* a, const std::string& pattern) {
  return Emit(Op::kStrLike, types()->Bool(), {a}, 0, 0.0, pattern);
}
Stmt* Builder::StrLen(Stmt* a) {
  return Emit(Op::kStrLen, types()->I64(), {a});
}
Stmt* Builder::StrSubstr(Stmt* a, int start0, int len) {
  return Emit(Op::kStrSubstr, types()->Str(), {a}, 0, 0.0, "", start0, len);
}

// --- variables --------------------------------------------------------------

Stmt* Builder::VarNew(Stmt* init) {
  return Emit(Op::kVarNew, init->type, {init});
}
Stmt* Builder::VarRead(Stmt* var) {
  return Emit(Op::kVarRead, var->type, {var});
}
Stmt* Builder::VarAssign(Stmt* var, Stmt* v) {
  return Emit(Op::kVarAssign, types()->Void(), {var, v});
}

// --- control flow -----------------------------------------------------------

Stmt* Builder::If(Stmt* cond, const std::function<void()>& then_body,
                  const std::function<void()>& else_body) {
  Stmt* s = Emit(Op::kIf, types()->Void(), {cond});
  s->blocks.push_back(InBlock(then_body));
  if (else_body) {
    s->blocks.push_back(InBlock(else_body));
  } else {
    s->blocks.push_back(fn_->NewBlock());
  }
  return s;
}

Stmt* Builder::ForRange(Stmt* lo, Stmt* hi,
                        const std::function<void(Stmt* i)>& body) {
  Stmt* s = Emit(Op::kForRange, types()->Void(), {lo, hi});
  Block* b = fn_->NewBlock();
  Stmt* i = fn_->NewParam(types()->I64());
  b->params.push_back(i);
  PushBlock(b);
  body(i);
  PopBlock();
  s->blocks.push_back(b);
  return s;
}

Stmt* Builder::While(const std::function<Stmt*()>& cond,
                     const std::function<void()>& body) {
  Stmt* s = Emit(Op::kWhile, types()->Void());
  Block* cb = fn_->NewBlock();
  PushBlock(cb);
  cb->result = cond();
  PopBlock();
  s->blocks.push_back(cb);
  s->blocks.push_back(InBlock(body));
  return s;
}

// --- records ----------------------------------------------------------------

Stmt* Builder::RecNew(const Type* rec_type, std::vector<Stmt*> field_values) {
  assert(rec_type->kind == TypeKind::kRecord);
  assert(field_values.size() == rec_type->record->fields.size());
  return Emit(Op::kRecNew, rec_type, std::move(field_values));
}

Stmt* Builder::RecGet(Stmt* rec, int field) {
  const RecordSchema* schema = rec->type->kind == TypeKind::kPtr
                                   ? rec->type->elem->record
                                   : rec->type->record;
  return Emit(Op::kRecGet, schema->fields[field].type, {rec}, 0, 0.0, "",
              field);
}

Stmt* Builder::RecGet(Stmt* rec, const std::string& field) {
  const RecordSchema* schema = rec->type->kind == TypeKind::kPtr
                                   ? rec->type->elem->record
                                   : rec->type->record;
  int idx = schema->FieldIndex(field);
  assert(idx >= 0 && "unknown record field");
  return RecGet(rec, idx);
}

Stmt* Builder::RecSet(Stmt* rec, int field, Stmt* v) {
  return Emit(Op::kRecSet, types()->Void(), {rec, v}, 0, 0.0, "", field);
}

Stmt* Builder::RecSet(Stmt* rec, const std::string& field, Stmt* v) {
  const RecordSchema* schema = rec->type->kind == TypeKind::kPtr
                                   ? rec->type->elem->record
                                   : rec->type->record;
  int idx = schema->FieldIndex(field);
  assert(idx >= 0 && "unknown record field");
  return RecSet(rec, idx, v);
}

// --- arrays -----------------------------------------------------------------

Stmt* Builder::ArrNew(const Type* elem, Stmt* len) {
  return Emit(Op::kArrNew, types()->Array(elem), {len});
}
Stmt* Builder::ArrGet(Stmt* arr, Stmt* idx) {
  return Emit(Op::kArrGet, arr->type->elem, {arr, idx});
}
Stmt* Builder::ArrSet(Stmt* arr, Stmt* idx, Stmt* v) {
  return Emit(Op::kArrSet, types()->Void(), {arr, idx, v});
}
Stmt* Builder::ArrLen(Stmt* arr) {
  return Emit(Op::kArrLen, types()->I64(), {arr});
}

Stmt* Builder::ArrSortBy(Stmt* arr, Stmt* len,
                         const std::function<Stmt*(Stmt*, Stmt*)>& less) {
  Stmt* s = Emit(Op::kArrSortBy, types()->Void(), {arr, len});
  Block* b = fn_->NewBlock();
  Stmt* a = fn_->NewParam(arr->type->elem);
  Stmt* bb = fn_->NewParam(arr->type->elem);
  b->params = {a, bb};
  PushBlock(b);
  b->result = less(a, bb);
  PopBlock();
  s->blocks.push_back(b);
  return s;
}

// --- lists ------------------------------------------------------------------

Stmt* Builder::ListNew(const Type* elem) {
  return Emit(Op::kListNew, types()->List(elem));
}
Stmt* Builder::ListAppend(Stmt* list, Stmt* v) {
  return Emit(Op::kListAppend, types()->Void(), {list, v});
}
Stmt* Builder::ListForeach(Stmt* list,
                           const std::function<void(Stmt* e)>& body) {
  Stmt* s = Emit(Op::kListForeach, types()->Void(), {list});
  Block* b = fn_->NewBlock();
  Stmt* e = fn_->NewParam(list->type->elem);
  b->params.push_back(e);
  PushBlock(b);
  body(e);
  PopBlock();
  s->blocks.push_back(b);
  return s;
}
Stmt* Builder::ListSize(Stmt* list) {
  return Emit(Op::kListSize, types()->I64(), {list});
}
Stmt* Builder::ListGet(Stmt* list, Stmt* idx) {
  return Emit(Op::kListGet, list->type->elem, {list, idx});
}

Stmt* Builder::ListSortBy(Stmt* list,
                          const std::function<Stmt*(Stmt*, Stmt*)>& less) {
  Stmt* s = Emit(Op::kListSortBy, types()->Void(), {list});
  Block* b = fn_->NewBlock();
  Stmt* a = fn_->NewParam(list->type->elem);
  Stmt* bb = fn_->NewParam(list->type->elem);
  b->params = {a, bb};
  PushBlock(b);
  b->result = less(a, bb);
  PopBlock();
  s->blocks.push_back(b);
  return s;
}

// --- hash maps --------------------------------------------------------------

Stmt* Builder::MapNew(const Type* key, const Type* value) {
  return Emit(Op::kMapNew, types()->Map(key, value));
}

Stmt* Builder::MapGetOrElseUpdate(Stmt* map, Stmt* key,
                                  const std::function<Stmt*()>& init) {
  Stmt* s =
      Emit(Op::kMapGetOrElseUpdate, map->type->value, {map, key});
  Block* b = fn_->NewBlock();
  PushBlock(b);
  b->result = init();
  PopBlock();
  s->blocks.push_back(b);
  return s;
}

Stmt* Builder::MapGetOrNull(Stmt* map, Stmt* key) {
  return Emit(Op::kMapGetOrNull, map->type->value, {map, key});
}

Stmt* Builder::MapForeach(Stmt* map,
                          const std::function<void(Stmt*, Stmt*)>& body) {
  Stmt* s = Emit(Op::kMapForeach, types()->Void(), {map});
  Block* b = fn_->NewBlock();
  Stmt* k = fn_->NewParam(map->type->key);
  Stmt* v = fn_->NewParam(map->type->value);
  b->params = {k, v};
  PushBlock(b);
  body(k, v);
  PopBlock();
  s->blocks.push_back(b);
  return s;
}

Stmt* Builder::MapSize(Stmt* map) {
  return Emit(Op::kMapSize, types()->I64(), {map});
}

// --- multimaps --------------------------------------------------------------

Stmt* Builder::MMapNew(const Type* key, const Type* value) {
  return Emit(Op::kMMapNew, types()->MMap(key, value));
}
Stmt* Builder::MMapAdd(Stmt* map, Stmt* key, Stmt* v) {
  return Emit(Op::kMMapAdd, types()->Void(), {map, key, v});
}
Stmt* Builder::MMapGetOrNull(Stmt* map, Stmt* key) {
  return Emit(Op::kMMapGetOrNull, types()->List(map->type->value),
              {map, key});
}

Stmt* Builder::IsNull(Stmt* v) {
  return Emit(Op::kIsNull, types()->Bool(), {v});
}

// --- C.Lite memory ----------------------------------------------------------

Stmt* Builder::Malloc(const Type* elem, Stmt* count) {
  return Emit(Op::kMalloc, types()->Array(elem), {count});
}
Stmt* Builder::Free(Stmt* ptr) {
  return Emit(Op::kFree, types()->Void(), {ptr});
}
Stmt* Builder::PoolNew(const Type* elem, Stmt* capacity) {
  return Emit(Op::kPoolNew, types()->Pool(elem), {capacity});
}
Stmt* Builder::PoolAlloc(Stmt* pool) {
  return Emit(Op::kPoolAlloc, pool->type->elem, {pool});
}

// --- catalog access ---------------------------------------------------------

Stmt* Builder::TableRows(int table) {
  return Emit(Op::kTableRows, types()->I64(), {}, 0, 0.0, "", table);
}
Stmt* Builder::ColGet(int table, int column, Stmt* row, const Type* type) {
  return Emit(Op::kColGet, type, {row}, 0, 0.0, "", table, column);
}
Stmt* Builder::ColDict(int table, int column, Stmt* row) {
  return Emit(Op::kColDict, types()->I32(), {row}, 0, 0.0, "", table, column);
}
Stmt* Builder::IdxBucketLen(int table, int column, Stmt* key) {
  return Emit(Op::kIdxBucketLen, types()->I64(), {key}, 0, 0.0, "", table,
              column);
}
Stmt* Builder::IdxBucketRow(int table, int column, Stmt* key, Stmt* j) {
  return Emit(Op::kIdxBucketRow, types()->I64(), {key, j}, 0, 0.0, "", table,
              column);
}
Stmt* Builder::IdxPkRow(int table, int column, Stmt* key) {
  return Emit(Op::kIdxPkRow, types()->I64(), {key}, 0, 0.0, "", table,
              column);
}

// --- output -----------------------------------------------------------------

Stmt* Builder::EmitRow(std::vector<Stmt*> fields) {
  return Emit(Op::kEmit, types()->Void(), std::move(fields));
}

}  // namespace qc::ir
