// Scoped ANF builder. All IR construction — front-end lowering and every
// rewriting pass — goes through this class. Emitting a pure statement first
// consults the value-numbering table of the open scopes, so common
// subexpressions are shared *by construction* (the "CSE for free" property
// of ANF, §3.3), and sharing is only ever with dominating scopes.
//
// Every pass is one rebuilding clone through a Builder, so the per-statement
// cost of emission is the cost of the whole lowering stack. The rule for
// passes: per-statement side tables are vectors indexed by Stmt::id (ids are
// dense per function, [0, Function::num_stmts())), never pointer-keyed
// containers, and nothing iterates in pointer order — the output must not
// depend on where the allocator put a statement.
#ifndef QC_IR_BUILDER_H_
#define QC_IR_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/stmt.h"

namespace qc::ir {

class Builder {
 public:
  explicit Builder(Function* fn);

  Function* fn() const { return fn_; }
  TypeFactory* types() const { return fn_->types(); }

  // --- scope control -------------------------------------------------------
  void PushBlock(Block* b);
  void PopBlock();
  Block* CurrentBlock() const { return scope_.back(); }
  void SetResult(Stmt* s) { CurrentBlock()->result = s; }

  // Runs `body` inside a fresh block and returns it.
  Block* InBlock(const std::function<void()>& body);

  // --- raw emission --------------------------------------------------------
  // Creates (or CSE-reuses) a statement. Pure, CSE-able ops are value
  // numbered; everything else is appended unconditionally.
  Stmt* Emit(Op op, const Type* type, std::vector<Stmt*> args = {},
             int64_t ival = 0, double fval = 0.0, std::string sval = "",
             int aux0 = -1, int aux1 = -1);

  // --- literals ------------------------------------------------------------
  Stmt* I32(int32_t v);
  Stmt* I64(int64_t v);
  Stmt* F64(double v);
  Stmt* BoolC(bool v);
  Stmt* StrC(const std::string& v);
  Stmt* DateC(int32_t yyyymmdd);
  Stmt* NullOf(const Type* t);

  // --- arithmetic (numeric operands; implicit i->f promotion) --------------
  Stmt* Add(Stmt* a, Stmt* b);
  Stmt* Sub(Stmt* a, Stmt* b);
  Stmt* Mul(Stmt* a, Stmt* b);
  Stmt* Div(Stmt* a, Stmt* b);
  Stmt* Mod(Stmt* a, Stmt* b);
  Stmt* Neg(Stmt* a);
  Stmt* Cast(Stmt* a, const Type* to);

  // --- comparisons ---------------------------------------------------------
  Stmt* Eq(Stmt* a, Stmt* b);
  Stmt* Ne(Stmt* a, Stmt* b);
  Stmt* Lt(Stmt* a, Stmt* b);
  Stmt* Le(Stmt* a, Stmt* b);
  Stmt* Gt(Stmt* a, Stmt* b);
  Stmt* Ge(Stmt* a, Stmt* b);

  // --- booleans ------------------------------------------------------------
  Stmt* And(Stmt* a, Stmt* b);
  Stmt* Or(Stmt* a, Stmt* b);
  Stmt* Not(Stmt* a);
  Stmt* BitAnd(Stmt* a, Stmt* b);

  // --- strings -------------------------------------------------------------
  Stmt* StrEq(Stmt* a, Stmt* b);
  Stmt* StrNe(Stmt* a, Stmt* b);
  Stmt* StrLt(Stmt* a, Stmt* b);
  Stmt* StrStartsWith(Stmt* a, Stmt* prefix);
  Stmt* StrEndsWith(Stmt* a, Stmt* suffix);
  Stmt* StrContains(Stmt* a, Stmt* infix);
  Stmt* StrLike(Stmt* a, const std::string& pattern);
  Stmt* StrLen(Stmt* a);
  // substring(a, start0, len) — start/len are compile-time constants.
  Stmt* StrSubstr(Stmt* a, int start0, int len);

  // --- mutable variables ---------------------------------------------------
  Stmt* VarNew(Stmt* init);
  Stmt* VarRead(Stmt* var);
  Stmt* VarAssign(Stmt* var, Stmt* v);

  // --- control flow --------------------------------------------------------
  Stmt* If(Stmt* cond, const std::function<void()>& then_body,
           const std::function<void()>& else_body = nullptr);
  Stmt* ForRange(Stmt* lo, Stmt* hi,
                 const std::function<void(Stmt* i)>& body);
  Stmt* While(const std::function<Stmt*()>& cond,
              const std::function<void()>& body);

  // --- records -------------------------------------------------------------
  Stmt* RecNew(const Type* rec_type, std::vector<Stmt*> field_values);
  Stmt* RecGet(Stmt* rec, int field);
  Stmt* RecGet(Stmt* rec, const std::string& field);
  Stmt* RecSet(Stmt* rec, int field, Stmt* v);
  Stmt* RecSet(Stmt* rec, const std::string& field, Stmt* v);

  // --- arrays --------------------------------------------------------------
  Stmt* ArrNew(const Type* elem, Stmt* len);
  Stmt* ArrGet(Stmt* arr, Stmt* idx);
  Stmt* ArrSet(Stmt* arr, Stmt* idx, Stmt* v);
  Stmt* ArrLen(Stmt* arr);
  // Sorts arr[0..len) with `less(a, b)`.
  Stmt* ArrSortBy(Stmt* arr, Stmt* len,
                  const std::function<Stmt*(Stmt*, Stmt*)>& less);

  // --- lists ---------------------------------------------------------------
  Stmt* ListNew(const Type* elem);
  Stmt* ListAppend(Stmt* list, Stmt* v);
  Stmt* ListForeach(Stmt* list, const std::function<void(Stmt* e)>& body);
  Stmt* ListSize(Stmt* list);
  Stmt* ListGet(Stmt* list, Stmt* idx);
  Stmt* ListSortBy(Stmt* list,
                   const std::function<Stmt*(Stmt*, Stmt*)>& less);

  // --- hash maps -----------------------------------------------------------
  Stmt* MapNew(const Type* key, const Type* value);
  Stmt* MapGetOrElseUpdate(Stmt* map, Stmt* key,
                           const std::function<Stmt*()>& init);
  Stmt* MapGetOrNull(Stmt* map, Stmt* key);
  Stmt* MapForeach(Stmt* map,
                   const std::function<void(Stmt* k, Stmt* v)>& body);
  Stmt* MapSize(Stmt* map);

  // --- multimaps -----------------------------------------------------------
  Stmt* MMapNew(const Type* key, const Type* value);
  Stmt* MMapAdd(Stmt* map, Stmt* key, Stmt* v);
  Stmt* MMapGetOrNull(Stmt* map, Stmt* key);  // -> List[value] or null

  Stmt* IsNull(Stmt* v);

  // --- C.Lite memory -------------------------------------------------------
  Stmt* Malloc(const Type* elem, Stmt* count);
  Stmt* Free(Stmt* ptr);
  Stmt* PoolNew(const Type* elem, Stmt* capacity);
  Stmt* PoolAlloc(Stmt* pool);

  // --- catalog access ------------------------------------------------------
  Stmt* TableRows(int table);
  Stmt* ColGet(int table, int column, Stmt* row, const Type* type);
  Stmt* ColDict(int table, int column, Stmt* row);
  Stmt* IdxBucketLen(int table, int column, Stmt* key);
  Stmt* IdxBucketRow(int table, int column, Stmt* key, Stmt* j);
  Stmt* IdxPkRow(int table, int column, Stmt* key);

  // --- output --------------------------------------------------------------
  Stmt* EmitRow(std::vector<Stmt*> fields);

 private:
  const Type* Promote(Stmt** a, Stmt** b);
  Stmt* Cmp(Op op, Stmt* a, Stmt* b);

  // Value numbering: one linear-probing table over the pure statements of
  // all open scopes. A statement is its own key: lookups hash the operands
  // of the statement about to be emitted and compare candidates' fields.
  struct CseSlot {
    uint64_t hash = 0;
    Stmt* stmt = nullptr;  // nullptr: empty
  };
  Stmt* CseFind(uint64_t hash, Op op, const Type* type,
                const std::vector<Stmt*>& args, int64_t ival, double fval,
                const std::string& sval, int aux0, int aux1,
                size_t* empty_slot) const;
  void CseGrow();

  Function* fn_;
  std::vector<Block*> scope_;

  std::vector<CseSlot> cse_slots_;  // power-of-two capacity, load <= 1/2
  // Slot of every entry, in insertion order. Closing a scope clears its
  // entries newest first: the newest entry took the first empty slot of its
  // probe run and no older entry probed past that slot, so clearing it
  // restores the table exactly, with no tombstones.
  std::vector<size_t> cse_log_;
  std::vector<size_t> cse_marks_;  // cse_log_ size when each scope opened
};

}  // namespace qc::ir

#endif  // QC_IR_BUILDER_H_
