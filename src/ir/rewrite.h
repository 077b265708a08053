// Rewriting infrastructure: every pass is implemented as a *rebuilding
// clone* of the input function. The Cloner walks the source in order,
// re-emitting each statement through a Builder into a fresh function; a pass
// overrides Transform() to intercept statements it wants to change and emits
// replacement code through the same Builder. Because emission goes through
// the Builder, the output is automatically in ANF with CSE applied, and the
// source function is never mutated (passes are pure Function -> Function).
//
// A pass is one clone, so its cost is a per-statement cost. The rule for
// passes: per-statement side tables (the clone map here, analysis facts in
// opt/) are vectors indexed by Stmt::id, which is dense per function
// ([0, Function::num_stmts())), never pointer-keyed containers; and analyses
// visit statements in program order (opt::UseIndex::stmts), never in pointer
// or hash-bucket order, so the output cannot depend on heap addresses.
#ifndef QC_IR_REWRITE_H_
#define QC_IR_REWRITE_H_

#include <cassert>
#include <memory>
#include <vector>

#include "ir/builder.h"
#include "ir/stmt.h"

namespace qc::ir {

class Cloner {
 public:
  virtual ~Cloner() = default;

  // Clones `src` into a new function (same name, same TypeFactory).
  std::unique_ptr<Function> Run(const Function& src);

 protected:
  // Called once after the output function and builder are set up, before any
  // statement is cloned — passes use it to emit hoisted prologue code (e.g.
  // memory pools) at the top of the function body.
  virtual void Prologue(const Function& /*src*/) {}

  // Pass hook. Called for each source statement, after its arguments have
  // been cloned. Return the replacement statement (emit anything you need
  // through b()), or nullptr to clone the statement unchanged. To *drop* a
  // void statement, emit nothing and return a dummy via Drop().
  virtual Stmt* Transform(const Stmt* /*s*/) { return nullptr; }

  // Optional type translation hook (e.g. record layout changes).
  virtual const Type* MapType(const Type* t) { return t; }

  Builder& b() { return *builder_; }

  // The clone of a source symbol (valid once its statement was visited).
  Stmt* Lookup(const Stmt* s) const;
  // Registers a manual mapping old -> replacement.
  void Map(const Stmt* old_stmt, Stmt* replacement) {
    assert(static_cast<size_t>(old_stmt->id) < map_.size() &&
           "not a statement of the source function");
    map_[old_stmt->id] = replacement;
  }

  // Sentinel meaning "statement intentionally removed".
  Stmt* Drop() { return kDropped; }

  // Default element-wise clone of `s` (copies payload, maps args, clones
  // nested blocks). Exposed so Transform overrides can fall back to it after
  // adjusting state.
  Stmt* CloneDefault(const Stmt* s);

  // Clones the contents of a source block into the current builder block.
  void CloneBlockBody(const Block* src);

  // Clones `src` as a fresh block (params recreated and mapped).
  Block* CloneBlock(const Block* src);

 private:
  void Visit(const Stmt* s);

  static Stmt* const kDropped;
  std::unique_ptr<Builder> builder_;
  std::unique_ptr<Function> out_;
  std::vector<Stmt*> map_;  // source id -> clone; nullptr: not cloned yet
};

}  // namespace qc::ir

#endif  // QC_IR_REWRITE_H_
