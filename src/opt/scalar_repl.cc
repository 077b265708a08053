#include "opt/scalar_repl.h"

#include <cstdint>
#include <vector>

#include "ir/rewrite.h"

namespace qc::opt {

using ir::Block;
using ir::Op;
using ir::Stmt;

namespace {

// Per-statement record state, indexed by Stmt::id.
enum RecState : uint8_t { kNotRecord, kReplaceable, kEscapes };

void Escape(const Stmt* s, std::vector<RecState>* state) {
  RecState& st = (*state)[s->id];
  if (st != kNotRecord) st = kEscapes;
}

// Records eligible for replacement: every use is a kRecGet (no escape into
// collections, no kRecSet mutation, not a block result).
void FindReplaceable(const Block* b, std::vector<RecState>* state) {
  for (const Stmt* s : b->stmts) {
    if (s->op == Op::kRecNew && (*state)[s->id] == kNotRecord) {
      (*state)[s->id] = kReplaceable;
    }
    for (size_t i = 0; i < s->args.size(); ++i) {
      if (s->op == Op::kRecGet && i == 0) continue;  // reading is fine
      Escape(s->args[i], state);
    }
    if (b->result != nullptr) Escape(b->result, state);
    for (const Block* nb : s->blocks) FindReplaceable(nb, state);
  }
}

class ScalarReplacer : public ir::Cloner {
 public:
  void Analyze(const ir::Function& fn) {
    state_.assign(static_cast<size_t>(fn.num_stmts()), kNotRecord);
    FindReplaceable(fn.body(), &state_);
  }

 protected:
  Stmt* Transform(const Stmt* s) override {
    if (s->op == Op::kRecGet) {
      if (state_[s->args[0]->id] == kReplaceable) {
        // Field value flows directly; the record is never materialized.
        return Lookup(s->args[0]->args[s->aux0]);
      }
    }
    return nullptr;
  }

 private:
  std::vector<RecState> state_;
};

}  // namespace

std::unique_ptr<ir::Function> ScalarReplacement(const ir::Function& fn) {
  ScalarReplacer r;
  r.Analyze(fn);
  return r.Run(fn);
}

}  // namespace qc::opt
