#include "ir/verify.h"

#include <cstdio>
#include <cstdlib>

#include "ir/printer.h"

namespace qc::ir {

const char* LevelName(Level level) {
  switch (level) {
    case Level::kCLite: return "C.Lite";
    case Level::kScaLite: return "ScaLite";
    case Level::kList: return "ScaLite[List]";
    case Level::kMapList: return "ScaLite[Map,List]";
  }
  return "?";
}

namespace {

// Scope checking with id-indexed slots: a statement is bound when the slot
// of its id holds that very statement, so a statement of another function
// whose id collides with a bound one is still reported as unbound. Ids are
// register indices downstream, so a bound statement whose id lies outside
// [0, num_stmts) or is shared with another statement is an error too.
class Checker {
 public:
  Checker(const Function& fn, std::vector<std::string>* errors)
      : errors_(errors),
        bound_(static_cast<size_t>(fn.num_stmts()), nullptr),
        seen_(static_cast<size_t>(fn.num_stmts()), nullptr) {}

  void CheckBlock(const Block* b) {
    for (const Stmt* p : b->params) Bind(p, /*is_param=*/true);
    for (const Stmt* s : b->stmts) {
      for (const Stmt* a : s->args) {
        if (!IsBound(a)) {
          Error("x%d uses x%d before (or outside) its binding", s->id, a->id);
        }
      }
      for (const Block* nb : s->blocks) {
        CheckBlock(nb);
      }
      Bind(s, /*is_param=*/false);
    }
    if (b->result != nullptr && !IsBound(b->result)) {
      Error("block result x%d is not bound in scope", b->result->id);
    }
    // Leave scope: remove local bindings (params + stmts of this block).
    for (const Stmt* p : b->params) Unbind(p);
    for (const Stmt* s : b->stmts) Unbind(s);
  }

 private:
  bool InRange(const Stmt* s) const {
    return s->id >= 0 && static_cast<size_t>(s->id) < bound_.size();
  }

  bool IsBound(const Stmt* s) const {
    return InRange(s) && bound_[static_cast<size_t>(s->id)] == s;
  }

  void Bind(const Stmt* s, bool is_param) {
    if (!InRange(s)) {
      Error("statement x%d has an id outside its function", s->id);
      return;
    }
    const size_t id = static_cast<size_t>(s->id);
    if (!is_param) {
      if (seen_[id] == s) {
        Error("statement x%d bound more than once", s->id);
      } else if (seen_[id] != nullptr) {
        Error("two statements are bound as x%d", s->id);
      }
      seen_[id] = s;
    }
    bound_[id] = s;
  }

  void Unbind(const Stmt* s) {
    if (IsBound(s)) bound_[static_cast<size_t>(s->id)] = nullptr;
  }

  void Error(const char* fmt, int a = 0, int bb = 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, a, bb);
    errors_->push_back(buf);
  }

  std::vector<std::string>* errors_;
  // Indexed by Stmt::id.
  std::vector<const Stmt*> bound_;
  std::vector<const Stmt*> seen_;
};

void CollectLevelViolations(const Block* b, Level level, bool allow_lib,
                            std::vector<std::string>* errors) {
  for (const Stmt* s : b->stmts) {
    const OpInfo& info = GetOpInfo(s->op);
    int l = static_cast<int>(level);
    bool ok = info.min_level <= l && l <= info.max_level;
    if (!ok && allow_lib && s->lib_call) ok = true;
    if (!ok) {
      errors->push_back(std::string("op '") + info.mnemonic +
                        "' not expressible at level " + LevelName(level));
    }
    for (const Block* nb : s->blocks) {
      CollectLevelViolations(nb, level, allow_lib, errors);
    }
  }
}

}  // namespace

std::vector<std::string> VerifyFunction(const Function& fn) {
  std::vector<std::string> errors;
  Checker checker(fn, &errors);
  checker.CheckBlock(fn.body());
  return errors;
}

std::vector<std::string> VerifyLevel(const Function& fn, Level level,
                                     bool allow_lib_calls) {
  std::vector<std::string> errors = VerifyFunction(fn);
  CollectLevelViolations(fn.body(), level, allow_lib_calls, &errors);
  return errors;
}

void CheckFunction(const Function& fn) {
  auto errors = VerifyFunction(fn);
  if (!errors.empty()) {
    std::fprintf(stderr, "IR verification failed for %s:\n", fn.name().c_str());
    for (const auto& e : errors) std::fprintf(stderr, "  %s\n", e.c_str());
    std::fprintf(stderr, "%s\n", PrintFunction(fn).c_str());
    std::abort();
  }
}

void CheckLevel(const Function& fn, Level level, bool allow_lib_calls) {
  auto errors = VerifyLevel(fn, level, allow_lib_calls);
  if (!errors.empty()) {
    std::fprintf(stderr, "Level verification (%s) failed for %s:\n",
                 LevelName(level), fn.name().c_str());
    for (const auto& e : errors) std::fprintf(stderr, "  %s\n", e.c_str());
    std::abort();
  }
}

}  // namespace qc::ir
