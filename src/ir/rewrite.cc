#include "ir/rewrite.h"

#include <cassert>

namespace qc::ir {

namespace {
Stmt kDroppedStorage;
}  // namespace

Stmt* const Cloner::kDropped = &kDroppedStorage;

std::unique_ptr<Function> Cloner::Run(const Function& src) {
  out_ = std::make_unique<Function>(src.name(), src.types());
  builder_ = std::make_unique<Builder>(out_.get());
  map_.assign(static_cast<size_t>(src.num_stmts()), nullptr);
  Prologue(src);
  CloneBlockBody(src.body());
  return std::move(out_);
}

Stmt* Cloner::Lookup(const Stmt* s) const {
  assert(static_cast<size_t>(s->id) < map_.size() && map_[s->id] != nullptr &&
         "use of a symbol that was not cloned yet");
  Stmt* r = map_[s->id];
  assert(r != kDropped && "use of a dropped statement");
  return r;
}

Stmt* Cloner::CloneDefault(const Stmt* s) {
  std::vector<Stmt*> args;
  args.reserve(s->args.size());
  for (const Stmt* a : s->args) args.push_back(Lookup(a));
  Stmt* ns = b().Emit(s->op, MapType(s->type), std::move(args), s->ival,
                      s->fval, s->sval, s->aux0, s->aux1);
  ns->lib_call = s->lib_call;
  for (const Block* blk : s->blocks) ns->blocks.push_back(CloneBlock(blk));
  return ns;
}

void Cloner::CloneBlockBody(const Block* src) {
  for (const Stmt* s : src->stmts) Visit(s);
  if (src->result != nullptr) {
    b().SetResult(Lookup(src->result));
  }
}

Block* Cloner::CloneBlock(const Block* src) {
  Block* nb = b().fn()->NewBlock();
  for (const Stmt* p : src->params) {
    Stmt* np = b().fn()->NewParam(MapType(p->type));
    nb->params.push_back(np);
    Map(p, np);
  }
  b().PushBlock(nb);
  CloneBlockBody(src);
  b().PopBlock();
  return nb;
}

void Cloner::Visit(const Stmt* s) {
  Stmt* r = Transform(s);
  if (r == nullptr) r = CloneDefault(s);
  Map(s, r);
}

}  // namespace qc::ir
