#include "opt/range.h"

#include <algorithm>

namespace qc::opt {

using ir::Block;
using ir::Op;
using ir::Stmt;
using ir::TypeKind;

RangeAnalysis::RangeAnalysis(const ir::Function& fn, storage::Database* db)
    : db_(db),
      state_(static_cast<size_t>(fn.num_stmts()), kUnvisited),
      memo_(static_cast<size_t>(fn.num_stmts())) {
  IndexRecordSources(fn.body());
}

void RangeAnalysis::IndexRecordSources(const Block* b) {
  for (const Stmt* s : b->stmts) {
    if (s->op == Op::kRecNew) {
      for (size_t i = 0; i < s->args.size(); ++i) {
        field_sources_[{s->type->record, static_cast<int>(i)}].push_back(
            s->args[i]);
      }
    } else if (s->op == Op::kRecSet) {
      const ir::RecordSchema* rec = s->args[0]->type->record;
      if (rec != nullptr) {
        field_sources_[{rec, s->aux0}].push_back(s->args[1]);
      }
    }
    for (const Block* nb : s->blocks) IndexRecordSources(nb);
  }
}

ValueRange RangeAnalysis::Of(const Stmt* s) {
  if (state_[s->id] == kDone) return memo_[s->id];
  if (state_[s->id] == kInProgress) return {};  // cycle via var/field
  state_[s->id] = kInProgress;
  ValueRange r = Compute(s);
  state_[s->id] = kDone;
  return memo_[s->id] = r;
}

ValueRange RangeAnalysis::Compute(const Stmt* s) {
  if (s->type == nullptr || !s->type->IsIntegral()) return {};
  switch (s->op) {
    case Op::kConst:
      return ValueRange{true, s->ival, s->ival};
    case Op::kCast:
      return Of(s->args[0]);
    case Op::kColGet: {
      const storage::Column& col = db_->table(s->aux0).column(s->aux1);
      if (col.def.type == storage::ColType::kF64 ||
          col.def.type == storage::ColType::kStr) {
        return {};
      }
      const storage::ColumnStats& st = db_->Stats(s->aux0, s->aux1);
      return ValueRange{true, st.min_i64, st.max_i64};
    }
    case Op::kColDict: {
      const storage::StringDictionary& d = db_->Dictionary(s->aux0, s->aux1);
      return ValueRange{true, 0,
                        static_cast<int64_t>(d.sorted_values.size()) - 1};
    }
    case Op::kAdd: {
      ValueRange a = Of(s->args[0]), b = Of(s->args[1]);
      if (!a.known || !b.known) return {};
      return ValueRange{true, a.lo + b.lo, a.hi + b.hi};
    }
    case Op::kSub: {
      ValueRange a = Of(s->args[0]), b = Of(s->args[1]);
      if (!a.known || !b.known) return {};
      return ValueRange{true, a.lo - b.hi, a.hi - b.lo};
    }
    case Op::kMul: {
      ValueRange a = Of(s->args[0]), b = Of(s->args[1]);
      if (!a.known || !b.known) return {};
      int64_t c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
      return ValueRange{true, *std::min_element(c, c + 4),
                        *std::max_element(c, c + 4)};
    }
    case Op::kDiv: {
      // Only division by a positive constant (the YEAR() pattern d / 10000).
      ValueRange a = Of(s->args[0]), b = Of(s->args[1]);
      if (!a.known || !b.known || b.lo != b.hi || b.lo <= 0) return {};
      return ValueRange{true, a.lo / b.lo, a.hi / b.lo};
    }
    case Op::kRecGet: {
      const ir::RecordSchema* rec =
          s->args[0]->type->kind == TypeKind::kRecord
              ? s->args[0]->type->record
              : nullptr;
      if (rec == nullptr) return {};
      auto it = field_sources_.find({rec, s->aux0});
      if (it == field_sources_.end() || it->second.empty()) return {};
      ValueRange acc{true, INT64_MAX, INT64_MIN};
      for (const Stmt* src : it->second) {
        ValueRange r = Of(src);
        if (!r.known) return {};
        acc.lo = std::min(acc.lo, r.lo);
        acc.hi = std::max(acc.hi, r.hi);
      }
      return acc;
    }
    default:
      return {};
  }
}

}  // namespace qc::opt
