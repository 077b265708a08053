// Static value-range analysis over the ANF IR, driven by load-time catalog
// statistics (§3.3 annotations + Appendix B/D): column reads take their
// range from column min/max stats, dictionary reads from the dictionary
// size, arithmetic propagates interval bounds, and record fields union the
// ranges of every construction site of that record type. The data-structure
// specialization passes use these ranges to decide when a hash table can
// become a direct-addressed array.
#ifndef QC_OPT_RANGE_H_
#define QC_OPT_RANGE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "ir/stmt.h"
#include "storage/database.h"

namespace qc::opt {

struct ValueRange {
  bool known = false;
  int64_t lo = 0;
  int64_t hi = 0;

  // Number of distinct slots a direct-addressed structure needs.
  uint64_t Size() const {
    return known && hi >= lo ? static_cast<uint64_t>(hi - lo + 1) : 0;
  }
};

class RangeAnalysis {
 public:
  RangeAnalysis(const ir::Function& fn, storage::Database* db);

  // Range of an integral statement; `known == false` when unbounded.
  ValueRange Of(const ir::Stmt* s);

 private:
  void IndexRecordSources(const ir::Block* b);
  ValueRange Compute(const ir::Stmt* s);

  storage::Database* db_;
  // (record schema, field) -> all values ever stored in that field.
  std::map<std::pair<const ir::RecordSchema*, int>,
           std::vector<const ir::Stmt*>>
      field_sources_;
  // Indexed by Stmt::id.
  enum State : uint8_t { kUnvisited, kInProgress, kDone };
  std::vector<State> state_;
  std::vector<ValueRange> memo_;
};

}  // namespace qc::opt

#endif  // QC_OPT_RANGE_H_
