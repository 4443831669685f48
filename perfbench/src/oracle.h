// Answer checking: a sorted copy of the base column with prefix sums, and
// the check of one engine answer against an expected count/sum interval.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/query.h"
#include "util/common.h"

namespace perfbench {

using scrack::Value;

class Oracle {
 public:
  /// Sorts `values` (a copy of the base column) and builds prefix sums.
  explicit Oracle(std::vector<Value> values);

  /// Tuples of the base in [lo, hi), and their sum.
  int64_t Count(Value lo, Value hi) const;
  int64_t Sum(Value lo, Value hi) const;

  int64_t size() const { return static_cast<int64_t>(sorted_.size()); }

 private:
  std::vector<Value> sorted_;
  std::vector<int64_t> prefix_;  ///< prefix_[i] = sum of sorted_[0, i)
};

/// The answer a read must give: exact when no concurrent write touches its
/// range (lo == hi), otherwise an interval spanning the answers before and
/// after the writes that may or may not be visible to it.
struct Expected {
  int64_t count_lo = 0, count_hi = 0;
  int64_t sum_lo = 0, sum_hi = 0;
};

/// True when `out` answers `query` within `expected`. kMaterialize answers
/// are also checked value by value to lie inside the query range.
bool CheckAnswer(const scrack::Query& query, const scrack::QueryOutput& out,
                 const Expected& expected);

}  // namespace perfbench
