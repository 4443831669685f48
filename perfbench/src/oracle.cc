#include "oracle.h"

#include <algorithm>

namespace perfbench {

Oracle::Oracle(std::vector<Value> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
  prefix_.resize(sorted_.size() + 1);
  prefix_[0] = 0;
  for (size_t i = 0; i < sorted_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + sorted_[i];
  }
}

int64_t Oracle::Count(Value lo, Value hi) const {
  if (hi <= lo) return 0;
  const auto a = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  const auto b = std::lower_bound(a, sorted_.end(), hi);
  return b - a;
}

int64_t Oracle::Sum(Value lo, Value hi) const {
  if (hi <= lo) return 0;
  const auto a = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  const auto b = std::lower_bound(a, sorted_.end(), hi);
  return prefix_[static_cast<size_t>(b - sorted_.begin())] -
         prefix_[static_cast<size_t>(a - sorted_.begin())];
}

bool CheckAnswer(const scrack::Query& query, const scrack::QueryOutput& out,
                 const Expected& expected) {
  int64_t count = out.count;
  int64_t sum = out.sum;
  bool check_sum = query.mode == scrack::OutputMode::kSum;
  if (query.mode == scrack::OutputMode::kMaterialize) {
    count = out.result.count();
    sum = 0;
    bool in_range = true;
    out.result.ForEachSegment([&](const Value* data, scrack::Index len) {
      for (scrack::Index i = 0; i < len; ++i) {
        sum += data[i];
        in_range &= data[i] >= query.low && data[i] < query.high;
      }
    });
    if (!in_range) return false;
    check_sum = true;
  }
  if (count < expected.count_lo || count > expected.count_hi) return false;
  return !check_sum || (sum >= expected.sum_lo && sum <= expected.sum_hi);
}

}  // namespace perfbench
