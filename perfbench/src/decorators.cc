#include "decorators.h"

namespace perfbench {

using scrack::Query;
using scrack::QueryOutput;
using scrack::QueryResult;
using scrack::Status;
using scrack::Value;

Status TimedEngine::Select(Value low, Value high, QueryResult* result) {
  Status status;
  {
    ScopedSpan span(layer_, node_);
    status = inner_->Select(low, high, result);
  }
  if (status.ok()) Count(result->count());
  return status;
}

Status TimedEngine::Execute(const Query& query, QueryOutput* output) {
  Status status;
  {
    ScopedSpan span(layer_, node_);
    status = inner_->Execute(query, output);
  }
  if (status.ok()) {
    Count(query.mode == scrack::OutputMode::kMaterialize
              ? output->result.count()
              : output->count);
  }
  return status;
}

Status TimedEngine::ExecuteBatch(const std::vector<Query>& queries,
                                 std::vector<QueryOutput>* outputs) {
  Status status;
  {
    ScopedSpan span(layer_, node_);
    status = inner_->ExecuteBatch(queries, outputs);
  }
  if (status.ok()) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const QueryOutput& out = (*outputs)[i];
      Count(queries[i].mode == scrack::OutputMode::kMaterialize
                ? out.result.count()
                : out.count);
    }
  }
  return status;
}

Status TimedEngine::StageInsert(Value v) {
  ScopedSpan span(layer_, node_);
  return inner_->StageInsert(v);
}

Status TimedEngine::StageDelete(Value v) {
  ScopedSpan span(layer_, node_);
  return inner_->StageDelete(v);
}

Status TimedTransport::Call(int node, const std::vector<uint8_t>& request,
                            std::vector<uint8_t>* response) {
  ScopedSpan span(Layer::kTransport, node,
                  reinterpret_cast<uintptr_t>(&request));
  return inner_->Call(node, request, response);
}

}  // namespace perfbench
