// Decorators that time calls into one layer from outside it.
//
// TimedEngine sits between two SelectEngines (between EpochEngine and its
// inner cracking engine, or around the engine a StorageNode's InnerFactory
// builds); TimedTransport sits between the coordinator and TcpTransport.
// Both forward every call unchanged and only record spans while tracing is
// enabled, so the untraced run pays one virtual call and one relaxed load.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "cracking/engine.h"
#include "distributed/transport.h"
#include "trace.h"

namespace perfbench {

class TimedEngine : public scrack::SelectEngine {
 public:
  TimedEngine(std::unique_ptr<scrack::SelectEngine> inner, Layer layer,
              int node = -1)
      : inner_(std::move(inner)), layer_(layer), node_(node) {}

  scrack::Status Select(scrack::Value low, scrack::Value high,
                        scrack::QueryResult* result) override;
  scrack::Status Execute(const scrack::Query& query,
                         scrack::QueryOutput* output) override;
  scrack::Status ExecuteBatch(
      const std::vector<scrack::Query>& queries,
      std::vector<scrack::QueryOutput>* outputs) override;
  scrack::Status StageInsert(scrack::Value v) override;
  scrack::Status StageDelete(scrack::Value v) override;

  std::string name() const override { return inner_->name(); }
  scrack::EngineStats CurrentStats() const override {
    return inner_->CurrentStats();
  }
  scrack::Status Validate() const override { return inner_->Validate(); }
  const scrack::CrackerColumn* audit_column() const override {
    return inner_->audit_column();
  }

  /// Qualifying tuples returned by calls made while tracing.
  int64_t qualifying() const {
    return qualifying_.load(std::memory_order_relaxed);
  }

 private:
  void Count(int64_t n) {
    if (trace::Enabled()) qualifying_.fetch_add(n, std::memory_order_relaxed);
  }

  std::unique_ptr<scrack::SelectEngine> inner_;
  const Layer layer_;
  const int node_;
  std::atomic<int64_t> qualifying_{0};
};

class TimedTransport : public scrack::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<scrack::Transport> inner)
      : inner_(std::move(inner)) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  scrack::Status Call(int node, const std::vector<uint8_t>& request,
                      std::vector<uint8_t>* response) override;
  scrack::TransportCounters counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<scrack::Transport> inner_;
};

}  // namespace perfbench
