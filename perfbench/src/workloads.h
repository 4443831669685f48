// The benchmark's three workloads (see perfbench/METRICS.md for why each
// exists and which layer metrics should move which end-to-end metric).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;  ///< observations behind a percentile; 0 otherwise
};

struct WorkloadRun {
  std::string engine_spec;         ///< canonical EngineSpec::ToString()
  std::vector<Metric> metrics;     ///< end-to-end, or per-layer when traced
  Tally tally;                     ///< every op attempted, all phases
  std::vector<std::string> notes;  ///< human-readable detail lines
};

bool KnownWorkload(const std::string& name);

/// Runs `name` with inputs derived from `seed` for about `seconds`. Without
/// `trace` the metrics are the end-to-end ones; with it, an untraced and a
/// traced run share the time and the metrics are the per-layer ones.
WorkloadRun RunWorkload(const std::string& name, uint64_t seed,
                        double seconds, bool trace);

/// CPUs the process may run on: sched_getaffinity's CPU count.
int Nproc();

/// Pins the process to the last CPU it may run on and returns that CPU, or
/// -1 if it could not. Call it before any thread starts: threads inherit
/// the mask, so every thread of the run (clients, thread pool, node
/// servers) shares the one CPU.
int PinToOneCpu();

}  // namespace perfbench
