// Load generation: a closed loop over whole cycles of a fixed op stream, and
// an open-loop rate ladder driven by one arrival schedule.
//
// Discipline: all load comes from this process, from at most the number of
// threads the caller passes (the workloads pass at most nproc), and no
// thread spins. In the open loop, request k of a step is due at
// t0 + k / rate — a single schedule for the whole step. Workers claim the
// next request from one shared counter, sleep until it is due (1 us timer
// slack) and time it from its due time, so a stall delays every request
// scheduled behind it and shows in the latency. How late a worker woke for
// a request that was not yet due is the generator's own lag, reported
// separately.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

enum class Outcome : uint8_t { kCorrect, kWrong, kError };

/// One executed op: how it ended and when the call into the system started
/// and returned (answer checking happens after end_ns).
struct OpRecord {
  Outcome outcome = Outcome::kCorrect;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Executes op number `ticket` of a workload's stream and checks it.
using OpFn = std::function<OpRecord(int64_t ticket, int thread)>;

struct Tally {
  int64_t ops = 0;
  int64_t wrong = 0;
  int64_t errors = 0;  ///< errored or degraded answers
  void Add(Outcome outcome);
  void Merge(const Tally& other);
  int64_t failed() const { return wrong + errors; }
};

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// One cycle of a closed loop: its ops, from the first call to the last
/// completion.
struct Window {
  int64_t ops = 0;
  double wall_s = 0;
  double busy_s = 0;  ///< sum of per-op latencies
  double p50_us = 0;
  double p99_us = 0;
};

struct ClosedResult {
  Tally tally;
  std::vector<Window> windows;  ///< one per cycle
};

/// Runs `threads` closed-loop clients over tickets first, first + 1, ...
/// until `seconds` have passed, then finishes the current cycle, so exactly
/// a whole number (>= 1) of `cycle`-op cycles runs. seconds <= 0 runs one.
/// Each cycle is also summarized as a Window, so a run can report medians
/// over windows that a burst of interference from outside the process
/// cannot move.
ClosedResult RunClosed(int threads, int64_t cycle, double seconds,
                       const OpFn& op, int64_t first = 0);

struct StepResult {
  double rate = 0;       ///< scheduled requests per second
  double achieved = 0;   ///< completions per second over the step
  double end_lag_us = 0;  ///< last completion minus last scheduled send
  Tally tally;
  std::vector<double> lat_us;  ///< from each request's scheduled send
  std::vector<double> lag_us;  ///< generator wake-up lateness
  double p99_us() const { return Percentile(lat_us, 0.99); }
};

/// A fixed open-loop rate ladder: the reference rate, then ascending rungs
/// about 1.09x apart.
struct LadderSpec {
  std::vector<double> rates;  ///< rates[0] is the reference rate
  double step_s = 0;          ///< step length
  double limit_us = 0;        ///< p99 latency limit of the SLO
};

/// `count` rates from `first`, each 2^(1/8) (about 1.09) times the last.
std::vector<double> GeometricRates(double first, int count);

struct LadderResult {
  std::vector<StepResult> steps;  ///< every step run, reference steps first
  double slo_qps = 0;       ///< achieved rate of the highest passing rung;
                            ///< 0 when none passed
  double open_p99_us = 0;   ///< median over the reference steps of their p99
  int64_t open_samples = 0;  ///< requests behind each reference step's p99
  std::vector<double> reference_lag_us;  ///< generator lag, reference steps
};

/// Runs the reference rung (three steps), then searches the rungs above it
/// for the highest that meets the SLO, assuming a rung passes when every
/// lower one does. The search starts at the highest rung not above
/// `start_rate` (the closed-loop capacity just measured) and walks one rung
/// at a time, up while rungs pass and down while they miss, for at most
/// five rungs, so a rung that misses by chance costs one rung, not a jump.
/// A step meets the SLO when its p99 is within the limit and completions
/// keep up with arrivals (achieved at least 90% of the rate: no growing
/// backlog). A rung runs up to three steps and meets the SLO when most of
/// them do and no op failed, so one stall of the machine does not decide
/// it. `begin_step` runs untimed before each
/// step and returns its first ticket.
LadderResult RunLadder(int workers, const LadderSpec& spec, const OpFn& op,
                       const std::function<int64_t()>& begin_step,
                       double start_rate);

/// Ends the client threads (their thread-local library scratch with them);
/// the next loop starts fresh ones.
void ReleaseClientThreads();

}  // namespace perfbench
