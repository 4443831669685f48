#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "trace.h"

namespace perfbench {

void Tally::Add(Outcome outcome) {
  ++ops;
  if (outcome == Outcome::kWrong) ++wrong;
  if (outcome == Outcome::kError) ++errors;
}

void Tally::Merge(const Tally& other) {
  ops += other.ops;
  wrong += other.wrong;
  errors += other.errors;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

namespace {

struct CycleAcc {
  std::vector<double> lat_us;
  double busy_s = 0;
  int64_t first_start_ns = INT64_MAX;
  int64_t last_end_ns = 0;
};

struct ThreadResult {
  Tally tally;
  std::vector<double> lat_us;  // open loop
  std::vector<double> lag_us;
  int64_t last_end_ns = 0;
  std::vector<CycleAcc> cycles;  // closed loop, indexed by cycle
};

// Long-lived client threads, reused by every closed loop and ladder step
// of the process, as a server's clients would be. Fresh threads per step
// would make each step re-allocate (and page-fault) the library's
// thread-local kernel scratch, a cost no long-running client pays.
class ClientThreads {
 public:
  ClientThreads() = default;
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;
  ~ClientThreads() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  // Runs body(t) for t in [0, n) on client threads t and waits for all.
  void Run(int n, const std::function<void(int)>& body) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (static_cast<int>(threads_.size()) < n) {
      const int t = static_cast<int>(threads_.size());
      threads_.emplace_back([this, t] { Loop(t); });
    }
    body_ = &body;
    active_ = n;
    pending_ = n;
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [&] { return pending_ == 0; });
    body_ = nullptr;
  }

 private:
  void Loop(int t) {
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // 1 us
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* body;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        if (t >= active_) continue;
        body = body_;
      }
      (*body)(t);
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mutex_;  // guards every member below but threads_' elements
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* body_ = nullptr;
  int active_ = 0;
  int pending_ = 0;
  uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

std::unique_ptr<ClientThreads>& Clients() {
  static std::unique_ptr<ClientThreads> clients;
  return clients;
}

template <typename Body>
std::vector<ThreadResult> RunThreads(int threads, const Body& body) {
  if (!Clients()) Clients() = std::make_unique<ClientThreads>();
  std::vector<ThreadResult> results(static_cast<size_t>(threads));
  Clients()->Run(threads, [&](int t) { body(t, &results[static_cast<size_t>(t)]); });
  return results;
}

}  // namespace

ClosedResult RunClosed(int threads, int64_t cycle, double seconds,
                       const OpFn& op, int64_t first) {
  // Tickets are claimed from `next`. To stop on a cycle boundary, the main
  // thread sets kStopBit and publishes the boundary: every ticket claimed
  // after that carries the bit, and its claimant waits for the boundary
  // before deciding whether to run it.
  constexpr int64_t kStopBit = int64_t{1} << 62;
  constexpr int64_t kUnset = -1;
  std::atomic<int64_t> next{seconds > 0 ? 0 : kStopBit};
  std::atomic<int64_t> stop_at{seconds > 0 ? kUnset : cycle};
  std::thread stopper;
  if (seconds > 0) {
    stopper = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      const int64_t handed_out = next.fetch_or(kStopBit) & ~kStopBit;
      const int64_t cycles = std::max<int64_t>(1, (handed_out + cycle - 1) / cycle);
      stop_at.store(cycles * cycle);
    });
  }
  std::vector<ThreadResult> results =
      RunThreads(threads, [&](int thread, ThreadResult* out) {
        for (;;) {
          int64_t t = next.fetch_add(1);
          if ((t & kStopBit) != 0) {
            t &= ~kStopBit;
            int64_t s;
            while ((s = stop_at.load()) == kUnset) std::this_thread::yield();
            if (t >= s) break;
          }
          const OpRecord r = op(first + t, thread);
          out->tally.Add(r.outcome);
          const auto c = static_cast<size_t>(t / cycle);
          if (out->cycles.size() <= c) out->cycles.resize(c + 1);
          CycleAcc& acc = out->cycles[c];
          acc.lat_us.push_back(1e-3 * static_cast<double>(r.end_ns - r.start_ns));
          acc.busy_s += 1e-9 * static_cast<double>(r.end_ns - r.start_ns);
          acc.first_start_ns = std::min(acc.first_start_ns, r.start_ns);
          acc.last_end_ns = std::max(acc.last_end_ns, r.end_ns);
        }
      });
  if (stopper.joinable()) stopper.join();

  ClosedResult closed;
  size_t cycles = 0;
  for (ThreadResult& r : results) {
    closed.tally.Merge(r.tally);
    cycles = std::max(cycles, r.cycles.size());
  }
  for (size_t c = 0; c < cycles; ++c) {
    CycleAcc all;
    for (ThreadResult& r : results) {
      if (c >= r.cycles.size()) continue;
      const CycleAcc& acc = r.cycles[c];
      all.lat_us.insert(all.lat_us.end(), acc.lat_us.begin(), acc.lat_us.end());
      all.busy_s += acc.busy_s;
      all.first_start_ns = std::min(all.first_start_ns, acc.first_start_ns);
      all.last_end_ns = std::max(all.last_end_ns, acc.last_end_ns);
    }
    Window w;
    w.ops = static_cast<int64_t>(all.lat_us.size());
    w.wall_s = 1e-9 * static_cast<double>(all.last_end_ns - all.first_start_ns);
    w.busy_s = all.busy_s;
    w.p50_us = Percentile(all.lat_us, 0.5);
    w.p99_us = Percentile(std::move(all.lat_us), 0.99);
    closed.windows.push_back(w);
  }
  return closed;
}

namespace {

StepResult RunOpenStep(int workers, double rate, int64_t requests,
                       const OpFn& op, int64_t first) {
  const double period_ns = 1e9 / rate;
  std::atomic<int64_t> next{0};
  const int64_t t0 = NowNs() + 2'000'000;  // let the workers start first
  auto due_of = [&](int64_t k) {
    return t0 + static_cast<int64_t>(static_cast<double>(k) * period_ns);
  };
  // A step far past capacity is cut off at 1.5x its schedule; the requests
  // it did not send count against its achieved rate.
  const int64_t give_up = t0 + (due_of(requests) - t0) * 3 / 2;
  std::vector<ThreadResult> results =
      RunThreads(workers, [&](int thread, ThreadResult* out) {
        for (;;) {
          const int64_t k = next.fetch_add(1);
          if (k >= requests || NowNs() > give_up) break;
          const int64_t due = due_of(k);
          if (NowNs() < due) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due)));
            out->lag_us.push_back(1e-3 * static_cast<double>(NowNs() - due));
          }
          const OpRecord r = op(first + k, thread);
          out->tally.Add(r.outcome);
          out->lat_us.push_back(1e-3 * static_cast<double>(r.end_ns - due));
          out->last_end_ns = std::max(out->last_end_ns, r.end_ns);
        }
      });
  StepResult step;
  step.rate = rate;
  int64_t last_end = t0;
  for (ThreadResult& r : results) {
    step.tally.Merge(r.tally);
    step.lat_us.insert(step.lat_us.end(), r.lat_us.begin(), r.lat_us.end());
    step.lag_us.insert(step.lag_us.end(), r.lag_us.begin(), r.lag_us.end());
    last_end = std::max(last_end, r.last_end_ns);
  }
  step.end_lag_us = 1e-3 * static_cast<double>(last_end - due_of(requests - 1));
  step.achieved = static_cast<double>(step.tally.ops) /
                  (1e-9 * static_cast<double>(last_end - t0));
  return step;
}

}  // namespace

void ReleaseClientThreads() { Clients().reset(); }

std::vector<double> GeometricRates(double first, int count) {
  std::vector<double> rates;
  for (int i = 0; i < count; ++i) rates.push_back(first * std::pow(2.0, i / 8.0));
  return rates;
}

LadderResult RunLadder(int workers, const LadderSpec& spec, const OpFn& op,
                       const std::function<int64_t()>& begin_step,
                       double start_rate) {
  constexpr int kReferenceRepeats = 3;  // the median of their p99s counts
  constexpr int kRungRepeats = 3;       // at most; stop once the majority is decided
  constexpr int kMaxProbes = 5;
  LadderResult ladder;
  // Runs rung `rung`; returns whether it meets the SLO and sets `achieved`
  // to the median achieved rate of its steps.
  auto run_rung = [&](size_t rung, double* achieved) {
    const double rate = spec.rates[rung];
    const int64_t requests = std::max<int64_t>(1000, std::llround(rate * spec.step_s));
    const int repeats = rung == 0 ? kReferenceRepeats : kRungRepeats;
    std::vector<double> p99, rates;
    int passed = 0;
    bool failed_ops = false;
    for (int r = 0; r < repeats; ++r) {
      const int64_t first = begin_step();
      ladder.steps.push_back(RunOpenStep(workers, rate, requests, op, first));
      const StepResult& step = ladder.steps.back();
      p99.push_back(step.p99_us());
      rates.push_back(step.achieved);
      failed_ops |= step.tally.failed() > 0;
      passed += step.p99_us() <= spec.limit_us && step.achieved >= 0.9 * rate;
      if (rung == 0) {
        ladder.reference_lag_us.insert(ladder.reference_lag_us.end(),
                                       step.lag_us.begin(), step.lag_us.end());
      } else if (2 * passed > repeats || 2 * (r + 1 - passed) > repeats) {
        break;
      }
    }
    if (rung == 0) {
      ladder.open_samples = requests;
      ladder.open_p99_us = Median(p99);
    }
    *achieved = Median(rates);
    return !failed_ops && 2 * passed > static_cast<int>(p99.size());
  };

  double achieved = 0;
  if (run_rung(0, &achieved)) ladder.slo_qps = achieved;
  size_t rung = 1;
  while (rung + 1 < spec.rates.size() && spec.rates[rung + 1] <= start_rate) ++rung;
  const bool up = run_rung(rung, &achieved);
  if (up) ladder.slo_qps = achieved;
  for (int probe = 1; probe < kMaxProbes; ++probe) {
    if (up ? rung + 1 == spec.rates.size() : rung == 1) break;
    rung = up ? rung + 1 : rung - 1;
    const bool pass = run_rung(rung, &achieved);
    if (pass) ladder.slo_qps = achieved;
    if (pass != up) break;
  }
  return ladder;
}

}  // namespace perfbench
