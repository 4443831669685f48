#include "workloads.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "cracking/cracker_column.h"
#include "decorators.h"
#include "distributed/coordinator_engine.h"
#include "distributed/storage_node.h"
#include "distributed/tcp_server.h"
#include "distributed/tcp_transport.h"
#include "harness/engine_factory.h"
#include "harness/engine_spec.h"
#include "oracle.h"
#include "parallel/epoch_engine.h"
#include "trace.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {

using scrack::Column;
using scrack::CoordinatorEngine;
using scrack::CrackerIndex;
using scrack::EngineConfig;
using scrack::EngineStats;
using scrack::EpochEngine;
using scrack::Index;
using scrack::OutputMode;
using scrack::Query;
using scrack::QueryOutput;
using scrack::Rng;
using scrack::SelectEngine;
using scrack::Status;
using scrack::TransportCounters;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
  }
  return -1;
}

namespace {

// ------------------------------------------------------------ parameters --
//
// Fixed for every run, so two commits are measured on identical inputs.
// The open-loop latency limits are the ones BENCHMARK.json's workload
// lines state.

// Set-ups per run (setup_s is their median): at least kMinSetups, and
// more until kSetupSeconds of set-up has been timed.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
constexpr double kClosedShare = 0.5;  // of a traced run; the ladder gets the rest
constexpr int kRungs = 31;            // rungs above the reference, 1.09x apart
constexpr int kLadderSteps = 10;      // a typical ladder's steps; sets step_s

// A fixed ladder: the reference rate, then kRungs rates from `first`.
LadderSpec Ladder(double reference, double first, double limit_us) {
  LadderSpec spec;
  spec.rates = GeometricRates(first, kRungs);
  spec.rates.insert(spec.rates.begin(), reference);
  spec.limit_us = limit_us;
  return spec;
}

// adapt-seq: the paper's Sequential pattern (Fig. 2) on mdd1r from a fresh
// column. Base plus cracker copy = 160 MB, above a 105 MiB LLC.
constexpr Index kSeqN = 10'000'000;
constexpr scrack::QueryId kSeqQ = 10'000;
constexpr double kSeqPassSeconds = 1.0;  // nominal; fixes the pass count

// serve-mix: epoch(crack) from a fresh column whose working set (16 MB
// base + 16 MB copy) fits the LLC. Query bounds lie on a grid of kMixCells
// cells, 80% of them in a hot fifth of the domain. The closed loop runs
// sessions of kMixSessionCycles cycles, each on a fresh column: its first
// cycle pays the first-touch copy and the first cracks (the cold phase).
constexpr Index kMixN = Index{1} << 21;
constexpr int kMixCells = 2048;
constexpr int64_t kMixCycle = int64_t{1} << 16;
constexpr int kMixSessionCycles = 2;
// Each session runs its own op stream (its own hot fifth, widths and
// writes): session j runs stream j % kMixStreams. The per-session p99 of
// one stream differs from another's by up to 1.3x (it lies in the steep
// tail of the wide kSum scans), so with one stream replayed, or a few long
// sessions, p99_us spread 0.2-0.34 over ten seeds. With two-cycle sessions
// a 30 s run has some thirty windows and runs every stream.
constexpr int kMixStreams = 16;
const LadderSpec kMixLadder = Ladder(25'000, 50'000, 50'000);

// dist-tcp: coord(4,epoch(crack)) over loopback TCP, read-only narrow ranges
// on a grid the warm-up pass cracks completely.
constexpr Index kDistN = Index{1} << 20;
constexpr int kDistNodes = 4;
constexpr int kDistCells = 4096;
constexpr int64_t kDistCycle = int64_t{1} << 13;
const LadderSpec kDistLadder = Ladder(2'500, 5'000, 50'000);

// Largest |accounted - 1| for which the traced per-layer self times are
// said to account for the untraced p50 op latency (see PerLayer).
constexpr double kAccountingTolerance = 0.25;

// ---------------------------------------------------------------- helpers --

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

std::string Fmt(const char* format, double a, double b = 0, double c = 0,
                double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

std::string CanonicalSpec(const std::string& spec) {
  scrack::EngineSpec parsed;
  const Status status = scrack::EngineSpec::Parse(spec, &parsed);
  if (!status.ok()) Die("spec " + spec, status);
  return parsed.ToString();
}

std::unique_ptr<SelectEngine> MakeEngine(const std::string& spec,
                                         const Column* base,
                                         const EngineConfig& config) {
  std::unique_ptr<SelectEngine> engine;
  const Status status = scrack::CreateEngine(spec, base, config, &engine);
  if (!status.ok()) Die("engine " + spec, status);
  return engine;
}

#define PERFBENCH_STATS(X)                                                \
  X(queries) X(tuples_touched) X(swaps) X(cracks) X(materialized)         \
  X(updates_merged) X(random_pivots) X(shared_reads) X(exclusive_cracks)  \
  X(escalations) X(fan_outs) X(nodes_pruned) X(wire_bytes)

void AddStats(EngineStats* into, const EngineStats& add, int64_t sign = 1) {
#define PERFBENCH_ADD(f) into->f += sign * add.f;
  PERFBENCH_STATS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
}

// Median over batches of 64 lookups of the per-lookup FindPiece time.
double FindPieceNs(const std::vector<std::pair<const CrackerIndex*, Value>>& probes) {
  constexpr size_t kBatch = 64;
  std::vector<double> per_lookup;
  Index sink = 0;
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i + kBatch <= probes.size(); i += kBatch) {
      const int64_t start = NowNs();
      for (size_t j = i; j < i + kBatch; ++j) {
        sink += probes[j].first->FindPiece(probes[j].second).begin;
      }
      per_lookup.push_back(static_cast<double>(NowNs() - start) / kBatch);
    }
  }
  static std::atomic<Index> g_sink{0};
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return Median(per_lookup);
}

// Counts and sums of the base per grid-cell prefix: cell c covers values
// [c * width, (c + 1) * width).
struct GridOracle {
  Value width = 1;
  std::vector<int64_t> count, sum;  // prefix over cells, size cells + 1
  GridOracle(const Oracle& oracle, int cells, Value cell_width)
      : width(cell_width), count(cells + 1), sum(cells + 1) {
    for (int c = 0; c <= cells; ++c) {
      count[c] = oracle.Count(0, c * cell_width);
      sum[c] = oracle.Sum(0, c * cell_width);
    }
  }
};

// -------------------------------------------------------------- one phase --

// Everything one run of a workload measured. A traced run alternates
// untraced and traced windows (passes, sessions or cycles), so both see the
// same stretch of the host's speed; the per-layer inputs cover the traced
// windows only.
struct Phase {
  std::vector<double> setup_s;
  ClosedResult closed;  // untraced windows
  double qps = 0;
  ClosedResult traced;  // traced windows
  double traced_qps = 0;
  LadderResult ladder;
  double peak_heap_mb = 0;
  Tally tally;

  TraceAnalysis trace;
  EngineStats column, epoch, coord;
  TransportCounters transport;
  int64_t column_qualifying = 0;
  int nodes = 0;
  int64_t index_cracks = 0;
  double find_ns = 0;
  Layer epoch_layer = Layer::kEpoch;  // spans whose self time is epoch's
  std::string detail;
};

void MergeClosed(const ClosedResult& r, ClosedResult* into) {
  into->tally.Merge(r.tally);
  into->windows.insert(into->windows.end(), r.windows.begin(), r.windows.end());
}

// Whether window i of a run is traced: every other one of a traced run.
bool TracedWindow(bool traced, int64_t i) { return traced && i % 2 == 1; }

// Median over closed-loop windows of a per-window statistic.
template <typename Fn>
double WindowMedian(const ClosedResult& closed, const Fn& fn) {
  std::vector<double> values;
  for (const Window& w : closed.windows) values.push_back(fn(w));
  return Median(values);
}

// Completed ops per second of wall time (per second of summed response
// time when `cumulative`, the paper's cumulative-response-time measure),
// as the median over windows.
double ClosedQps(const ClosedResult& closed, bool cumulative) {
  return WindowMedian(closed, [&](const Window& w) {
    return static_cast<double>(w.ops) / (cumulative ? w.busy_s : w.wall_s);
  });
}

double ClosedP50(const ClosedResult& closed) {
  return WindowMedian(closed, [](const Window& w) { return w.p50_us; });
}

// Runs a ladder whose search starts at the closed-loop qps, with steps of
// `seconds` / kLadderSteps: a typical ladder (the reference steps, two or
// three rungs of two or three steps) takes about `seconds`; the longest
// (every probe at three steps, each cut off at 1.5x its schedule) takes
// under three times that.
void RunTimedLadder(int workers, LadderSpec spec, double seconds, const OpFn& op,
                    int64_t first_ticket, Phase* p) {
  spec.step_s = seconds / kLadderSteps;
  p->ladder = RunLadder(workers, spec, op, [&] {
    const int64_t first = first_ticket;
    first_ticket += int64_t{1} << 24;
    return first;
  }, p->qps);
}

void FinishLadder(Phase* p) {
  for (const StepResult& step : p->ladder.steps) p->tally.Merge(step.tally);
}

// Runs `teardown` then `setup` (which times its own work and returns the
// seconds) kMinSetups or more times; see kSetupSeconds.
template <typename Teardown, typename Setup>
std::vector<double> RepeatSetup(const Teardown& teardown, const Setup& setup) {
  std::vector<double> times;
  double total = 0;
  while (static_cast<int>(times.size()) < kMinSetups ||
         (total < kSetupSeconds && static_cast<int>(times.size()) < kMaxSetups)) {
    teardown();
    times.push_back(setup());
    total += times.back();
  }
  return times;
}

// Live heap: bytes allocated and not yet freed, in MiB. Workloads sample it
// after set-up and after the first cycle of the stream, which is where the
// program makes its copies (cracker column, node slices, index). The client
// threads are ended first: their thread-local kernel scratch depends on
// which thread happened to crack what. Resident memory (VmRSS) is not used:
// how much freed memory glibc keeps resident varies by 20 MB from run to
// run on serve-mix, with the live heap unchanged.
double LiveHeapMb() {
  ReleaseClientThreads();
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// Closed-loop clients of serve-mix and dist-tcp. One client on one CPU
// (main pins the process before any thread starts): on the shared VM of
// METRICS.md, clients on several vCPUs made serve-mix's qps swing from 66k
// to 152k from run to run and dist-tcp's from 5k to 22k, because a
// descheduled vCPU holding the epoch writer lock, or owing a TCP wakeup,
// stalls every other thread. That measures the host's scheduler, not the
// program; on one CPU their qps spread 0.04-0.11 over ten seeds.
constexpr int kClients = 1;

// Engine seed of pass or session j of a run with `seed`.
uint64_t SubSeed(uint64_t seed, int j) {
  return seed + static_cast<uint64_t>(j + 1) * 0x9E3779B97F4A7C15ULL;
}

// ----------------------------------------------------------- adapt-seq ----

struct SeqInputs {
  uint64_t seed;
  Oracle oracle;
  std::vector<scrack::RangeQuery> stream;
};

Phase RunAdaptSeq(const SeqInputs& in, double seconds, bool traced) {
  Phase p;
  EngineConfig config = EngineConfig::Detected();
  config.seed = in.seed;
  std::unique_ptr<Column> base;
  std::unique_ptr<TimedEngine> engine;
  auto fresh_engine = [&](uint64_t engine_seed) {
    engine.reset();
    config.seed = engine_seed;
    engine = std::make_unique<TimedEngine>(MakeEngine("mdd1r", base.get(), config),
                                           Layer::kColumn);
  };

  const double heap0_mb = LiveHeapMb();
  p.setup_s = RepeatSetup([&] {
    engine.reset();
    base.reset();
  }, [&] {
    const int64_t start = NowNs();
    base = std::make_unique<Column>(Column::UniquePermutation(kSeqN, in.seed));
    fresh_engine(SubSeed(in.seed, 0));
    return 1e-9 * static_cast<double>(NowNs() - start);
  });
  const double setup_heap_mb = LiveHeapMb();

  const OpFn op = [&](int64_t k, int) {
    const scrack::RangeQuery& rq = in.stream[static_cast<size_t>(k % kSeqQ)];
    const Query query{rq.low, rq.high, OutputMode::kMaterialize};
    QueryOutput out;
    trace::SetOp(k);
    OpRecord rec;
    rec.start_ns = NowNs();
    const Status status = engine->Execute(query, &out);
    rec.end_ns = NowNs();
    if (!status.ok()) {
      rec.outcome = Outcome::kError;
      return rec;
    }
    Expected e;
    e.count_lo = e.count_hi = in.oracle.Count(rq.low, rq.high);
    e.sum_lo = e.sum_hi = in.oracle.Sum(rq.low, rq.high);
    rec.outcome = CheckAnswer(query, out, e) ? Outcome::kCorrect : Outcome::kWrong;
    return rec;
  };

  // Closed loop: whole passes of the stream, each on a fresh column (the
  // first-touch copy is part of every pass, as for every user of a fresh
  // column) with its own engine seed, so one run averages over several
  // random-pivot sequences. The pass count follows from --seconds alone,
  // which keeps the traced work counts identical from run to run.
  // qps = Q / cumulative response time.
  const int passes =
      std::max(traced ? 4 : 2, static_cast<int>(seconds / kSeqPassSeconds));
  for (int pass = 0; pass < passes; ++pass) {
    if (pass > 0) fresh_engine(SubSeed(in.seed, pass));
    const bool on = TracedWindow(traced, pass);
    trace::SetEnabled(on);
    MergeClosed(RunClosed(1, kSeqQ, 0, op), on ? &p.traced : &p.closed);
    trace::SetEnabled(false);
    if (pass == 0) p.peak_heap_mb = std::max(setup_heap_mb, LiveHeapMb()) - heap0_mb;
    if (on) {
      AddStats(&p.column, engine->CurrentStats());
      p.column_qualifying += engine->qualifying();
    }
  }
  p.qps = ClosedQps(p.closed, /*cumulative=*/true);
  p.tally.Merge(p.closed.tally);
  if (traced) {
    p.traced_qps = ClosedQps(p.traced, /*cumulative=*/true);
    p.tally.Merge(p.traced.tally);
    p.trace = Analyze(trace::Gather());
    trace::Clear();
    const CrackerIndex& index = engine->audit_column()->index();
    p.index_cracks = static_cast<int64_t>(index.num_cracks());
    std::vector<std::pair<const CrackerIndex*, Value>> probes;
    for (const scrack::RangeQuery& rq : in.stream) {
      probes.emplace_back(&index, rq.low);
      probes.emplace_back(&index, rq.high);
    }
    p.find_ns = FindPieceNs(probes);
  }
  p.detail = "N=" + std::to_string(kSeqN) + " Q=" + std::to_string(kSeqQ) +
             " passes=" + std::to_string(passes) + " clients=1";
  return p;
}

// ----------------------------------------------------------- serve-mix ----

enum class MixKind : uint8_t { kCount, kSum, kMaterialize, kInsert, kDelete };

struct MixOp {
  MixKind kind;
  int32_t lo_cell, hi_cell;  // reads: [lo_cell, hi_cell) in grid cells
  Value value;               // inserts (and deletes with nothing to delete)
};

struct MixInputs {
  uint64_t seed;
  GridOracle grid;
  int64_t base_count, base_sum;
  std::vector<std::vector<MixOp>> streams;  // kMixStreams of them
};

// The proportions (op mix, hot fifth, widths) are assumptions that give the
// workload's qualitative mix fixed numbers, not measurements of real
// traffic; see METRICS.md.
std::vector<MixOp> MakeMixStream(uint64_t seed) {
  Rng rng(seed ^ 0x5e77e5a11ULL);
  constexpr int kHotCells = kMixCells / 5;
  const auto hot_begin = static_cast<int32_t>(rng.Uniform(kMixCells - kHotCells));
  auto cell = [&] {
    return static_cast<int32_t>(rng.Coin(0.8) ? hot_begin + rng.Uniform(kHotCells)
                                              : rng.Uniform(kMixCells));
  };
  const Value width = kMixN / kMixCells;
  std::vector<MixOp> ops;
  ops.reserve(kMixCycle);
  for (int64_t i = 0; i < kMixCycle; ++i) {
    const uint64_t roll = rng.Uniform(100);
    MixOp op{};
    op.kind = roll < 45   ? MixKind::kCount
              : roll < 88 ? MixKind::kSum
              : roll < 96 ? MixKind::kMaterialize
              : roll < 98 ? MixKind::kInsert
                          : MixKind::kDelete;
    const int32_t max_width = op.kind == MixKind::kMaterialize ? 2 : 32;
    op.lo_cell = cell();
    op.hi_cell = std::min<int32_t>(
        kMixCells, op.lo_cell + 1 + static_cast<int32_t>(rng.Uniform(max_width)));
    op.value = cell() * width + static_cast<Value>(rng.Uniform(width));
    ops.push_back(op);
  }
  return ops;
}

// The benchmark's record of staged writes, in the order they were staged.
// Writes are serialized by `mutex` (they serialize on the engine's writer
// lock anyway); readers never take it. An entry is written before
// `started` is published, and `done` is published after the engine call
// returned, so a read that saw done == a before it started and
// started == b after it returned must include writes [0, a), may include
// [a, b) and cannot include the rest.
class WriteLog {
 public:
  struct Entry {
    Value value;
    int64_t delta;  // +1 insert, -1 delete
  };

  std::mutex mutex;
  std::deque<Value> live;  // inserted values not yet deleted, oldest first
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> done{0};

  // Appends under `mutex`.
  void Append(Entry e) {
    const int64_t i = started.load(std::memory_order_relaxed);
    const size_t chunk = static_cast<size_t>(i >> kShift);
    if (chunk >= kMaxChunks) {
      std::fprintf(stderr, "perfbench: write log full\n");
      std::exit(2);
    }
    if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<Entry[]>(size_t{1} << kShift);
    At(i) = e;
    started.store(i + 1, std::memory_order_release);
  }
  Entry& At(int64_t i) { return chunks_[i >> kShift][i & ((int64_t{1} << kShift) - 1)]; }

 private:
  static constexpr int kShift = 12;
  static constexpr size_t kMaxChunks = 4096;
  std::unique_ptr<Entry[]> chunks_[kMaxChunks];
};

// One reader thread's view of the writes certainly visible to it: a
// Fenwick tree over grid cells of count and sum deltas.
class ReaderView {
 public:
  ReaderView() : count_(kMixCells + 1), sum_(kMixCells + 1) {}

  void Advance(WriteLog* log, int64_t upto, Value width) {
    for (; applied_ < upto; ++applied_) {
      const WriteLog::Entry& e = log->At(applied_);
      for (auto c = static_cast<size_t>(e.value / width) + 1; c <= kMixCells;
           c += c & (~c + 1)) {
        count_[c] += e.delta;
        sum_[c] += e.delta * e.value;
      }
    }
  }
  // Deltas in cells [0, cell).
  std::pair<int64_t, int64_t> Prefix(int cell) const {
    int64_t count = 0, sum = 0;
    for (auto c = static_cast<size_t>(cell); c > 0; c -= c & (~c + 1)) {
      count += count_[c];
      sum += sum_[c];
    }
    return {count, sum};
  }

 private:
  int64_t applied_ = 0;
  std::vector<int64_t> count_, sum_;
};

Phase RunServeMix(const MixInputs& in, double seconds, bool traced) {
  Phase p;
  const int threads = kClients;
  const Value width = in.grid.width;
  EngineConfig config = EngineConfig::Detected();
  config.seed = in.seed;
  std::unique_ptr<Column> base;
  std::unique_ptr<SelectEngine> epoch;
  TimedEngine* column = nullptr;
  std::unique_ptr<WriteLog> log;  // the writes staged into `epoch`
  std::vector<ReaderView> views;
  // A fresh column over `base`: a new engine, write log and reader views.
  auto fresh_engine = [&] {
    epoch.reset();
    auto timed = std::make_unique<TimedEngine>(MakeEngine("crack", base.get(), config),
                                               Layer::kColumn);
    column = timed.get();
    epoch = std::make_unique<EpochEngine>(std::move(timed));
    log = std::make_unique<WriteLog>();
    views.assign(static_cast<size_t>(threads), ReaderView());
  };

  const double heap0_mb = LiveHeapMb();
  p.setup_s = RepeatSetup([&] {
    epoch.reset();
    base.reset();
  }, [&] {
    const int64_t start = NowNs();
    base = std::make_unique<Column>(Column::UniquePermutation(kMixN, in.seed));
    fresh_engine();
    return 1e-9 * static_cast<double>(NowNs() - start);
  });
  const double setup_heap_mb = LiveHeapMb();

  const std::vector<MixOp>* stream = &in.streams[0];  // the session's
  const OpFn op = [&](int64_t k, int thread) {
    const MixOp& m = (*stream)[static_cast<size_t>(k % kMixCycle)];
    trace::SetOp(k);
    OpRecord rec;
    if (m.kind == MixKind::kInsert || m.kind == MixKind::kDelete) {
      // Timed from before the benchmark's write lock: a write waiting
      // behind another one would wait on the engine's writer lock anyway.
      rec.start_ns = NowNs();
      ScopedSpan root(Layer::kStorage);
      std::lock_guard<std::mutex> lock(log->mutex);
      const bool del = m.kind == MixKind::kDelete && !log->live.empty();
      const Value v = del ? log->live.front() : m.value;
      if (del) log->live.pop_front();
      log->Append({v, del ? -1 : 1});
      const Status status = del ? epoch->StageDelete(v) : epoch->StageInsert(v);
      rec.end_ns = NowNs();
      log->done.store(log->started.load(std::memory_order_relaxed),
                      std::memory_order_release);
      if (!del) log->live.push_back(v);
      rec.outcome = status.ok() ? Outcome::kCorrect : Outcome::kError;
      return rec;
    }
    ReaderView& view = views[static_cast<size_t>(thread)];
    const int64_t before = log->done.load(std::memory_order_acquire);
    view.Advance(log.get(), before, width);
    const Query query{m.lo_cell * width, m.hi_cell * width,
                      m.kind == MixKind::kCount ? OutputMode::kCount
                      : m.kind == MixKind::kSum ? OutputMode::kSum
                                                : OutputMode::kMaterialize};
    QueryOutput out;
    Status status;
    rec.start_ns = NowNs();
    {
      ScopedSpan root(Layer::kEpoch);
      status = epoch->Execute(query, &out);
    }
    rec.end_ns = NowNs();
    const int64_t after = log->started.load(std::memory_order_acquire);
    if (!status.ok()) {
      rec.outcome = Outcome::kError;
      return rec;
    }
    const auto [hi_count, hi_sum] = view.Prefix(m.hi_cell);
    const auto [lo_count, lo_sum] = view.Prefix(m.lo_cell);
    Expected e;
    e.count_lo = e.count_hi = in.grid.count[m.hi_cell] - in.grid.count[m.lo_cell] +
                              hi_count - lo_count;
    e.sum_lo = e.sum_hi = in.grid.sum[m.hi_cell] - in.grid.sum[m.lo_cell] + hi_sum - lo_sum;
    for (int64_t i = before; i < after; ++i) {
      const WriteLog::Entry& w = log->At(i);
      if (w.value < query.low || w.value >= query.high) continue;
      (w.delta > 0 ? e.count_hi : e.count_lo) += w.delta;
      (w.delta > 0 ? e.sum_hi : e.sum_lo) += w.delta * w.value;
    }
    rec.outcome = CheckAnswer(query, out, e) ? Outcome::kCorrect : Outcome::kWrong;
    return rec;
  };

  // Quiesced full-range check: every staged write is now certain.
  int64_t writes = 0;
  auto check_quiesced = [&] {
    int64_t count = in.base_count;
    int64_t sum = in.base_sum;
    writes += log->started.load();
    for (int64_t i = 0; i < log->started.load(); ++i) {
      count += log->At(i).delta;
      sum += log->At(i).delta * log->At(i).value;
    }
    for (OutputMode mode : {OutputMode::kCount, OutputMode::kSum}) {
      const Query query{0, kMixN, mode};
      QueryOutput out;
      const Status status = epoch->Execute(query, &out);
      const Expected e{count, count, sum, sum};
      p.tally.Add(!status.ok()                  ? Outcome::kError
                  : CheckAnswer(query, out, e) ? Outcome::kCorrect
                                                : Outcome::kWrong);
    }
  };

  // Closed loop: sessions of kMixSessionCycles cycles, each on a fresh
  // column with its own stream, until the closed-loop share of `seconds`
  // has passed. Each session is one window, so qps, p50_us and p99_us include its cold
  // cycle. The live heap is sampled after the first session.
  const double closed_s = seconds * (traced ? kClosedShare : 1.0);
  const int64_t session_ops = kMixCycle * kMixSessionCycles;
  const int64_t start = NowNs();
  int sessions = 0;
  for (; sessions < (traced ? 2 : 1) ||
         1e-9 * static_cast<double>(NowNs() - start) < closed_s;
       ++sessions) {
    if (sessions > 0) {
      check_quiesced();
      fresh_engine();
    }
    stream = &in.streams[static_cast<size_t>(sessions % kMixStreams)];
    const bool on = TracedWindow(traced, sessions);
    trace::SetEnabled(on);
    MergeClosed(RunClosed(threads, session_ops, 0, op, sessions * session_ops),
                on ? &p.traced : &p.closed);
    trace::SetEnabled(false);
    if (sessions == 0) p.peak_heap_mb = std::max(setup_heap_mb, LiveHeapMb()) - heap0_mb;
    if (on) {
      AddStats(&p.epoch, epoch->CurrentStats());
      AddStats(&p.column, column->CurrentStats());
      p.column_qualifying += column->qualifying();
    }
  }
  p.qps = ClosedQps(p.closed, /*cumulative=*/false);
  p.tally.Merge(p.closed.tally);

  if (traced) {
    p.traced_qps = ClosedQps(p.traced, /*cumulative=*/false);
    p.tally.Merge(p.traced.tally);
    p.trace = Analyze(trace::Gather());
    trace::Clear();
    const CrackerIndex& index = column->audit_column()->index();
    p.index_cracks = static_cast<int64_t>(index.num_cracks());
    std::vector<std::pair<const CrackerIndex*, Value>> probes;
    for (const MixOp& m : *stream) {
      if (m.kind == MixKind::kInsert || m.kind == MixKind::kDelete) continue;
      probes.emplace_back(&index, m.lo_cell * width);
      probes.emplace_back(&index, m.hi_cell * width);
    }
    p.find_ns = FindPieceNs(probes);
  }
  if (traced) {
    // On the last session's column and stream, now warm.
    RunTimedLadder(threads, kMixLadder, seconds * (1 - kClosedShare), op,
                   sessions * session_ops, &p);
    FinishLadder(&p);
  }
  check_quiesced();
  p.detail = "N=" + std::to_string(kMixN) + " cells=" + std::to_string(kMixCells) +
             " cycle=" + std::to_string(kMixCycle) + " sessions=" +
             std::to_string(sessions) + "x" + std::to_string(kMixSessionCycles) +
             " cycles clients=" + std::to_string(threads) +
             " writes=" + std::to_string(writes);
  return p;
}

// ------------------------------------------------------------ dist-tcp ----

// K storage nodes behind TcpNodeServers on loopback, and the coordinator
// over a timed TcpTransport. Members are destroyed coordinator first, so
// its connections close before the servers drain.
struct Cluster {
  std::vector<std::unique_ptr<scrack::StorageNode>> nodes;
  std::vector<std::unique_ptr<scrack::TcpNodeServer>> servers;
  std::vector<TimedEngine*> node_engines;    // owned by nodes
  std::vector<TimedEngine*> column_engines;  // owned by node_engines
  std::vector<Value> lowers;
  std::unique_ptr<SelectEngine> coord;
};

struct DistInputs {
  uint64_t seed;
  Oracle oracle;
  std::vector<Query> stream;
};

// 50% kCount, 40% kSum, 10% kMaterialize over 1-4 cells: assumed, like
// serve-mix's proportions.
std::vector<Query> MakeDistStream(uint64_t seed) {
  Rng rng(seed ^ 0xd157cafeULL);
  const Value width = kDistN / kDistCells;
  std::vector<Query> queries;
  for (int64_t i = 0; i < kDistCycle; ++i) {
    const uint64_t roll = rng.Uniform(100);
    const auto lo = static_cast<Value>(rng.Uniform(kDistCells));
    const Value hi = std::min<Value>(kDistCells, lo + 1 + static_cast<Value>(rng.Uniform(4)));
    queries.push_back(Query{lo * width, hi * width,
                            roll < 50   ? OutputMode::kCount
                            : roll < 90 ? OutputMode::kSum
                                        : OutputMode::kMaterialize});
  }
  return queries;
}

std::unique_ptr<Cluster> StartCluster(const Column& base, uint64_t seed,
                                      const Oracle& oracle, Tally* tally) {
  auto cl = std::make_unique<Cluster>();
  cl->lowers = CoordinatorEngine::ComputeLowers(base, kDistNodes);
  if (static_cast<int>(cl->lowers.size()) != kDistNodes) {
    Die("dist-tcp", Status::Internal("node boundaries collapsed"));
  }
  std::vector<std::vector<Value>> slices = CoordinatorEngine::DealSlices(base, cl->lowers);
  std::vector<scrack::TcpEndpoint> endpoints;
  for (int i = 0; i < kDistNodes; ++i) {
    EngineConfig config = EngineConfig::Detected();
    config.seed = seed + static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
    std::unique_ptr<scrack::StorageNode> node;
    Status status = scrack::StorageNode::Create(
        Column(std::move(slices[static_cast<size_t>(i)])), i,
        [&](const Column* node_base, int index, std::unique_ptr<SelectEngine>* out) {
          std::unique_ptr<SelectEngine> crack;
          SCRACK_RETURN_NOT_OK(scrack::CreateEngine("crack", node_base, config, &crack));
          auto column = std::make_unique<TimedEngine>(std::move(crack), Layer::kColumn, index);
          cl->column_engines.push_back(column.get());
          auto engine = std::make_unique<TimedEngine>(
              std::make_unique<EpochEngine>(std::move(column)), Layer::kNode, index);
          cl->node_engines.push_back(engine.get());
          *out = std::move(engine);
          return Status::OK();
        },
        &node);
    if (!status.ok()) Die("dist-tcp node", status);
    auto server = std::make_unique<scrack::TcpNodeServer>();
    status = server->Start(node.get(), 0);
    if (!status.ok()) Die("dist-tcp server", status);
    endpoints.push_back(scrack::TcpEndpoint{"127.0.0.1", server->port()});
    cl->nodes.push_back(std::move(node));
    cl->servers.push_back(std::move(server));
  }
  const Status status = CoordinatorEngine::CreateOverTransport(
      cl->lowers,
      std::make_unique<TimedTransport>(std::make_unique<scrack::TcpTransport>(
          endpoints, scrack::TcpTransportOptions{})),
      "epoch(crack)", kDistNodes, &cl->coord);
  if (!status.ok()) Die("dist-tcp coordinator", status);

  // Warm-up: one query per grid cell cracks every bound the stream uses,
  // on every node, so the timed queries reorganize nothing.
  const Value width = kDistN / kDistCells;
  for (Value c = 0; c < kDistCells; ++c) {
    const Query query{c * width, (c + 1) * width, OutputMode::kCount};
    QueryOutput out;
    const Status s = cl->coord->Execute(query, &out);
    const int64_t n = oracle.Count(query.low, query.high);
    tally->Add(!s.ok() || out.degraded_nodes > 0 ? Outcome::kError
               : CheckAnswer(query, out, Expected{n, n, 0, 0}) ? Outcome::kCorrect
                                                                : Outcome::kWrong);
  }
  return cl;
}

Phase RunDistTcp(const DistInputs& in, double seconds, bool traced) {
  Phase p;
  p.nodes = kDistNodes;
  p.epoch_layer = Layer::kNode;
  const int threads = kClients;
  std::unique_ptr<Column> base;
  std::unique_ptr<Cluster> cl;

  const double heap0_mb = LiveHeapMb();
  p.setup_s = RepeatSetup([&] {
    cl.reset();
    base.reset();
  }, [&] {
    const int64_t start = NowNs();
    base = std::make_unique<Column>(Column::UniquePermutation(kDistN, in.seed));
    cl = StartCluster(*base, in.seed, in.oracle, &p.tally);
    return 1e-9 * static_cast<double>(NowNs() - start);
  });
  const double setup_heap_mb = LiveHeapMb();

  const OpFn op = [&](int64_t k, int) {
    const Query& query = in.stream[static_cast<size_t>(k % kDistCycle)];
    QueryOutput out;
    trace::SetOp(k);
    OpRecord rec;
    Status status;
    rec.start_ns = NowNs();
    {
      ScopedSpan root(Layer::kCoord);
      status = cl->coord->Execute(query, &out);
    }
    rec.end_ns = NowNs();
    if (!status.ok() || out.degraded_nodes > 0) {
      rec.outcome = Outcome::kError;
      return rec;
    }
    Expected e;
    e.count_lo = e.count_hi = in.oracle.Count(query.low, query.high);
    e.sum_lo = e.sum_hi = in.oracle.Sum(query.low, query.high);
    rec.outcome = CheckAnswer(query, out, e) ? Outcome::kCorrect : Outcome::kWrong;
    return rec;
  };

  auto snapshot = [&](int64_t sign) {
    AddStats(&p.coord, cl->coord->CurrentStats(), sign);
    const TransportCounters t =
        static_cast<CoordinatorEngine*>(cl->coord.get())->transport()->counters();
    p.transport.timeouts += sign * t.timeouts;
    p.transport.reconnects += sign * t.reconnects;
    p.transport.retries += sign * t.retries;
    for (int i = 0; i < kDistNodes; ++i) {
      AddStats(&p.epoch, cl->node_engines[i]->CurrentStats(), sign);
      AddStats(&p.column, cl->column_engines[i]->CurrentStats(), sign);
      p.column_qualifying += sign * cl->column_engines[i]->qualifying();
    }
  };
  // Closed loop: whole cycles until the closed-loop share of `seconds` has
  // passed. The live heap is sampled after the first cycle.
  const double closed_s = seconds * (traced ? kClosedShare : 1.0);
  const int64_t start = NowNs();
  for (int64_t i = 0;
       i < (traced ? 2 : 1) || 1e-9 * static_cast<double>(NowNs() - start) < closed_s;
       ++i) {
    const bool on = TracedWindow(traced, i);
    if (on) snapshot(-1);
    trace::SetEnabled(on);
    MergeClosed(RunClosed(threads, kDistCycle, 0, op, i * kDistCycle),
                on ? &p.traced : &p.closed);
    trace::SetEnabled(false);
    if (on) snapshot(+1);
    if (i == 0) p.peak_heap_mb = std::max(setup_heap_mb, LiveHeapMb()) - heap0_mb;
  }
  p.qps = ClosedQps(p.closed, /*cumulative=*/false);
  p.tally.Merge(p.closed.tally);

  if (traced) {
    p.traced_qps = ClosedQps(p.traced, /*cumulative=*/false);
    p.tally.Merge(p.traced.tally);
    p.trace = Analyze(trace::Gather());
    trace::Clear();
    std::vector<std::pair<const CrackerIndex*, Value>> probes;
    for (int i = 0; i < kDistNodes; ++i) {
      p.index_cracks += static_cast<int64_t>(
          cl->column_engines[i]->audit_column()->index().num_cracks());
    }
    for (const Query& q : in.stream) {
      for (Value v : {q.low, q.high}) {
        const auto node = std::upper_bound(cl->lowers.begin(), cl->lowers.end(), v) -
                          cl->lowers.begin() - 1;
        const auto owner = static_cast<size_t>(std::max<std::ptrdiff_t>(0, node));
        probes.emplace_back(&cl->column_engines[owner]->audit_column()->index(), v);
      }
    }
    p.find_ns = FindPieceNs(probes);
  }
  if (traced) {
    RunTimedLadder(threads, kDistLadder, seconds * (1 - kClosedShare), op,
                   p.closed.tally.ops + p.traced.tally.ops, &p);
    FinishLadder(&p);
  }
  p.detail = "N=" + std::to_string(kDistN) + " nodes=" + std::to_string(kDistNodes) +
             " cells=" + std::to_string(kDistCells) + " cycle=" +
             std::to_string(kDistCycle) + " clients=" + std::to_string(threads) +
             " connections=" + std::to_string(kDistNodes);
  return p;
}

// ------------------------------------------------------------- reporting --

std::vector<Metric> EndToEnd(const Phase& p) {
  const auto n = static_cast<int64_t>(
      WindowMedian(p.closed, [](const Window& w) { return w.ops; }));
  return {
      {"setup_s", Median(p.setup_s), "s", static_cast<int64_t>(p.setup_s.size())},
      {"qps", p.qps, "1/s", 0},
      {"p50_us", ClosedP50(p.closed), "us", n},
      {"p99_us", WindowMedian(p.closed, [](const Window& w) { return w.p99_us; }),
       "us", n},
      {"peak_heap_mb", p.peak_heap_mb, "MiB", 0},
  };
}

std::vector<Metric> PerLayer(const Phase& p, std::vector<std::string>* notes) {
  const TraceAnalysis& a = p.trace;
  auto at = [&](Layer l) { return static_cast<size_t>(l); };
  auto pct = [](const std::vector<double>& v, double q) { return Percentile(v, q); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto n_of = [](const std::vector<double>& v) { return static_cast<int64_t>(v.size()); };

  const std::vector<double>& col_dur = a.dur_us[at(Layer::kColumn)];
  const std::vector<double>& col_self = a.self_us[at(Layer::kColumn)];
  double busy_s = 0;
  for (double d : col_dur) busy_s += 1e-6 * d;
  const auto calls = static_cast<double>(col_dur.size());
  const auto ops = static_cast<double>(p.traced.tally.ops);
  const EngineStats& c = p.column;
  const std::vector<double>& ep_self = a.self_us[at(p.epoch_layer)];
  const std::vector<double>& tr_dur = a.dur_us[at(Layer::kTransport)];
  const std::vector<double>& node_dur = a.dur_us[at(Layer::kNode)];
  int64_t node_total = 0;
  int64_t node_max = 0;
  for (int64_t n : a.node_calls) {
    node_total += n;
    node_max = std::max(node_max, n);
  }
  const std::vector<double>& lag = p.ladder.reference_lag_us;

  // Accounting: the ops whose traced duration lies within +-5 percentiles
  // of the median. Their mean self time per layer along the blocking path,
  // summed over layers, is compared with the untraced p50 op latency.
  const double untraced_p50 = ClosedP50(p.closed);
  const double band_lo = Percentile(a.op_us, 0.45);
  const double band_hi = Percentile(a.op_us, 0.55);
  double layer_sum[kNumLayers] = {};
  int64_t band_ops = 0;
  for (size_t i = 0; i < a.op_us.size(); ++i) {
    if (a.op_us[i] < band_lo || a.op_us[i] > band_hi) continue;
    ++band_ops;
    for (int l = 0; l < kNumLayers; ++l) layer_sum[l] += a.path_self_us[l][i];
  }
  double path_sum = 0;
  std::string path_detail;
  for (int l = 0; l < kNumLayers; ++l) {
    const double mean = ratio(layer_sum[l], static_cast<double>(band_ops));
    path_sum += mean;
    if (mean > 0) {
      path_detail += std::string(" ") + LayerName(static_cast<Layer>(l)) + "=" +
                     Fmt("%.3f", mean);
    }
  }
  const double accounted = ratio(path_sum, untraced_p50);
  const bool pass = std::abs(accounted - 1) <= kAccountingTolerance;
  notes->push_back(Fmt("accounting: %.0f ops around the traced p50 (%.3f us);",
                       static_cast<double>(band_ops), Median(a.op_us)) +
                   " mean blocking-path self time (us):" + path_detail +
                   Fmt("; sum %.3f us vs untraced p50_us %.3f us = %.3f", path_sum,
                       untraced_p50, accounted) +
                   Fmt(" (tolerance +-%.2f): ", kAccountingTolerance) +
                   (pass ? "PASS" : "FAIL"));

  return {
      {"kernel.touched_gbps", ratio(8.0 * c.tuples_touched, busy_s) / 1e9, "GB/s", 0},
      {"column.calls", calls, "count", 0},
      {"column.busy_s", busy_s, "s", 0},
      {"column.self_us_p50", pct(col_self, 0.5), "us", n_of(col_self)},
      {"column.self_us_p99", pct(col_self, 0.99), "us", n_of(col_self)},
      {"column.touched_per_call", ratio(c.tuples_touched, calls), "count", 0},
      {"column.swaps_per_call", ratio(c.swaps, calls), "count", 0},
      {"column.cracks", static_cast<double>(c.cracks), "count", 0},
      {"column.random_pivots", static_cast<double>(c.random_pivots), "count", 0},
      {"column.materialized_per_call", ratio(c.materialized, calls), "count", 0},
      {"column.useful_ratio", ratio(p.column_qualifying, c.tuples_touched), "ratio", 0},
      {"index.cracks", static_cast<double>(p.index_cracks), "count", 0},
      {"index.find_ns", p.find_ns, "ns", 0},
      {"epoch.shared_ratio",
       ratio(p.epoch.shared_reads, p.epoch.shared_reads + p.epoch.exclusive_cracks),
       "ratio", 0},
      {"epoch.escalations", static_cast<double>(p.epoch.escalations), "count", 0},
      {"epoch.self_us_p50", pct(ep_self, 0.5), "us", n_of(ep_self)},
      {"epoch.self_us_p99", pct(ep_self, 0.99), "us", n_of(ep_self)},
      {"storage.stage_us_p99", pct(a.dur_us[at(Layer::kStorage)], 0.99), "us",
       n_of(a.dur_us[at(Layer::kStorage)])},
      {"storage.updates_merged", static_cast<double>(c.updates_merged), "count", 0},
      {"coord.self_us_p50", pct(a.self_us[at(Layer::kCoord)], 0.5), "us",
       n_of(a.self_us[at(Layer::kCoord)])},
      {"coord.self_us_p99", pct(a.self_us[at(Layer::kCoord)], 0.99), "us",
       n_of(a.self_us[at(Layer::kCoord)])},
      {"coord.fan_outs", static_cast<double>(p.coord.fan_outs), "count", 0},
      {"coord.prune_ratio",
       ratio(p.coord.nodes_pruned, static_cast<double>(p.coord.fan_outs) * p.nodes),
       "ratio", 0},
      {"wire.bytes_per_op", ratio(p.coord.wire_bytes, ops), "B", 0},
      {"transport.call_us_p50", pct(tr_dur, 0.5), "us", n_of(tr_dur)},
      {"transport.call_us_p99", pct(tr_dur, 0.99), "us", n_of(tr_dur)},
      {"transport.self_us_p50", pct(a.self_us[at(Layer::kTransport)], 0.5), "us",
       n_of(tr_dur)},
      {"transport.calls_per_op", ratio(tr_dur.size(), ops), "count", 0},
      {"transport.timeouts", static_cast<double>(p.transport.timeouts), "count", 0},
      {"transport.reconnects", static_cast<double>(p.transport.reconnects), "count", 0},
      {"transport.retries", static_cast<double>(p.transport.retries), "count", 0},
      {"node.engine_us_p50", pct(node_dur, 0.5), "us", n_of(node_dur)},
      {"node.max_call_share", ratio(node_max, node_total), "ratio", 0},
      {"loadgen.slo_qps", p.ladder.slo_qps, "1/s", 0},
      {"loadgen.open_p99_us", p.ladder.open_p99_us, "us", p.ladder.open_samples},
      {"loadgen.lag_p99_us", pct(lag, 0.99), "us", n_of(lag)},
      {"trace.overhead", ratio(p.traced_qps, p.qps), "ratio", 0},
      {"trace.accounted", accounted, "ratio", 0},
      {"trace.unlinked", static_cast<double>(a.unlinked), "count", 0},
  };
}

void LadderNotes(const Phase& p, double limit_us, std::vector<std::string>* notes) {
  for (const StepResult& s : p.ladder.steps) {
    notes->push_back(
        Fmt("ladder: rate %.0f/s achieved %.1f/s p50 %.1f us p99 %.1f us", s.rate,
            s.achieved, Percentile(s.lat_us, 0.5), s.p99_us()) +
        Fmt(" (limit %.0f us) max %.1f us end-lag %.1f us n=%.0f", limit_us,
            Percentile(s.lat_us, 1.0), s.end_lag_us,
            static_cast<double>(s.lat_us.size())) +
        (s.tally.failed() > 0 ? " FAILED-OPS" : ""));
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "adapt-seq" || name == "serve-mix" || name == "dist-tcp";
}

WorkloadRun RunWorkload(const std::string& name, uint64_t seed, double seconds,
                        bool trace) {
  std::function<Phase(double, bool)> phase;
  std::unique_ptr<SeqInputs> seq;
  std::unique_ptr<MixInputs> mix;
  std::unique_ptr<DistInputs> dist;
  WorkloadRun run;
  double limit_us = 0;
  if (name == "adapt-seq") {
    run.engine_spec = CanonicalSpec("mdd1r");
    scrack::WorkloadParams params;
    params.n = kSeqN;
    params.num_queries = kSeqQ;
    params.seed = seed;
    seq.reset(new SeqInputs{seed, Oracle(Column::UniquePermutation(kSeqN, seed).values()),
                            MakeWorkload(scrack::WorkloadKind::kSequential, params)});
    phase = [&](double s, bool t) { return RunAdaptSeq(*seq, s, t); };
  } else if (name == "serve-mix") {
    run.engine_spec = CanonicalSpec("epoch(crack)");
    const Oracle oracle(Column::UniquePermutation(kMixN, seed).values());
    mix.reset(new MixInputs{seed, GridOracle(oracle, kMixCells, kMixN / kMixCells),
                            oracle.Count(0, kMixN), oracle.Sum(0, kMixN), {}});
    for (int j = 0; j < kMixStreams; ++j) {
      mix->streams.push_back(MakeMixStream(SubSeed(seed, j)));
    }
    phase = [&](double s, bool t) { return RunServeMix(*mix, s, t); };
    limit_us = kMixLadder.limit_us;
  } else {
    run.engine_spec = CanonicalSpec("coord(4,epoch(crack))");
    dist.reset(new DistInputs{seed, Oracle(Column::UniquePermutation(kDistN, seed).values()),
                              MakeDistStream(seed)});
    phase = [&](double s, bool t) { return RunDistTcp(*dist, s, t); };
    limit_us = kDistLadder.limit_us;
  }

  const Phase p = phase(seconds, trace);
  if (!trace) {
    run.metrics = EndToEnd(p);
    run.tally = p.tally;
    run.notes.push_back(p.detail);
    std::vector<double> wq;
    for (const Window& w : p.closed.windows) {
      wq.push_back(static_cast<double>(w.ops) / w.wall_s);
    }
    run.notes.push_back("closed loop: " + std::to_string(p.closed.windows.size()) +
                        " windows (a pass, a session or a cycle; see the "
                        "detail line); qps, p50_us and p99_us are medians "
                        "over windows, n = ops per window" +
                        Fmt("; window ops/s q1 %.0f median %.0f q3 %.0f",
                            Percentile(wq, 0.25), Median(wq), Percentile(wq, 0.75)));
    return run;
  }
  run.metrics = PerLayer(p, &run.notes);
  run.tally = p.tally;
  run.notes.push_back(p.detail);
  LadderNotes(p, limit_us, &run.notes);
  return run;
}

}  // namespace perfbench
