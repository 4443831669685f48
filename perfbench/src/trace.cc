#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kColumn: return "column";
    case Layer::kEpoch: return "epoch";
    case Layer::kStorage: return "storage";
    case Layer::kCoord: return "coord";
    case Layer::kTransport: return "transport";
    case Layer::kNode: return "node";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace trace {
namespace {

constexpr int kChunkShift = 14;
constexpr int64_t kChunkSpans = int64_t{1} << kChunkShift;

// One thread's spans in fixed-size chunks, so appending never moves
// recorded spans (no reallocation stall while tracing).
struct ThreadBuf {
  std::vector<std::unique_ptr<Span[]>> chunks;
  int64_t size = 0;
  std::vector<int32_t> stack;  // open spans on this thread
  int64_t op = -1;

  Span& At(int64_t i) { return chunks[i >> kChunkShift][i & (kChunkSpans - 1)]; }
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
// Buffers outlive their threads (server connection threads exit at Stop),
// so the registry owns them; it is leaked to stay valid for thread_local
// pointers during static destruction.
auto* g_registry = new std::vector<std::unique_ptr<ThreadBuf>>();
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf* Buf() {
  if (t_buf == nullptr) {
    auto buf = std::make_unique<ThreadBuf>();
    t_buf = buf.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry->push_back(std::move(buf));
  }
  return t_buf;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Clear() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buf : *g_registry) {
    buf->size = 0;
    buf->stack.clear();
    buf->op = -1;
  }
}

void SetOp(int64_t op) {
  if (Enabled()) Buf()->op = op;
}

int32_t Open(Layer layer, int node, uint64_t key) {
  ThreadBuf* buf = Buf();
  if ((buf->size >> kChunkShift) >= static_cast<int64_t>(buf->chunks.size())) {
    buf->chunks.push_back(std::make_unique<Span[]>(kChunkSpans));
  }
  const auto handle = static_cast<int32_t>(buf->size++);
  Span& span = buf->At(handle);
  span.op = buf->op;
  span.key = key;
  span.parent = buf->stack.empty() ? -1 : buf->stack.back();
  span.layer = layer;
  span.node = static_cast<int8_t>(node);
  span.end_ns = 0;
  buf->stack.push_back(handle);
  span.start_ns = NowNs();
  return handle;
}

void Close(int32_t handle) {
  const int64_t now = NowNs();
  ThreadBuf* buf = Buf();
  buf->At(handle).end_ns = now;
  buf->stack.pop_back();
}

std::vector<Span> Gather() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Span> out;
  for (auto& buf : *g_registry) {
    const auto offset = static_cast<int32_t>(out.size());
    for (int64_t i = 0; i < buf->size; ++i) {
      Span span = buf->At(i);
      if (span.parent >= 0) span.parent += offset;
      out.push_back(span);
    }
  }
  return out;
}

}  // namespace trace

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>>* intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals->begin(), intervals->end());
  int64_t covered = 0;
  int64_t cur_lo = 0;
  int64_t cur_hi = -1;
  for (auto [s, e] : *intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = s;
      cur_hi = e;
    } else {
      cur_hi = std::max(cur_hi, e);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

TraceAnalysis Analyze(std::vector<Span> spans) {
  TraceAnalysis out;
  const auto n = static_cast<int32_t>(spans.size());

  // 1. Transport calls the coordinator ran on pool threads: same request
  // buffer as the call it ran on the client thread, inside that op's root.
  struct Anchor {
    uint64_t key;
    int64_t start, end;
    int32_t root;
  };
  std::vector<Anchor> anchors;
  for (int32_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (s.layer == Layer::kTransport && s.parent >= 0) {
      const Span& root = spans[s.parent];
      anchors.push_back({s.key, root.start_ns, root.end_ns, s.parent});
    }
  }
  std::sort(anchors.begin(), anchors.end(), [](const Anchor& a, const Anchor& b) {
    return a.key != b.key ? a.key < b.key : a.start < b.start;
  });
  for (Span& s : spans) {
    if (s.layer != Layer::kTransport || s.parent >= 0) continue;
    auto it = std::upper_bound(
        anchors.begin(), anchors.end(), std::make_pair(s.key, s.start_ns),
        [](const std::pair<uint64_t, int64_t>& v, const Anchor& a) {
          return v.first != a.key ? v.first < a.key : v.second < a.start;
        });
    if (it != anchors.begin() && (it - 1)->key == s.key &&
        (it - 1)->end >= s.end_ns) {
      s.parent = (it - 1)->root;
    } else {
      ++out.unlinked;
    }
  }

  // 2. Node-engine calls: the k-th request node i served rode the k-th
  // transport call to node i to complete.
  int max_node = -1;
  for (const Span& s : spans) max_node = std::max<int>(max_node, s.node);
  out.node_calls.assign(static_cast<size_t>(max_node + 1), 0);
  for (int node = 0; node <= max_node; ++node) {
    std::vector<int32_t> calls;
    std::vector<int32_t> serves;
    for (int32_t i = 0; i < n; ++i) {
      if (spans[i].node != node) continue;
      if (spans[i].layer == Layer::kTransport) calls.push_back(i);
      if (spans[i].layer == Layer::kNode) serves.push_back(i);
    }
    out.node_calls[static_cast<size_t>(node)] =
        static_cast<int64_t>(serves.size());
    if (calls.size() != serves.size()) {
      out.unlinked += static_cast<int64_t>(serves.size());
      continue;
    }
    std::sort(calls.begin(), calls.end(), [&](int32_t a, int32_t b) {
      return spans[a].end_ns < spans[b].end_ns;
    });
    std::sort(serves.begin(), serves.end(), [&](int32_t a, int32_t b) {
      return spans[a].start_ns < spans[b].start_ns;
    });
    for (size_t k = 0; k < serves.size(); ++k) {
      const Span& call = spans[calls[k]];
      Span& serve = spans[serves[k]];
      if (call.start_ns <= serve.start_ns && serve.end_ns <= call.end_ns) {
        serve.parent = calls[k];
      } else {
        ++out.unlinked;
      }
    }
  }

  // 3. Op ids follow the parent chain to the root.
  for (int32_t i = 0; i < n; ++i) {
    int32_t cur = i;
    while (spans[cur].op < 0 && spans[cur].parent >= 0) cur = spans[cur].parent;
    spans[i].op = spans[cur].op;
  }

  // 4. Self time per span.
  std::vector<std::vector<int32_t>> children(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> self_us(static_cast<size_t>(n));
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (int32_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    intervals.clear();
    for (int32_t c : children[i]) {
      intervals.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    const int64_t dur = s.end_ns - s.start_ns;
    self_us[i] = 1e-3 * static_cast<double>(
                            dur - CoveredNs(&intervals, s.start_ns, s.end_ns));
    const auto layer = static_cast<size_t>(s.layer);
    out.self_us[layer].push_back(self_us[i]);
    out.dur_us[layer].push_back(1e-3 * static_cast<double>(dur));
  }

  // 5. Blocking path of every op.
  for (int32_t i = 0; i < n; ++i) {
    const Span& root = spans[i];
    if (root.parent >= 0 || root.op < 0) continue;
    double path[kNumLayers] = {};
    for (int32_t cur = i; cur >= 0;) {
      path[static_cast<size_t>(spans[cur].layer)] += self_us[cur];
      int32_t next = -1;
      for (int32_t c : children[cur]) {
        if (next < 0 || spans[c].end_ns > spans[next].end_ns) next = c;
      }
      cur = next;
    }
    for (int l = 0; l < kNumLayers; ++l) out.path_self_us[l].push_back(path[l]);
    out.op_us.push_back(1e-3 * static_cast<double>(root.end_ns - root.start_ns));
  }
  return out;
}

}  // namespace perfbench
