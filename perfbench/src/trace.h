// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own decorators and load
// generator (decorators.h, workloads.cc) around calls into the library's
// public API; nothing inside src/ is instrumented. Each thread appends to
// its own buffer, so recording takes no lock. When tracing is disabled
// (the untraced run that produces every end-to-end metric) a span costs
// one relaxed atomic load.
//
// A span carries its layer, start and end (steady clock, ns), the span that
// caused it and the op it belongs to. Parents on the same thread come from
// a per-thread stack. Two hops cross threads and are linked after the run:
//   - a transport call the coordinator fanned out to a pool thread is
//     matched to its op through the address of the encoded request, which
//     the coordinator shares with the call it runs on the client thread;
//   - a node-engine call on a server connection thread is matched to the
//     transport call that carried it. TcpTransport serializes calls per
//     node, so the k-th completed call to node i carried the k-th request
//     node i served; containment in time is checked for every pair.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Layers the decorators and the load generator time. The first span of an
/// op (its root) is opened by the load generator around the call into the
/// workload's outermost layer.
enum class Layer : uint8_t {
  kColumn,     ///< a cracking engine over its CrackerColumn (src/cracking)
  kEpoch,      ///< EpochEngine: lock wait plus the shared read
  kStorage,    ///< StageInsert/StageDelete through the outermost engine
  kCoord,      ///< CoordinatorEngine: route, encode, merge, fan-out wait
  kTransport,  ///< one Transport::Call (codec, sockets, wakeups, node)
  kNode,       ///< the node engine a StorageNode dispatches to
};
constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t op = -1;      ///< op id; -1 until linked
  uint64_t key = 0;     ///< transport spans: address of the encoded request
  int32_t parent = -1;  ///< index into the gathered list; -1 = none
  Layer layer = Layer::kColumn;
  int8_t node = -1;     ///< transport and node spans: storage node index
};

/// Steady-clock nanoseconds.
int64_t NowNs();

namespace trace {

bool Enabled();
/// Turns recording on or off. Call only while no thread is inside a span.
void SetEnabled(bool on);
/// Drops every recorded span. Call only while no thread is recording.
void Clear();
/// Sets the op id that spans opened on this thread are tagged with.
void SetOp(int64_t op);

/// Opens a span on this thread and returns its handle (-1 when disabled).
int32_t Open(Layer layer, int node = -1, uint64_t key = 0);
void Close(int32_t handle);

/// Every recorded span, parents resolved to indices into the result.
std::vector<Span> Gather();

}  // namespace trace

/// RAII span; records nothing when tracing is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, int node = -1, uint64_t key = 0)
      : handle_(trace::Enabled() ? trace::Open(layer, node, key) : -1) {}
  ~ScopedSpan() {
    if (handle_ >= 0) trace::Close(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t handle_;
};

/// Per-layer timings derived from a gathered trace.
struct TraceAnalysis {
  /// Self time (duration minus the part its children cover) of every span
  /// of each layer, in microseconds.
  std::vector<double> self_us[kNumLayers];
  /// Duration of every span of each layer, in microseconds.
  std::vector<double> dur_us[kNumLayers];
  /// Per op: the self time each layer contributes along the op's blocking
  /// path (root, then at every level the child that ended last); 0 where
  /// the layer is not on the path. One entry per op in every layer.
  std::vector<double> path_self_us[kNumLayers];
  /// Per op: duration of its root span, in microseconds.
  std::vector<double> op_us;
  /// Node spans per node index.
  std::vector<int64_t> node_calls;
  /// Cross-thread spans that could not be linked to an op.
  int64_t unlinked = 0;
};

/// Links cross-thread spans, computes self times and blocking paths.
/// Roots are spans the load generator opened (op >= 0, no parent).
TraceAnalysis Analyze(std::vector<Span> spans);

}  // namespace perfbench
