// perfbench: runs one workload of the repository's benchmark and prints its
// metrics. perfbench/run.py builds this binary and is the entry point:
//
//   perfbench --workload <adapt-seq|serve-mix|dist-tcp> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Every line but the last is a human-readable report (provenance, sample
// counts, ladder steps, the trace accounting check). The last line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exit status is
// 1 if any answer was wrong, 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/cache_info.h"
#include "util/simd.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// CPU time of the whole machine from /proc/stat, in ticks: all of it, and
// the part the hypervisor gave to other guests ("steal").
struct CpuTicks {
  long long total = 0;
  long long steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  long long v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <adapt-seq|serve-mix|dist-tcp> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !perfbench::KnownWorkload(workload) || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace);
  const int nproc = perfbench::Nproc();
  const int pinned = perfbench::PinToOneCpu();
  if (pinned < 0) {
    std::fprintf(stderr, "perfbench: could not pin the process to one CPU\n");
    return 2;
  }
  std::printf("machine: nproc=%d pinned-cpu=%d cpu=\"%s\" llc=%zu KiB dispatch=%s\n",
              nproc, pinned, CpuModel().c_str(),
              scrack::CacheInfo::Detect().l3_bytes / 1024,
              scrack::simd::Supported() ? "avx2" : "predicated");
  std::printf("build: compiler=\"%s\" type=%s commit=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, commit != nullptr ? commit : "unknown");
  std::fflush(stdout);

  const CpuTicks before = ReadCpuTicks();
  const perfbench::WorkloadRun run =
      perfbench::RunWorkload(workload, seed, seconds, trace == 1);
  const CpuTicks after = ReadCpuTicks();

  // Steal above a few percent slows every metric; compare such runs with
  // care (see METRICS.md).
  const long long ticks = after.total - before.total;
  std::printf("host: steal=%.2f%% of CPU time during the run\n",
              ticks > 0 ? 100.0 * static_cast<double>(after.steal - before.steal) /
                              static_cast<double>(ticks)
                        : 0.0);

  std::printf("engine: %s\n", run.engine_spec.c_str());
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  for (const perfbench::Metric& m : run.metrics) {
    std::printf("  %-28s %16.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf("  (n=%lld)", static_cast<long long>(m.samples));
    std::printf("\n");
  }
  const perfbench::Tally& t = run.tally;
  std::printf("  %-28s %16.6g %-6s  (%lld failed of %lld attempted: %lld wrong, "
              "%lld errored or degraded)\n",
              "fail_frac",
              t.ops > 0 ? static_cast<double>(t.failed()) / static_cast<double>(t.ops) : 0.0,
              "ratio", static_cast<long long>(t.failed()),
              static_cast<long long>(t.ops), static_cast<long long>(t.wrong),
              static_cast<long long>(t.errors));

  std::string json = "{\"correct\": ";
  json += t.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.ops);
  json += ", \"failed\": " + std::to_string(t.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const perfbench::Metric& m = run.metrics[i];
    if (i > 0) json += ", ";
    json += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return t.wrong == 0 ? 0 : 1;
}
