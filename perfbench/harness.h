// Shared declarations for the perfbench harness: run options, the result
// every workload fills in, and small statistics helpers.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;  ///< build_paper | serve_lookup | serve_join
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots, logs and trace files.
  std::string workdir;
  /// The akb_cli binary the serve workloads start as `serve-net`.
  std::string akb_cli;
  /// Tiny world and KB sizes, for the benchmark's own test.
  bool smoke = false;
  /// Fault injection for the benchmark's own test: "output" corrupts the
  /// 4-worker build's N-Triples, "response" one received serve response.
  std::string inject;
};

/// What a workload run produced. `metrics` holds every value the
/// workload measured, keyed by metric name; units come from the metric
/// tables in harness.cc.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed output check; empty means every check passed.
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  /// Input sizes (world, KB, workload) and per-phase numbers (rounds,
  /// ladder steps) for the result file; not metrics.
  std::map<std::string, double> details;
  /// Chrome trace file written by a traced run ("" when none).
  std::string trace_file;
};

void RunBuildPaper(const Options& options, RunResult* result);
void RunServe(const Options& options, RunResult* result);

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of unsorted values; 0 if empty.
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0.0;
  size_t rank = size_t(p * double(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return double(values[rank]);
}

template <typename T>
double Median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1
             ? double(values[mid])
             : (double(values[mid - 1]) + double(values[mid])) / 2.0;
}

/// Peak resident set of this process, MiB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
