// The four workloads of the HTAP benchmark. Each runs in its own process
// against a fresh directory on the Posix filesystem, generates all of its
// input from one seed, and drives the engine only through its public calls
// (LaserDB, ScanIterator, ShardedLaserDB, TpccDriver).

#ifndef LASER_PERFBENCH_WORKLOADS_H_
#define LASER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Directory the run owns: the database and the span dump.
  std::string dir;
  /// Corrupts one expected value of the correctness oracle, so a run that
  /// still reports zero wrong results shows the oracle is not checking.
  bool inject_fault = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  /// Run parameters (rows, threads, rate, cache and on-disk bytes, design,
  /// WAL sync policy, ...), in the order they were recorded.
  std::vector<std::pair<std::string, std::string>> header;
  /// The end-to-end metrics every workload reports (see run.py).
  std::map<std::string, Metric> e2e;
  /// The workload's operation-specific figures under their own names
  /// (insert_p50_us, scan_p90_ms, txn_per_s, ...), for the human report.
  std::map<std::string, Metric> named;
  /// Per-layer metrics; run.py reports them from a traced run, where the
  /// span metrics exist.
  std::map<std::string, Metric> layers;
  uint64_t attempted = 0;  ///< client operations attempted
  uint64_t failed = 0;     ///< operations that returned an error
  uint64_t wrong = 0;      ///< results the oracles found incorrect
  std::vector<std::string> errors;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Returns false when it could not run at all (the
/// reason is in report->errors); oracle failures return true and are
/// counted in report->wrong.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // LASER_PERFBENCH_WORKLOADS_H_
