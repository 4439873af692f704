#include "perfbench/workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "perfbench/stats.h"
#include "util/random.h"
#include "workload/tpcc.h"

namespace perfbench {
namespace {

using laser::CgConfig;
using laser::ColumnSet;
using laser::ColumnValue;
using laser::LaserDB;
using laser::LaserOptions;
using laser::MakeColumnRange;
using laser::Random;
using laser::ScanAggregates;
using laser::ScanBatch;
using laser::ShardedLaserDB;
using laser::Stats;
using laser::Status;
using laser::WalSyncPolicy;

// ---------------------------------------------------------------------------
// Fixed parameters. They are part of the benchmark's definition: changing
// one changes what every later comparison measures.
// ---------------------------------------------------------------------------

constexpr int kColumns = 30;
constexpr int kLevels = 8;
/// setup_s is the median of this many set-ups (more where one is short).
constexpr int kSetupRepeats = 3;
constexpr int kTpccSetupRepeats = 7;
constexpr uint64_t kKeyBits = 48;
constexpr uint64_t kKeyDomain = 1ull << kKeyBits;

constexpr int kIngestWriters = 4;
constexpr uint64_t kIngestBaseRows = 100000;

constexpr uint64_t kOlapRows = 200000;
constexpr size_t kOlapCacheBytes = 4 << 20;
/// Counters on olap_scan are windowed over this prefix of the seeded scan
/// sequence, so they repeat exactly for a seed.
constexpr uint64_t kOlapCountedScans = 64;
constexpr uint64_t kOlapWarmupScans = 40;

constexpr uint64_t kHtapBaseRows = 200000;
constexpr int kHtapWriters = 2;
constexpr double kHtapWriteRate = 10000;  // Q1+Q3 per second, all writers
constexpr size_t kHtapCacheBytes = 32 << 20;

constexpr int kTpccShards = 4;
constexpr int kTpccWriters = 3;

constexpr size_t kSpanCapacity = 4 << 20;  // spans per client thread

// Row size of the narrow table as the user sees it: 8-byte key plus 30
// int32 columns.
constexpr uint64_t kNarrowRowBytes = 8 + 4 * kColumns;

/// The design every narrow-table workload pins: the D-opt the design
/// advisor picks for Table 3's narrow HW, written out so that a change to
/// the advisor cannot change what is measured.
CgConfig PinnedNarrowDesign() {
  std::vector<std::vector<ColumnSet>> levels;
  for (int level = 0; level < kLevels; ++level) {
    if (level <= 1) {
      levels.push_back({MakeColumnRange(1, 30)});
    } else if (level <= 5) {
      levels.push_back({MakeColumnRange(1, 27), MakeColumnRange(28, 30)});
    } else {
      levels.push_back({MakeColumnRange(1, 20), MakeColumnRange(21, 27),
                        MakeColumnRange(28, 30)});
    }
  }
  return CgConfig(std::move(levels));
}

/// The TPC-C table's design, pinned the same way: row-format L0-L1 and one
/// column per group below (HTAP-simple over 8 columns and 6 levels).
CgConfig PinnedTpccDesign() {
  std::vector<std::vector<ColumnSet>> levels;
  for (int level = 0; level < 6; ++level) {
    if (level <= 1) {
      levels.push_back({MakeColumnRange(1, laser::tpcc::kNumColumns)});
    } else {
      std::vector<ColumnSet> groups;
      for (int c = 1; c <= laser::tpcc::kNumColumns; ++c) groups.push_back({c});
      levels.push_back(std::move(groups));
    }
  }
  return CgConfig(std::move(levels));
}

const char* PolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kSyncEveryWrite: return "kSyncEveryWrite";
    case WalSyncPolicy::kSyncEveryGroup: return "kSyncEveryGroup";
    case WalSyncPolicy::kSyncIntervalMs: return "kSyncIntervalMs";
    case WalSyncPolicy::kNoSync: return "kNoSync";
  }
  return "?";
}

LaserOptions NarrowOptions(const std::string& path, size_t cache_bytes,
                           WalSyncPolicy policy) {
  LaserOptions options;
  options.env = laser::Env::Default();
  options.path = path;
  options.schema = laser::Schema::UniformInt32(kColumns);
  options.num_levels = kLevels;
  options.size_ratio = 2;
  options.cg_config = PinnedNarrowDesign();
  options.block_cache_bytes = cache_bytes;
  options.use_wal = true;
  options.wal_sync_policy = policy;
  options.wal_sync_interval_ms = 10;
  return options;
}

// ---------------------------------------------------------------------------
// Input generation: everything derives from the seed.
// ---------------------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Row content of the narrow table, addressed by insertion ordinal. Keys
/// are a 48-bit Feistel permutation of the ordinal, so they spread
/// uniformly while the workload can still pick rows by age. Column 1 is
/// the ordinal itself (an insertion timestamp, which pushdown filters on);
/// the other columns are pseudo-random int32 values.
class RowGen {
 public:
  explicit RowGen(uint64_t seed) : seed_(Mix64(seed ^ 0x6c617365726462ull)) {}

  uint64_t Key(uint64_t ordinal) const {
    constexpr uint64_t kHalf = (1ull << (kKeyBits / 2)) - 1;
    uint64_t left = (ordinal >> (kKeyBits / 2)) & kHalf;
    uint64_t right = ordinal & kHalf;
    for (uint64_t round = 0; round < 4; ++round) {
      const uint64_t f = Mix64(right ^ seed_ ^ (round << 56)) & kHalf;
      const uint64_t next = left ^ f;
      left = right;
      right = next;
    }
    return (left << (kKeyBits / 2)) | right;
  }

  ColumnValue Value(uint64_t ordinal, int column) const {
    if (column == 1) return ordinal;
    return Mix64((ordinal << 6 | static_cast<uint64_t>(column)) ^ seed_) &
           0x7fffffffu;
  }

  std::vector<ColumnValue> Row(uint64_t ordinal) const {
    std::vector<ColumnValue> row(kColumns);
    for (int c = 1; c <= kColumns; ++c) row[c - 1] = Value(ordinal, c);
    return row;
  }

  /// Value written by the `n`th update of a thread.
  ColumnValue UpdateValue(uint64_t ordinal, int column, uint64_t n) const {
    return Mix64(Value(ordinal, column) ^ (n + 1) * 0x9e3779b97f4a7c15ull) &
           0x7fffffffu;
  }

 private:
  uint64_t seed_;
};

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

// ---------------------------------------------------------------------------
// Measurement plumbing.
// ---------------------------------------------------------------------------

enum SpanId : uint32_t {
  kSpanOp,
  kSpanWait,
  kSpanInsert,
  kSpanUpdate,
  kSpanDrain,
  kSpanRead,
  kSpanNewScan,
  kSpanNextBatch,
  kSpanAggregateAll,
  kSpanNewOrder,
  kSpanPayment,
  kSpanOrderStatus,
  kSpanQ1,
  kNumSpans,
};

constexpr const char* kSpanNames[kNumSpans] = {
    "harness.op",     "harness.wait",      "laser.insert",      "laser.update",
    "laser.drain",    "laser.read",        "laser.new_scan",
    "laser.next_batch", "laser.aggregate_all", "tpcc.new_order",
    "tpcc.payment",   "tpcc.order_status", "tpcc.q1"};

/// One client thread's bookkeeping: its span buffer (traced runs only),
/// its wall-clock interval and its operation ids.
struct Client {
  Client(int index, bool traced)
      : spans(traced ? std::make_unique<SpanBuffer>(kSpanCapacity) : nullptr),
        tag(static_cast<uint64_t>(index) << 48) {}

  uint64_t NextOp() { return tag | ++ops; }
  void Start() { start_ns = NowNanos(); }
  void Stop() { end_ns = NowNanos(); }

  std::unique_ptr<SpanBuffer> spans;
  uint64_t tag;
  uint64_t ops = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Client* client, uint32_t name, uint64_t op)
      : buffer_(client->spans.get()),
        index_(buffer_ != nullptr ? buffer_->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

/// Engine counters the benchmark windows by snapshot and delta (never by
/// Stats::Reset, which would race with background work).
#define PERFBENCH_COUNTERS(X)                                            \
  X(data_block_reads) X(block_cache_hits) X(block_cache_misses)          \
  X(bloom_checks) X(bloom_negatives) X(bloom_false_positives)            \
  X(point_reads) X(range_scans) X(inserts) X(updates)                    \
  X(scan_rows_emitted) X(scan_rows_merged) X(scan_source_advances)       \
  X(scan_heap_resifts) X(scan_zip_rows) X(blocks_skipped_zonemap)        \
  X(files_skipped_zonemap) X(rows_filtered_pushdown) X(aggs_from_zonemap) \
  X(bytes_written_wal) X(wal_syncs) X(wal_group_commits)                 \
  X(wal_group_writes) X(bytes_flushed) X(bytes_compacted)                \
  X(compaction_jobs) X(flush_jobs) X(write_stall_micros)

struct Counters {
#define PERFBENCH_FIELD(name) uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD
  /// Logical bytes the user wrote: key plus the columns of every insert
  /// and update (widths from the schema).
  uint64_t user_bytes = 0;

  static Counters Of(const Stats& stats, const laser::Schema& schema) {
    Counters c;
#define PERFBENCH_LOAD(name) c.name = stats.name.load(std::memory_order_relaxed);
    PERFBENCH_COUNTERS(PERFBENCH_LOAD)
#undef PERFBENCH_LOAD
    uint64_t row_bytes = 8;
    for (int col = 1; col <= schema.num_columns(); ++col) {
      const uint64_t width = schema.value_size(col);
      row_bytes += width;
      c.user_bytes += width * stats.updated_by_column[Stats::ColumnSlot(col)].load(
                                  std::memory_order_relaxed);
    }
    c.user_bytes += c.inserts * row_bytes + c.updates * 8;
    return c;
  }

  Counters operator-(const Counters& before) const {
    Counters d;
#define PERFBENCH_SUB(name) d.name = name - before.name;
    PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    d.user_bytes = user_bytes - before.user_bytes;
    return d;
  }
};

Counters CountersOf(LaserDB* db) {
  return Counters::Of(db->stats(), db->options().schema);
}

Counters CountersOf(ShardedLaserDB* db) {
  Stats total;
  db->AggregateStats(&total);
  return Counters::Of(total, db->shard(0)->options().schema);
}

int L0Files(LaserDB* db) {
  const auto version = db->current_version();
  int files = 0;
  for (int g = 0; g < version->num_groups(0); ++g) {
    files += static_cast<int>(version->files(0, g).size());
  }
  return files;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double MedianOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0;
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double MeanOf(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / values.size();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
}

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Shared state of one run: the report under construction and the client
/// threads' bookkeeping.
class Run {
 public:
  Run(const RunOptions& options, Report* report)
      : options_(options), report_(report), gen_(options.seed) {}

  const RunOptions& options() const { return options_; }
  const RowGen& gen() const { return gen_; }
  Report* report() { return report_; }
  std::string DbDir() const { return options_.dir + "/db"; }

  Client* AddClient() {
    clients_.push_back(
        std::make_unique<Client>(static_cast<int>(clients_.size()),
                                 options_.trace));
    return clients_.back().get();
  }

  void Header(const std::string& key, const std::string& value) {
    report_->header.emplace_back(key, value);
  }
  void E2e(const std::string& name, double value, const char* unit) {
    report_->e2e[name] = Metric{value, unit};
  }
  void Named(const std::string& name, double value, const char* unit) {
    report_->named[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    report_->layers[name] = Metric{value, unit};
  }
  void Error(const std::string& what) { report_->errors.push_back(what); }

  /// Percentile under the ten-beyond rule. A sample too small for a
  /// required percentile is an error of the run (the workloads are sized so
  /// that it never is); an optional one reads 0.
  double Pct(const std::string& what, std::vector<double> samples, double p,
             bool required = true) {
    const std::optional<double> value = Percentile(&samples, p);
    if (!value && required) {
      Error(what + ": " + std::to_string(samples.size()) +
            " samples cannot support p" + Num(p));
    }
    return value.value_or(0);
  }

  /// Times `setup` `repeats` times on a fresh directory each time, closing
  /// the previous repeat's database with `teardown` first; keeps the state
  /// of the last repeat. Records setup_s as the median.
  bool TimedSetup(const std::function<void()>& teardown,
                  const std::function<Status()>& setup,
                  int repeats = kSetupRepeats) {
    std::vector<double> seconds;
    for (int i = 0; i < repeats; ++i) {
      teardown();
      ResetDir(DbDir());
      const uint64_t start = NowNanos();
      const Status status = setup();
      seconds.push_back((NowNanos() - start) / 1e9);
      if (!status.ok()) {
        Error("setup: " + status.ToString());
        return false;
      }
    }
    E2e("setup_s", MedianOf(seconds), "s");
    return true;
  }

  /// Write and space amplification over the database's life: the set-up
  /// load plus the window, after background work drained. A window alone is
  /// too short: whether one deep compaction lands inside it would swing the
  /// ratio.
  void Amplification(const Counters& life, uint64_t live_rows,
                     uint64_t row_bytes) {
    const double user = static_cast<double>(life.user_bytes);
    const double written = static_cast<double>(
        life.bytes_written_wal + life.bytes_flushed + life.bytes_compacted);
    E2e("write_amp", Ratio(written, user), "ratio");
    const uint64_t disk = DirBytes(DbDir());
    E2e("space_amp", Ratio(disk, static_cast<double>(live_rows * row_bytes)),
        "ratio");
    Header("on_disk_bytes", std::to_string(disk));
    Header("user_bytes_written", std::to_string(life.user_bytes));
    Layer("wal.bytes_per_user_byte", Ratio(life.bytes_written_wal, user),
          "ratio");
  }

  /// Per-layer counters from an engine-stats delta. `write_ops` is the
  /// number of client write operations (transactions on tpcc).
  void LayerCounters(const Counters& d, uint64_t write_ops,
                     uint64_t filter_bytes) {
    Layer("laser.write_stall_us", d.write_stall_micros, "us");
    Layer("wal.syncs_per_txn", Ratio(d.wal_syncs, write_ops), "ratio");
    Layer("wal.writes_per_group", Ratio(d.wal_group_writes, d.wal_group_commits),
          "ratio");
    Layer("memtable.flush_jobs", d.flush_jobs, "count");
    Layer("lsm.compaction_jobs", d.compaction_jobs, "count");
    Layer("lsm.bytes_compacted", d.bytes_compacted, "bytes");
    // The engine counts block fetches per table, not per operation kind;
    // on a workload with both point reads and scans both ratios divide the
    // shared total.
    Layer("sst.blocks_per_scan", Ratio(d.data_block_reads, d.range_scans),
          "count");
    Layer("sst.blocks_per_read", Ratio(d.data_block_reads, d.point_reads),
          "count");
    Layer("sst.block_cache_hit_rate",
          Ratio(d.block_cache_hits, d.block_cache_hits + d.block_cache_misses),
          "ratio");
    Layer("sst.bloom_fpr",
          Ratio(d.bloom_false_positives,
                d.bloom_negatives + d.bloom_false_positives),
          "ratio");
    Layer("sst.blocks_skipped_zonemap", d.blocks_skipped_zonemap, "count");
    Layer("sst.files_skipped_zonemap", d.files_skipped_zonemap, "count");
    Layer("sst.filter_bytes", filter_bytes, "bytes");
    Layer("scan.rows_merged", d.scan_rows_merged, "count");
    Layer("scan.emit_ratio", Ratio(d.scan_rows_emitted, d.scan_rows_merged),
          "ratio");
    Layer("scan.advances_per_row",
          Ratio(d.scan_source_advances, d.scan_rows_merged), "ratio");
    Layer("scan.resifts_per_row", Ratio(d.scan_heap_resifts, d.scan_rows_merged),
          "ratio");
    Layer("scan.zip_row_share", Ratio(d.scan_zip_rows, d.scan_rows_merged),
          "ratio");
    Layer("scan.aggs_from_zonemap", d.aggs_from_zonemap, "count");
    Layer("scan.rows_filtered_pushdown", d.rows_filtered_pushdown, "count");
  }

  /// Span self times, coverage of each client thread's wall time and the
  /// tracing overhead; writes the raw spans to <dir>/spans.bin.
  void TraceReport(int l0_files_max, double gen_lag_p99_us) {
    Layer("lsm.l0_files_max", l0_files_max, "count");
    Layer("harness.gen_lag_p99_us", gen_lag_p99_us, "us");
    if (!options_.trace) return;
    std::vector<SpanTotals> totals(kNumSpans);
    double min_coverage = 1;
    double wall_us = 0;
    uint64_t spans = 0, dropped = 0;
    for (const auto& client : clients_) {
      double covered_us = 0;
      auto per_name = SelfTimes(client->spans->spans(), &covered_us);
      const double thread_us = (client->end_ns - client->start_ns) / 1e3;
      wall_us += thread_us;
      min_coverage = std::min(min_coverage, Ratio(covered_us, thread_us));
      for (auto& [name, total] : per_name) {
        SpanTotals& into = totals[name];
        into.count += total.count;
        into.self_us += total.self_us;
        into.durations_us.insert(into.durations_us.end(),
                                 total.durations_us.begin(),
                                 total.durations_us.end());
      }
      spans += client->spans->spans().size();
      dropped += client->spans->dropped();
    }
    for (uint32_t id = 0; id < kNumSpans; ++id) {
      const std::string name = kSpanNames[id];
      SpanTotals& total = totals[id];
      Layer(name + ".us", total.self_us, "us");
      Layer(name + ".count", total.count, "count");
      const std::optional<double> p99 = Percentile(&total.durations_us, 99);
      Layer(name + ".p99_us", p99.value_or(0), "us");
    }
    Layer("harness.span_coverage", min_coverage, "ratio");
    Layer("harness.spans_dropped", dropped, "count");
    Layer("harness.trace_overhead",
          Ratio(spans * SpanCostUs(), wall_us), "ratio");
    WriteSpans();
  }

 private:
  /// Measured cost of recording one span (two clock reads and a store),
  /// timed by a calibration loop where the benchmark runs.
  static double SpanCostUs() {
    constexpr int kCalls = 200000;
    SpanBuffer buffer(kCalls);
    const uint64_t start = NowNanos();
    for (int i = 0; i < kCalls; ++i) buffer.End(buffer.Begin(0, i));
    return (NowNanos() - start) / 1e3 / kCalls;
  }

  /// Raw dump: per client thread, a count then the Span records. Span
  /// names index the table written first.
  void WriteSpans() {
    std::ofstream out(options_.dir + "/spans.bin", std::ios::binary);
    const uint32_t names = kNumSpans;
    out.write(reinterpret_cast<const char*>(&names), sizeof(names));
    for (const char* name : kSpanNames) out << name << '\n';
    for (const auto& client : clients_) {
      const auto& spans = client->spans->spans();
      const uint64_t count = spans.size();
      out.write(reinterpret_cast<const char*>(&count), sizeof(count));
      out.write(reinterpret_cast<const char*>(spans.data()),
                static_cast<std::streamsize>(count * sizeof(Span)));
    }
  }

  RunOptions options_;
  Report* report_;
  RowGen gen_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// ---------------------------------------------------------------------------
// Oracle for the narrow-table write workloads: a full scan must return
// exactly the acknowledged rows, each with its generated content plus its
// acknowledged updates.
// ---------------------------------------------------------------------------

struct AckedUpdate {
  uint64_t ordinal;
  int column;
  ColumnValue value;
};

uint64_t VerifyNarrowTable(Run* run, LaserDB* db,
                           const std::vector<uint64_t>& ordinals,
                           const std::vector<std::vector<AckedUpdate>>& logs,
                           uint64_t* rows_seen) {
  const RowGen& gen = run->gen();
  std::vector<std::pair<uint64_t, uint64_t>> expected;  // key, ordinal
  expected.reserve(ordinals.size());
  for (uint64_t ordinal : ordinals) expected.emplace_back(gen.Key(ordinal), ordinal);
  std::sort(expected.begin(), expected.end());

  // Each thread updates only the rows it inserted, so applying every log in
  // its own order yields the final value of each updated cell.
  std::unordered_map<uint64_t, std::vector<std::pair<int, ColumnValue>>> updated;
  for (const auto& log : logs) {
    for (const AckedUpdate& u : log) {
      auto& cells = updated[u.ordinal];
      auto it = std::find_if(cells.begin(), cells.end(),
                             [&](const auto& c) { return c.first == u.column; });
      if (it == cells.end()) {
        cells.emplace_back(u.column, u.value);
      } else {
        it->second = u.value;
      }
    }
  }
  if (run->options().inject_fault && !expected.empty()) {
    updated[expected[expected.size() / 2].second].emplace_back(2, 1ull << 40);
  }

  auto scan = db->NewScan(0, kKeyDomain, MakeColumnRange(1, kColumns));
  if (scan == nullptr) {
    run->Error("oracle: full scan could not open");
    return 1;
  }
  uint64_t wrong = 0, next = 0;
  std::vector<ColumnValue> want(kColumns);
  ScanBatch batch;
  while (size_t n = scan->NextBatch(&batch)) {
    for (size_t r = 0; r < n; ++r) {
      const uint64_t key = batch.keys[r];
      while (next < expected.size() && expected[next].first < key) {
        ++wrong;  // acknowledged row missing
        ++next;
      }
      if (next == expected.size() || expected[next].first != key) {
        ++wrong;  // row nobody wrote
        continue;
      }
      const uint64_t ordinal = expected[next++].second;
      for (int c = 1; c <= kColumns; ++c) want[c - 1] = gen.Value(ordinal, c);
      if (auto it = updated.find(ordinal); it != updated.end()) {
        for (const auto& [column, value] : it->second) want[column - 1] = value;
      }
      for (int c = 0; c < kColumns; ++c) {
        if (!batch.columns[c].present[r] || batch.columns[c].values[r] != want[c]) {
          ++wrong;
          break;
        }
      }
    }
  }
  wrong += expected.size() - next;
  if (!scan->status().ok()) {
    run->Error("oracle: full scan: " + scan->status().ToString());
    ++wrong;
  }
  *rows_seen = next;
  return wrong;
}

/// Loads ordinals [begin, end) through WriteBatches of 256 rows.
Status LoadRows(LaserDB* db, const RowGen& gen, uint64_t begin, uint64_t end) {
  laser::WriteBatch batch;
  for (uint64_t ordinal = begin; ordinal < end; ++ordinal) {
    batch.Insert(gen.Key(ordinal), gen.Row(ordinal));
    if (batch.count() == 256 || ordinal + 1 == end) {
      LASER_RETURN_IF_ERROR(db->Write(batch));
      batch.Clear();
    }
  }
  return Status::OK();
}

/// A writer's Q3: one random non-timestamp column of one of its own recent
/// rows, picked by age N(0.98, 0.02) over the rows it has inserted.
struct UpdatePick {
  uint64_t ordinal;
  int column;
};
UpdatePick PickUpdate(Random* rng, uint64_t own_rows, uint64_t base,
                      uint64_t stride, uint64_t offset) {
  const double f = Clamp01(rng->NextGaussian(0.98, 0.02));
  const uint64_t j = static_cast<uint64_t>(f * static_cast<double>(own_rows - 1));
  return {base + offset + j * stride, 2 + static_cast<int>(rng->Uniform(kColumns - 1))};
}

// ---------------------------------------------------------------------------
// ingest: closed-loop writers, Q1 plus 1% Q3, WAL synced on an interval.
// ---------------------------------------------------------------------------

bool RunIngest(Run* run) {
  const RunOptions& opt = run->options();
  std::unique_ptr<LaserDB> db;
  LaserOptions options = NarrowOptions(run->DbDir(), 8 << 20,
                                       WalSyncPolicy::kSyncIntervalMs);
  if (!run->TimedSetup([&] { db.reset(); }, [&] {
        LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db));
        LASER_RETURN_IF_ERROR(LoadRows(db.get(), run->gen(), 0, kIngestBaseRows));
        db->WaitForBackgroundWork();
        return Status::OK();
      })) {
    return false;
  }
  run->Header("base_rows", std::to_string(kIngestBaseRows));
  run->Header("writer_threads", std::to_string(kIngestWriters) + " closed-loop");
  run->Header("block_cache_bytes", std::to_string(options.block_cache_bytes));
  run->Header("wal_sync_policy", PolicyName(options.wal_sync_policy));

  std::vector<Client*> clients;
  for (int t = 0; t < kIngestWriters; ++t) clients.push_back(run->AddClient());
  std::vector<std::vector<double>> insert_us(kIngestWriters), update_us(kIngestWriters);
  std::vector<std::vector<AckedUpdate>> logs(kIngestWriters);
  std::vector<uint64_t> inserted(kIngestWriters, 0), failed(kIngestWriters, 0);
  std::atomic<int> l0_max{0};

  const Counters before = CountersOf(db.get());
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(opt.seconds) * 1000000000ull;
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestWriters; ++t) {
    threads.emplace_back([&, t] {
      Client* me = clients[t];
      Random rng(Mix64(opt.seed * 131 + t));
      insert_us[t].reserve(1 << 20);
      me->Start();
      uint64_t updates = 0;
      while (NowNanos() < deadline) {
        const uint64_t op = me->NextOp();
        ScopedSpan op_span(me, kSpanOp, op);
        if (opt.trace && t == 0) {
          l0_max.store(std::max(l0_max.load(), L0Files(db.get())));
        }
        if (inserted[t] > 0 && rng.Uniform(100) == 0) {
          const UpdatePick pick =
              PickUpdate(&rng, inserted[t], kIngestBaseRows, kIngestWriters, t);
          const ColumnValue value = run->gen().UpdateValue(pick.ordinal, pick.column, updates++);
          const uint64_t key = run->gen().Key(pick.ordinal);
          const uint64_t t0 = NowNanos();
          Status status;
          {
            ScopedSpan span(me, kSpanUpdate, op);
            status = db->Update(key, {{pick.column, value}});
          }
          update_us[t].push_back((NowNanos() - t0) / 1e3);
          if (status.ok()) {
            logs[t].push_back({pick.ordinal, pick.column, value});
          } else {
            ++failed[t];
          }
        } else {
          const uint64_t ordinal = kIngestBaseRows + t + inserted[t] * kIngestWriters;
          const std::vector<ColumnValue> row = run->gen().Row(ordinal);
          const uint64_t key = run->gen().Key(ordinal);
          const uint64_t t0 = NowNanos();
          Status status;
          {
            ScopedSpan span(me, kSpanInsert, op);
            status = db->Insert(key, row);
          }
          insert_us[t].push_back((NowNanos() - t0) / 1e3);
          if (status.ok()) {
            ++inserted[t];
          } else {
            ++failed[t];
          }
        }
      }
      me->Stop();
    });
  }
  for (auto& thread : threads) thread.join();
  {
    // The window closes only after the backlog of flushes and compactions
    // has drained, so deferring background work cannot look like a gain.
    // The drain is charged to the first writer's thread.
    Client* me = clients[0];
    const uint64_t op = me->NextOp();
    ScopedSpan op_span(me, kSpanOp, op);
    ScopedSpan span(me, kSpanDrain, op);
    db->WaitForBackgroundWork();
  }
  clients[0]->Stop();
  const double window_s = (NowNanos() - start) / 1e9;
  // Peak memory of set-up and window; the oracles' own memory comes after.
  run->Layer("mem.rss_peak_mb", PeakRssMb(), "MB");
  const Counters delta = CountersOf(db.get()) - before;

  std::vector<double> inserts, updates;
  uint64_t rows = 0, failures = 0, update_count = 0;
  for (int t = 0; t < kIngestWriters; ++t) {
    inserts.insert(inserts.end(), insert_us[t].begin(), insert_us[t].end());
    updates.insert(updates.end(), update_us[t].begin(), update_us[t].end());
    rows += inserted[t];
    failures += failed[t];
    update_count += update_us[t].size();
  }
  Report* report = run->report();
  report->attempted = inserts.size() + updates.size();
  report->failed = failures;

  const double rows_per_s = rows / window_s;
  const double p50 = run->Pct("insert", inserts, 50);
  const double p90 = run->Pct("insert", inserts, 90);
  const double p99 = run->Pct("insert", inserts, 99, false);
  const double upd50 = run->Pct("update", updates, 50);
  run->E2e("work_per_s", rows_per_s, "1/s");
  run->E2e("op_mean_us", MeanOf(inserts), "us");
  run->E2e("op_p90_us", p90, "us");
  run->Named("ingest_rows_per_s", rows_per_s, "rows/s");
  run->Named("insert_p50_us", p50, "us");
  run->Named("insert_p90_us", p90, "us");
  run->Named("insert_p99_us", p99, "us");
  run->Named("update_p50_us", upd50, "us");
  run->Named("insert_mean_us", MeanOf(inserts), "us");
  run->Named("update_mean_us", MeanOf(updates), "us");
  run->Layer("tail.op_p99_us", p99, "us");
  run->Named("window_s", window_s, "s");
  run->Header("rows_inserted", std::to_string(rows));
  run->Header("updates", std::to_string(update_count));

  std::vector<uint64_t> ordinals;
  for (uint64_t o = 0; o < kIngestBaseRows; ++o) ordinals.push_back(o);
  for (int t = 0; t < kIngestWriters; ++t) {
    for (uint64_t j = 0; j < inserted[t]; ++j) {
      ordinals.push_back(kIngestBaseRows + t + j * kIngestWriters);
    }
  }
  uint64_t live = 0;
  report->wrong += VerifyNarrowTable(run, db.get(), ordinals, logs, &live);
  run->Amplification(CountersOf(db.get()), live, kNarrowRowBytes);
  run->LayerCounters(delta, report->attempted,
                     db->stats().filter_bytes_total.load());
  run->TraceReport(l0_max.load(), 0);
  return true;
}

// ---------------------------------------------------------------------------
// olap_scan: one closed-loop client over a settled tree several times the
// block cache; a seeded mix of Q4, Q5, a pushdown scan and a NextBatch scan.
// ---------------------------------------------------------------------------

enum ScanKind { kQ4, kQ5, kPushdown, kBatch, kNumScanKinds };
constexpr const char* kScanKindNames[kNumScanKinds] = {"q4", "q5", "pushdown",
                                                       "next_batch"};

struct ScanQuery {
  ScanKind kind;
  uint64_t lo, hi;      // key range
  uint64_t from, to;    // pushdown: ordinal window [from, to]
};

/// What a scan returned, reduced to numbers the reference can reproduce.
struct ScanDigest {
  uint64_t rows = 0;
  std::vector<uint64_t> values;  // per projected column: sum (max for Q5)

  bool operator==(const ScanDigest&) const = default;
};

ColumnSet ProjectionOf(ScanKind kind) {
  switch (kind) {
    case kQ4: return MakeColumnRange(21, 30);
    case kQ5: return MakeColumnRange(28, 30);
    case kPushdown: {
      ColumnSet projection = {1};
      for (int c = 11; c <= 20; ++c) projection.push_back(c);
      return projection;
    }
    default: return MakeColumnRange(1, kColumns);
  }
}

/// The `n`th scan: the kinds take turns, so every run has the same mix;
/// ranges and windows are seeded.
ScanQuery DrawScan(Random* rng, uint64_t n) {
  ScanQuery q{};
  q.kind = static_cast<ScanKind>(n % kNumScanKinds);
  const double width = q.kind == kQ4 ? 0.05 : q.kind == kQ5 ? 0.5 : 0.01;
  const uint64_t span = static_cast<uint64_t>(width * kKeyDomain);
  q.lo = rng->Uniform(kKeyDomain - span);
  q.hi = q.lo + span;
  if (q.kind == kPushdown) {
    // A 10% key range filtered on a 1% insertion-time window: about 1% of
    // the scanned rows match.
    q.lo = rng->Uniform(kKeyDomain - 10 * span);
    q.hi = q.lo + 10 * span;
    const uint64_t rows = kOlapRows / 100;
    q.from = rng->Uniform(kOlapRows - rows);
    q.to = q.from + rows - 1;
  }
  return q;
}

/// Folds one generated row into a digest the way the engine-side
/// aggregate does.
void FoldRow(ScanKind kind, const ColumnSet& projection, const RowGen& gen,
             uint64_t ordinal, ScanDigest* d) {
  ++d->rows;
  for (size_t i = 0; i < projection.size(); ++i) {
    const ColumnValue v = gen.Value(ordinal, projection[i]);
    d->values[i] = kind == kQ5 ? std::max<uint64_t>(d->values[i], v)
                               : d->values[i] + v;
  }
}

bool RunOlapScan(Run* run) {
  const RunOptions& opt = run->options();
  std::unique_ptr<LaserDB> db;
  LaserOptions options = NarrowOptions(run->DbDir(), kOlapCacheBytes,
                                       WalSyncPolicy::kNoSync);
  // One background thread, and compaction only once the whole load sits
  // in L0, make the settled tree, and so every block count, a function of
  // the seed.
  options.background_threads = 1;
  options.disable_auto_compactions = true;
  options.level0_stop_writes_trigger = 1 << 20;
  if (!run->TimedSetup([&] { db.reset(); }, [&] {
        LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db));
        LASER_RETURN_IF_ERROR(LoadRows(db.get(), run->gen(), 0, kOlapRows));
        LASER_RETURN_IF_ERROR(db->Flush());
        LASER_RETURN_IF_ERROR(db->CompactUntilStable());
        db->WaitForBackgroundWork();
        return Status::OK();
      })) {
    return false;
  }
  run->Header("rows", std::to_string(kOlapRows));
  run->Header("client_threads", "1 closed-loop");
  run->Header("block_cache_bytes", std::to_string(kOlapCacheBytes));
  run->Header("background_threads", "1");
  run->Header("wal_sync_policy", PolicyName(options.wal_sync_policy));
  run->Header("scan_mix", "q4 5% cols 21-30 sum | q5 50% cols 28-30 max | "
                          "pushdown 10% range, col1 in 1% window, cols 1,11-20 | "
                          "next_batch 1% all cols; kinds take turns");

  // Warm the block cache with a fixed, seeded prefix of the same mix before
  // the window, so the first second does not time cache fill.
  {
    Random warm_rng(Mix64(opt.seed * 977 + 6));
    ScanAggregates aggs;
    for (uint64_t n = 0; n < kOlapWarmupScans; ++n) {
      const ScanQuery q = DrawScan(&warm_rng, n);
      auto scan = db->NewScan(q.lo, q.hi, ProjectionOf(q.kind));
      if (scan == nullptr || !scan->AggregateAll(&aggs).ok()) {
        run->Error("olap_scan: warm-up scan failed");
        return false;
      }
    }
  }
  Client* me = run->AddClient();
  Random rng(Mix64(opt.seed * 977 + 5));
  std::vector<ScanQuery> queries;
  std::vector<ScanDigest> digests;
  std::vector<double> latency_us, kind_us[kNumScanKinds];
  uint64_t rows_scanned = 0, failed = 0;
  const Counters before = CountersOf(db.get());
  Counters counted;
  ScanBatch batch;
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(opt.seconds) * 1000000000ull;
  me->Start();
  while (NowNanos() < deadline) {
    const ScanQuery q = DrawScan(&rng, queries.size());
    const ColumnSet projection = ProjectionOf(q.kind);
    const uint64_t op = me->NextOp();
    ScopedSpan op_span(me, kSpanOp, op);
    ScanDigest digest;
    digest.values.assign(projection.size(), 0);
    const uint64_t t0 = NowNanos();
    bool ok = true;
    std::unique_ptr<laser::ScanIterator> scan;
    {
      ScopedSpan span(me, kSpanNewScan, op);
      if (q.kind == kPushdown) {
        laser::ScanSpec spec;
        spec.predicates.push_back({1, laser::PredOp::kBetween, q.from, q.to});
        scan = db->NewScan(q.lo, q.hi, projection, spec);
      } else {
        scan = db->NewScan(q.lo, q.hi, projection);
      }
    }
    if (scan == nullptr) {
      ok = false;
    } else if (q.kind == kBatch) {
      for (;;) {
        size_t n;
        {
          ScopedSpan span(me, kSpanNextBatch, op);
          n = scan->NextBatch(&batch);
        }
        if (n == 0) break;
        for (size_t r = 0; r < n; ++r) {
          ++digest.rows;
          for (size_t i = 0; i < projection.size(); ++i) {
            digest.values[i] += batch.columns[i].values[r];
          }
        }
      }
      ok = scan->status().ok();
    } else {
      ScanAggregates aggs;
      {
        ScopedSpan span(me, kSpanAggregateAll, op);
        ok = scan->AggregateAll(&aggs).ok();
      }
      digest.rows = aggs.rows;
      digest.values = q.kind == kQ5 ? aggs.maxima : aggs.sums;
    }
    scan.reset();
    const double us = (NowNanos() - t0) / 1e3;
    latency_us.push_back(us);
    kind_us[q.kind].push_back(us);
    if (!ok) ++failed;
    rows_scanned += digest.rows;
    queries.push_back(q);
    digests.push_back(std::move(digest));
    if (queries.size() == kOlapCountedScans) counted = CountersOf(db.get()) - before;
  }
  me->Stop();
  const double window_s = (NowNanos() - start) / 1e9;
  // Peak memory of set-up and window; the oracles' own memory comes after.
  run->Layer("mem.rss_peak_mb", PeakRssMb(), "MB");
  if (queries.size() < kOlapCountedScans) {
    run->Error("olap_scan: fewer than " + std::to_string(kOlapCountedScans) +
               " scans completed; counters cover the whole window");
    counted = CountersOf(db.get()) - before;
  }

  Report* report = run->report();
  report->attempted = queries.size();
  report->failed = failed;

  // Reference aggregates from the generator, outside the timed window.
  std::vector<std::pair<uint64_t, uint64_t>> sorted;  // key, ordinal
  sorted.reserve(kOlapRows);
  for (uint64_t o = 0; o < kOlapRows; ++o) sorted.emplace_back(run->gen().Key(o), o);
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < queries.size(); ++i) {
    const ScanQuery& q = queries[i];
    const ColumnSet projection = ProjectionOf(q.kind);
    ScanDigest want;
    want.values.assign(projection.size(), 0);
    auto fold = [&](uint64_t ordinal) {
      FoldRow(q.kind, projection, run->gen(), ordinal, &want);
    };
    if (q.kind == kPushdown) {
      for (uint64_t o = q.from; o <= q.to; ++o) {
        const uint64_t key = run->gen().Key(o);
        if (q.lo <= key && key <= q.hi) fold(o);
      }
    } else {
      auto it = std::lower_bound(sorted.begin(), sorted.end(),
                                 std::make_pair(q.lo, uint64_t{0}));
      for (; it != sorted.end() && it->first <= q.hi; ++it) fold(it->second);
    }
    if (opt.inject_fault && i == queries.size() / 2) ++want.rows;
    if (!(want == digests[i])) ++report->wrong;
  }

  // Latency is reported per kind: a percentile over the whole mix would
  // fall in the gap between two kinds and jump with either.
  const double q4_90 = run->Pct("q4 scan", kind_us[kQ4], 90);
  run->E2e("work_per_s", rows_scanned / window_s, "1/s");
  run->E2e("op_mean_us", MeanOf(kind_us[kQ4]), "us");
  run->E2e("op_p90_us", q4_90, "us");
  // Too few Q4 scans for their own p99: the tail is over every scan.
  const double scan99 = run->Pct("scan", latency_us, 99, false);
  run->Layer("tail.op_p99_us", scan99, "us");
  run->Named("scan_p99_ms", scan99 / 1e3, "ms");
  run->Named("scan_rows_per_s", rows_scanned / window_s, "rows/s");
  run->Named("scan_p50_ms", run->Pct("scan", latency_us, 50) / 1e3, "ms");
  run->Named("scan_p90_ms", run->Pct("scan", latency_us, 90) / 1e3, "ms");
  for (int kind = 0; kind < kNumScanKinds; ++kind) {
    run->Named(std::string(kScanKindNames[kind]) + "_p50_ms",
               run->Pct(kScanKindNames[kind], kind_us[kind], 50) / 1e3, "ms");
  }
  run->Named("q4_p90_ms", q4_90 / 1e3, "ms");
  run->Named("q4_mean_ms", MeanOf(kind_us[kQ4]) / 1e3, "ms");
  run->Named("scans", queries.size(), "count");
  run->Amplification(CountersOf(db.get()), kOlapRows, kNarrowRowBytes);
  run->LayerCounters(counted, 0, db->stats().filter_bytes_total.load());
  run->TraceReport(L0Files(db.get()), 0);
  return true;
}

// ---------------------------------------------------------------------------
// htap_mixed: open-loop writers at a fixed rate, a closed-loop point reader
// and a closed-loop scanner on one loaded tree.
// ---------------------------------------------------------------------------

/// Sleeps until `due`; a waiting thread must not spin on a 4-core machine
/// that also runs the engine's background work.
void SleepUntil(uint64_t due) {
  const uint64_t now = NowNanos();
  if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
}

bool RunHtapMixed(Run* run) {
  const RunOptions& opt = run->options();
  std::unique_ptr<LaserDB> db;
  LaserOptions options = NarrowOptions(run->DbDir(), kHtapCacheBytes,
                                       WalSyncPolicy::kSyncIntervalMs);
  if (!run->TimedSetup([&] { db.reset(); }, [&] {
        LASER_RETURN_IF_ERROR(LaserDB::Open(options, &db));
        LASER_RETURN_IF_ERROR(LoadRows(db.get(), run->gen(), 0, kHtapBaseRows));
        db->WaitForBackgroundWork();
        return Status::OK();
      })) {
    return false;
  }
  run->Header("base_rows", std::to_string(kHtapBaseRows));
  run->Header("client_threads",
              "2 open-loop writers, 1 closed-loop reader, 1 closed-loop scanner");
  run->Header("write_rate_per_s", Num(kHtapWriteRate));
  run->Header("block_cache_bytes", std::to_string(kHtapCacheBytes));
  run->Header("wal_sync_policy", PolicyName(options.wal_sync_policy));

  std::vector<Client*> writers;
  for (int t = 0; t < kHtapWriters; ++t) writers.push_back(run->AddClient());
  Client* reader = run->AddClient();
  Client* scanner = run->AddClient();

  std::vector<std::vector<double>> write_us(kHtapWriters), lag_us(kHtapWriters);
  std::vector<std::vector<AckedUpdate>> logs(kHtapWriters);
  std::vector<uint64_t> writer_failed(kHtapWriters, 0);
  std::atomic<uint64_t> acked[kHtapWriters];
  for (auto& a : acked) a.store(0);
  std::vector<double> read_us, scan_us;
  uint64_t reads = 0, read_failed = 0, read_missing = 0;
  uint64_t scans = 0, scan_rows = 0, scan_failed = 0;
  std::atomic<int> l0_max{0};

  const Counters before = CountersOf(db.get());
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(opt.seconds) * 1000000000ull;
  const uint64_t period_ns = static_cast<uint64_t>(1e9 * kHtapWriters / kHtapWriteRate);

  std::vector<std::thread> threads;
  for (int t = 0; t < kHtapWriters; ++t) {
    threads.emplace_back([&, t] {
      // Fine timer slack so a sleeping writer wakes close to its due time.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
      Client* me = writers[t];
      Random rng(Mix64(opt.seed * 7919 + t));
      write_us[t].reserve(1 << 20);
      lag_us[t].reserve(1 << 20);
      me->Start();
      uint64_t own = 0, updates = 0;
      // Writers start half a period apart so their due times interleave.
      for (uint64_t due = start + t * period_ns / kHtapWriters; due < deadline;
           due += period_ns) {
        const uint64_t op = me->NextOp();
        {
          ScopedSpan wait(me, kSpanWait, op);
          SleepUntil(due);
        }
        ScopedSpan op_span(me, kSpanOp, op);
        if (opt.trace && t == 0) {
          l0_max.store(std::max(l0_max.load(), L0Files(db.get())));
        }
        lag_us[t].push_back((NowNanos() - due) / 1e3);
        Status status;
        if (own > 0 && rng.Uniform(100) == 0) {
          const UpdatePick pick = PickUpdate(&rng, own, kHtapBaseRows, kHtapWriters, t);
          const ColumnValue value =
              run->gen().UpdateValue(pick.ordinal, pick.column, updates++);
          {
            ScopedSpan span(me, kSpanUpdate, op);
            status = db->Update(run->gen().Key(pick.ordinal), {{pick.column, value}});
          }
          if (status.ok()) logs[t].push_back({pick.ordinal, pick.column, value});
        } else {
          const uint64_t ordinal = kHtapBaseRows + t + own * kHtapWriters;
          const std::vector<ColumnValue> row = run->gen().Row(ordinal);
          {
            ScopedSpan span(me, kSpanInsert, op);
            status = db->Insert(run->gen().Key(ordinal), row);
          }
          if (status.ok()) acked[t].store(++own, std::memory_order_release);
        }
        write_us[t].push_back((NowNanos() - due) / 1e3);
        if (!status.ok()) ++writer_failed[t];
      }
      me->Stop();
    });
  }
  threads.emplace_back([&] {
    Client* me = reader;
    Random rng(Mix64(opt.seed * 104729 + 1));
    const ColumnSet q2a = MakeColumnRange(1, 30), q2b = MakeColumnRange(16, 30);
    LaserDB::ReadResult result;
    me->Start();
    while (NowNanos() < deadline) {
      const bool wide = rng.Uniform(2) == 0;
      const double f = Clamp01(rng.NextGaussian(wide ? 0.98 : 0.85, 0.02));
      // Age order: the base rows, then the writers' rows interleaved.
      uint64_t counts[kHtapWriters];
      uint64_t total = kHtapBaseRows;
      for (int w = 0; w < kHtapWriters; ++w) {
        counts[w] = acked[w].load(std::memory_order_acquire);
        total += counts[w];
      }
      const uint64_t index = static_cast<uint64_t>(f * static_cast<double>(total - 1));
      uint64_t ordinal = index;
      if (index >= kHtapBaseRows) {
        const uint64_t w = (index - kHtapBaseRows) % kHtapWriters;
        const uint64_t j = std::min((index - kHtapBaseRows) / kHtapWriters,
                                    counts[w] == 0 ? 0 : counts[w] - 1);
        ordinal = counts[w] == 0 ? kHtapBaseRows - 1
                                 : kHtapBaseRows + w + j * kHtapWriters;
      }
      const uint64_t op = me->NextOp();
      ScopedSpan op_span(me, kSpanOp, op);
      const uint64_t t0 = NowNanos();
      Status status;
      {
        ScopedSpan span(me, kSpanRead, op);
        status = db->Read(run->gen().Key(ordinal), wide ? q2a : q2b, &result);
      }
      read_us.push_back((NowNanos() - t0) / 1e3);
      ++reads;
      if (!status.ok()) {
        ++read_failed;
      } else if (!result.found) {
        ++read_missing;  // an acknowledged row must be visible
      }
    }
    me->Stop();
  });
  threads.emplace_back([&] {
    Client* me = scanner;
    Random rng(Mix64(opt.seed * 15485863 + 2));
    me->Start();
    // Q4 and Q5 take turns, so the mix, and with it rows per second, is
    // the same in every run.
    for (uint64_t n = 0; NowNanos() < deadline; ++n) {
      const bool q4 = n % 2 == 0;
      const uint64_t span_keys =
          static_cast<uint64_t>((q4 ? 0.05 : 0.5) * kKeyDomain);
      const uint64_t lo = rng.Uniform(kKeyDomain - span_keys);
      const uint64_t op = me->NextOp();
      ScopedSpan op_span(me, kSpanOp, op);
      const uint64_t t0 = NowNanos();
      std::unique_ptr<laser::ScanIterator> scan;
      {
        ScopedSpan span(me, kSpanNewScan, op);
        scan = db->NewScan(lo, lo + span_keys,
                           q4 ? MakeColumnRange(21, 30) : MakeColumnRange(28, 30));
      }
      ScanAggregates aggs;
      bool ok = scan != nullptr;
      if (ok) {
        ScopedSpan span(me, kSpanAggregateAll, op);
        ok = scan->AggregateAll(&aggs).ok();
      }
      scan.reset();
      scan_us.push_back((NowNanos() - t0) / 1e3);
      ++scans;
      scan_rows += aggs.rows;
      if (!ok) ++scan_failed;
    }
    me->Stop();
  });
  for (auto& thread : threads) thread.join();
  const double window_s = (NowNanos() - start) / 1e9;
  // Peak memory of set-up and window; the oracles' own memory comes after.
  run->Layer("mem.rss_peak_mb", PeakRssMb(), "MB");
  db->WaitForBackgroundWork();
  const Counters delta = CountersOf(db.get()) - before;

  std::vector<double> writes, lags;
  uint64_t write_failed = 0;
  for (int t = 0; t < kHtapWriters; ++t) {
    writes.insert(writes.end(), write_us[t].begin(), write_us[t].end());
    lags.insert(lags.end(), lag_us[t].begin(), lag_us[t].end());
    write_failed += writer_failed[t];
  }
  Report* report = run->report();
  report->attempted = writes.size() + reads + scans;
  report->failed = write_failed + read_failed + scan_failed;
  report->wrong += read_missing;

  const double read50 = run->Pct("read", read_us, 50);
  const double read90 = run->Pct("read", read_us, 90);
  const double read99 = run->Pct("read", read_us, 99, false);
  const double write50 = run->Pct("write", writes, 50);
  const double write99 = run->Pct("write", writes, 99, false);
  const double scan50 = run->Pct("scan", scan_us, 50);
  const double scan90 = run->Pct("scan", scan_us, 90);
  run->E2e("work_per_s", scan_rows / window_s, "1/s");
  run->E2e("op_mean_us", MeanOf(read_us), "us");
  run->E2e("op_p90_us", read90, "us");
  run->Named("scan_rows_per_s", scan_rows / window_s, "rows/s");
  run->Named("read_p50_us", read50, "us");
  run->Named("read_p90_us", read90, "us");
  run->Named("read_p99_us", read99, "us");
  run->Named("read_mean_us", MeanOf(read_us), "us");
  run->Named("write_mean_us", MeanOf(writes), "us");
  run->Layer("tail.op_p99_us", read99, "us");
  run->Named("insert_p50_us", write50, "us");
  run->Named("insert_p99_us", write99, "us");
  run->Named("scan_p50_ms", scan50 / 1e3, "ms");
  run->Named("scan_p90_ms", scan90 / 1e3, "ms");
  run->Named("achieved_write_rate", writes.size() / window_s, "1/s");

  std::vector<uint64_t> ordinals;
  for (uint64_t o = 0; o < kHtapBaseRows; ++o) ordinals.push_back(o);
  for (int t = 0; t < kHtapWriters; ++t) {
    for (uint64_t j = 0; j < acked[t].load(); ++j) {
      ordinals.push_back(kHtapBaseRows + t + j * kHtapWriters);
    }
  }
  uint64_t live = 0;
  report->wrong += VerifyNarrowTable(run, db.get(), ordinals, logs, &live);
  run->Amplification(CountersOf(db.get()), live, kNarrowRowBytes);
  run->LayerCounters(delta, writes.size(), db->stats().filter_bytes_total.load());
  run->TraceReport(l0_max.load(), run->Pct("generator lag", lags, 99, false));
  return true;
}

// ---------------------------------------------------------------------------
// tpcc_sharded: TPC-C NewOrder/Payment/OrderStatus plus CH-Q1 over four
// shards with cross-shard 2PC and a group-synced WAL.
// ---------------------------------------------------------------------------

bool RunTpcc(Run* run) {
  namespace tpcc = laser::tpcc;
  const RunOptions& opt = run->options();
  tpcc::TpccSpec spec;
  spec.seed = opt.seed;
  spec.customers = 100;
  spec.items = 10000;
  laser::ShardedLaserOptions options =
      tpcc::TpccOptions(laser::Env::Default(), run->DbDir(), spec, kTpccShards);
  options.base.wal_sync_policy = WalSyncPolicy::kSyncEveryGroup;
  options.base.cg_config = PinnedTpccDesign();
  std::unique_ptr<ShardedLaserDB> db;
  std::unique_ptr<tpcc::TpccDriver> frontend;
  const auto teardown = [&] {
    frontend.reset();
    db.reset();
  };
  if (!run->TimedSetup(teardown, [&] {
        LASER_RETURN_IF_ERROR(ShardedLaserDB::Open(options, &db));
        frontend = std::make_unique<tpcc::TpccDriver>(spec, db.get());
        return frontend->Load();
      }, kTpccSetupRepeats)) {
    return false;
  }
  run->Header("warehouses", std::to_string(spec.warehouses));
  run->Header("shards", std::to_string(kTpccShards));
  run->Header("client_threads", "3 closed-loop txn writers, 1 closed-loop CH-Q1");
  run->Header("txn_mix", "new_order 45% payment 43% order_status 12%");
  run->Header("block_cache_bytes_per_shard",
              std::to_string(options.base.block_cache_bytes));
  run->Header("wal_sync_policy", PolicyName(options.base.wal_sync_policy));

  std::vector<Client*> writers;
  for (int t = 0; t < kTpccWriters; ++t) writers.push_back(run->AddClient());
  Client* analyst = run->AddClient();
  std::vector<std::vector<double>> new_order_us(kTpccWriters);
  std::vector<uint64_t> txns(kTpccWriters, 0), failed(kTpccWriters, 0);
  std::vector<double> q1_us;
  uint64_t q1_failed = 0;
  std::atomic<int> l0_max{0};

  std::vector<Counters> shard_before;
  for (int s = 0; s < kTpccShards; ++s) shard_before.push_back(CountersOf(db->shard(s)));
  const Counters before = CountersOf(db.get());
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(opt.seconds) * 1000000000ull;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTpccWriters; ++t) {
    threads.emplace_back([&, t] {
      Client* me = writers[t];
      Random rng(Mix64(opt.seed * 31337 + t));
      me->Start();
      while (NowNanos() < deadline) {
        const uint32_t home = 1 + static_cast<uint32_t>(rng.Uniform(spec.warehouses));
        const uint64_t roll = rng.Uniform(100);
        const uint64_t op = me->NextOp();
        ScopedSpan op_span(me, kSpanOp, op);
        if (opt.trace && t == 0) {
          int l0 = 0;
          for (int s = 0; s < kTpccShards; ++s) l0 = std::max(l0, L0Files(db->shard(s)));
          l0_max.store(std::max(l0_max.load(), l0));
        }
        const uint64_t t0 = NowNanos();
        Status status;
        if (roll < static_cast<uint64_t>(spec.new_order_pct)) {
          {
            ScopedSpan span(me, kSpanNewOrder, op);
            status = frontend->NewOrder(home, &rng);
          }
          new_order_us[t].push_back((NowNanos() - t0) / 1e3);
        } else if (roll < static_cast<uint64_t>(spec.new_order_pct + spec.payment_pct)) {
          ScopedSpan span(me, kSpanPayment, op);
          status = frontend->Payment(home, &rng);
        } else {
          ScopedSpan span(me, kSpanOrderStatus, op);
          status = frontend->OrderStatus(home, &rng);
        }
        ++txns[t];
        if (!status.ok()) ++failed[t];
      }
      me->Stop();
    });
  }
  threads.emplace_back([&] {
    Client* me = analyst;
    std::vector<tpcc::Q1Group> groups;
    me->Start();
    while (NowNanos() < deadline) {
      const uint64_t op = me->NextOp();
      ScopedSpan op_span(me, kSpanOp, op);
      const uint64_t t0 = NowNanos();
      Status status;
      {
        ScopedSpan span(me, kSpanQ1, op);
        status = frontend->RunQ1(&groups);
      }
      q1_us.push_back((NowNanos() - t0) / 1e3);
      if (!status.ok()) ++q1_failed;
    }
    me->Stop();
  });
  for (auto& thread : threads) thread.join();
  const double window_s = (NowNanos() - start) / 1e9;
  // Peak memory of set-up and window; the oracles' own memory comes after.
  run->Layer("mem.rss_peak_mb", PeakRssMb(), "MB");
  const Counters delta = CountersOf(db.get()) - before;

  // One more Q1 after the writers quiesced, so every acked NewOrder is
  // observed by the freshness probe; then the TPC-C invariants.
  std::vector<tpcc::Q1Group> groups;
  Report* report = run->report();
  if (!frontend->RunQ1(&groups).ok()) ++q1_failed;
  if (opt.inject_fault) {
    // A stray payment the frontend never saw breaks w_ytd == sum(d_ytd).
    (void)db->Update(tpcc::WarehouseKey(1), {{tpcc::kColAmount, 1}});
  }
  const Status verify = frontend->VerifyInvariants();
  if (!verify.ok()) {
    ++report->wrong;
    run->Error("tpcc invariants: " + verify.ToString());
  }

  std::vector<double> new_orders;
  uint64_t total = 0, failures = q1_failed;
  for (int t = 0; t < kTpccWriters; ++t) {
    new_orders.insert(new_orders.end(), new_order_us[t].begin(), new_order_us[t].end());
    total += txns[t];
    failures += failed[t];
  }
  report->attempted = total + q1_us.size();
  report->failed = failures;
  const double no50 = run->Pct("new_order", new_orders, 50);
  const double no90 = run->Pct("new_order", new_orders, 90);
  const double no99 = run->Pct("new_order", new_orders, 99, false);
  const double q1_50 = run->Pct("q1", q1_us, 50);
  run->E2e("work_per_s", total / window_s, "1/s");
  run->E2e("op_mean_us", MeanOf(new_orders), "us");
  run->E2e("op_p90_us", no90, "us");
  run->Named("txn_per_s", total / window_s, "1/s");
  run->Named("new_order_p50_us", no50, "us");
  run->Named("new_order_p90_us", no90, "us");
  run->Named("new_order_p99_us", no99, "us");
  run->Named("new_order_mean_us", MeanOf(new_orders), "us");
  run->Layer("tail.op_p99_us", no99, "us");
  run->Named("ch_q1_p50_ms", q1_50 / 1e3, "ms");
  run->Named("ch_q1_rounds", q1_us.size(), "count");

  // Live logical bytes: every row in the table, counted by one full scan.
  uint64_t live_rows = 0;
  if (auto scan = db->NewScan(0, UINT64_MAX, {tpcc::kColTable}); scan != nullptr) {
    ScanBatch batch;
    while (size_t n = scan->NextBatch(&batch)) live_rows += n;
  }
  db->WaitForBackgroundWork();
  run->Amplification(CountersOf(db.get()), live_rows, 8 + 2 * 4 + 6 * 8);
  uint64_t filter_bytes = 0;
  double max_writes = 0, sum_writes = 0;
  for (int s = 0; s < kTpccShards; ++s) {
    filter_bytes += db->shard(s)->stats().filter_bytes_total.load();
    const double writes =
        (CountersOf(db->shard(s)) - shard_before[s]).wal_group_writes;
    max_writes = std::max(max_writes, writes);
    sum_writes += writes;
  }
  run->LayerCounters(delta, total, filter_bytes);
  run->Layer("sharded.shard_skew", Ratio(max_writes, sum_writes / kTpccShards), "ratio");
  run->Layer("tpcc.freshness_p50_ms",
             frontend->probe().lags().count() > 0
                 ? frontend->probe().lags().Percentile(50) / 1e3
                 : 0,
             "ms");
  run->TraceReport(l0_max.load(), 0);
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest", "olap_scan",
                                                 "htap_mixed", "tpcc_sharded"};
  return names;
}

bool RunWorkload(const RunOptions& options, Report* report) {
  Run run(options, report);
  run.Header("workload", options.workload);
  run.Header("seed", std::to_string(options.seed));
  run.Header("seconds", std::to_string(options.seconds));
  run.Header("trace", options.trace ? "1" : "0");
  run.Header("env", "PosixEnv");
  run.Header("design", options.workload == "tpcc_sharded"
                           ? PinnedTpccDesign().ToString()
                           : PinnedNarrowDesign().ToString());
  bool ok = false;
  if (options.workload == "ingest") {
    ok = RunIngest(&run);
  } else if (options.workload == "olap_scan") {
    ok = RunOlapScan(&run);
  } else if (options.workload == "htap_mixed") {
    ok = RunHtapMixed(&run);
  } else if (options.workload == "tpcc_sharded") {
    ok = RunTpcc(&run);
  } else {
    run.Error("unknown workload " + options.workload);
  }
  report->layers.try_emplace("mem.rss_peak_mb", Metric{PeakRssMb(), "MB"});
  // Layers only one workload has read 0 on the others.
  for (const auto& [name, unit] :
       {std::pair{"tpcc.freshness_p50_ms", "ms"}, {"sharded.shard_skew", "ratio"}}) {
    report->layers.try_emplace(name, Metric{0, unit});
  }
  std::error_code ec;
  std::filesystem::remove_all(run.DbDir(), ec);
  return ok;
}

}  // namespace perfbench
