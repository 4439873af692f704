// Entry point of the HTAP benchmark binary. run.py builds and calls it; it
// can also be run by hand:
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             --dir <run dir> [--inject-fault]
//
// Every flag except --inject-fault is required, and an unknown flag,
// workload or malformed value is an error (exit 2). The last line of
// standard output is one JSON object holding the run header, the metrics
// and the oracle counts; the exit code is 1 when any operation failed or
// any oracle found a wrong result.

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& error) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
          "--seconds <n> --trace <0|1> --dir <dir> [--inject-fault]\n",
          error.c_str());
  exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text,
                       uint64_t max) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  errno = 0;
  const unsigned long long value = strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value > max) Usage("out of range for " + flag + ": " + text);
  return value;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const std::map<std::string, perfbench::Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(name) + ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + Quote(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-fault") {
      options.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      bool known = false;
      for (const auto& name : perfbench::WorkloadNames()) known |= name == value;
      if (!known) Usage("unknown workload '" + value + "'");
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value, UINT32_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(ParseUnsigned(flag, value, 600));
      if (options.seconds < 1) Usage("--seconds must be at least 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--dir") {
      if (value.empty()) Usage("--dir must not be empty");
      options.dir = value;
      have_dir = true;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !have_dir) {
    Usage("--workload, --seed, --seconds, --trace and --dir are required");
  }

  perfbench::Report report;
  report.header.emplace_back("nproc",
                             std::to_string(std::thread::hardware_concurrency()));
  report.header.emplace_back("compiler", __VERSION__);
  report.header.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  const bool ran = perfbench::RunWorkload(options, &report);

  std::string header = "{";
  for (const auto& [key, value] : report.header) {
    if (header.size() > 1) header += ", ";
    header += Quote(key) + ": " + Quote(value);
  }
  header += "}";
  std::string errors = "[";
  for (const auto& error : report.errors) {
    if (errors.size() > 1) errors += ", ";
    errors += Quote(error);
  }
  errors += "]";
  printf("{\"ran\": %s, \"header\": %s, \"attempted\": %" PRIu64
         ", \"failed\": %" PRIu64 ", \"wrong\": %" PRIu64
         ", \"errors\": %s, \"e2e\": %s, \"named\": %s, \"layers\": %s}\n",
         ran ? "true" : "false", header.c_str(), report.attempted, report.failed,
         report.wrong, errors.c_str(), Metrics(report.e2e).c_str(),
         Metrics(report.named).c_str(), Metrics(report.layers).c_str());
  const bool correct = ran && report.errors.empty() && report.failed == 0 &&
                       report.wrong == 0;
  return correct ? 0 : 1;
}
