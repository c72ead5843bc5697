// randrank_bench: the repository benchmark (see perfbench/README.md).
//
//   randrank_bench --workload publish-1m|rank-mix --seed N --seconds S
//                  --trace 0|1 [--git-sha SHA] [--trace-out PATH]
//
// Prints the host record, the input digest and a metric table, then, as the
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones. Exits 1 when a correctness gate failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

bool ParseArgs(int argc, char** argv, Options* opts) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      opts->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || opts->seconds <= 0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opts->trace = value == "1";
    } else if (arg == "--git-sha") {
      opts->git_sha = value;
    } else if (arg == "--trace-out") {
      opts->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::string MetricsJson(const MetricTable& table) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const MetricSpec& spec : table.specs()) {
    os << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": "
       << FormatNumber(table.Get(spec.name)) << ", \"unit\": \"" << spec.unit
       << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

void PrintTable(const char* title, const MetricTable& table) {
  std::printf("%s\n", title);
  for (const MetricSpec& spec : table.specs()) {
    std::printf("  %-40s %16s %s\n", spec.name,
                FormatNumber(table.Get(spec.name)).c_str(), spec.unit);
  }
}

double Share(uint64_t part, uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                   : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::cerr << "usage: randrank_bench --workload publish-1m|rank-mix "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
                 "[--trace-out PATH]\n";
    return 2;
  }
  RunOutput out;
  const CpuTicks ticks_begin = ReadCpuTicks();
  try {
    out = RunWorkload(opts);
  } catch (const std::exception& e) {
    std::cerr << "randrank_bench: " << e.what() << "\n";
    return 2;
  }
  const HostRecord host = MakeHostRecord(opts, ticks_begin, ReadCpuTicks());
  out.per_layer.Set("host.steal_frac", host.steal_frac);

  std::printf("workload %s seed %llu seconds %s trace %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              FormatNumber(opts.seconds).c_str(), opts.trace ? 1 : 0);
  std::printf("host %s\n", HostRecordJson(host).c_str());
  std::printf("input_digest %016llx\n",
              static_cast<unsigned long long>(out.input_digest));
  std::printf("queries sent %llu failed %llu (query_fail_ratio %s ratio)\n",
              static_cast<unsigned long long>(out.queries_sent),
              static_cast<unsigned long long>(out.queries_failed),
              FormatNumber(Share(out.queries_failed, out.queries_sent)).c_str());
  std::printf(
      "publishes attempted %llu failed %llu (publish_fail_ratio %s ratio)\n",
      static_cast<unsigned long long>(out.publishes_attempted),
      static_cast<unsigned long long>(out.publishes_failed),
      FormatNumber(Share(out.publishes_failed, out.publishes_attempted))
          .c_str());
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& problem : out.problems) {
    std::printf("FAILED: %s\n", problem.c_str());
  }
  const MetricTable& reported = opts.trace ? out.per_layer : out.end_to_end;
  PrintTable(opts.trace ? "per-layer metrics (traced run)"
                        : "end-to-end metrics (untraced run)",
             reported);

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false",
      static_cast<unsigned long long>(out.queries_sent +
                                      out.publishes_attempted),
      static_cast<unsigned long long>(out.queries_failed +
                                      out.publishes_failed),
      MetricsJson(reported).c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
