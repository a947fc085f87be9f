// p4p_perfbench: one workload per invocation.
//
//   p4p_perfbench --workload <announce|loop|fleet> --seed <n>
//                 --seconds <s> --trace <0|1> [--rev <source revision>]
//   p4p_perfbench --list     # workload and metric names with units
//
// Prints a stamp (hardware threads, source revision, seed, build type), the
// workload's parameters and notes, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  RunOptions run;
  std::string rev = "unknown";
  bool list = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "p4p_perfbench: %s\nusage: p4p_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--rev <revision>] | --list\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.run.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.run.trace = std::stoi(value) != 0;
      } else if (flag == "--rev") {
        a.rev = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!a.list && !have_workload) Usage("--workload is required");
  if (!(a.run.seconds > 0.0)) Usage("--seconds must be positive");
  return a;
}

WorkloadResult Dispatch(const RunOptions& run) {
  if (run.workload == "announce") return RunAnnounce(run);
  if (run.workload == "loop") return RunLoop(run);
  if (run.workload == "fleet") return RunFleet(run);
  Usage(("unknown workload " + run.workload).c_str());
}

/// Orders the workload's metrics as the catalog lists them, fills idle
/// layers with 0, and rejects names outside the catalog or a missing
/// end-to-end metric (a benchmark bug, not a measurement).
void Canonicalize(WorkloadResult& r, bool trace) {
  const auto catalog = trace ? PerLayerMetrics() : EndToEndMetrics();
  std::map<std::string, Metric> given;
  for (auto& m : r.metrics) {
    if (!given.emplace(m.name, m).second) {
      throw std::logic_error("metric reported twice: " + m.name);
    }
  }
  std::vector<Metric> ordered;
  for (const auto& spec : catalog) {
    const auto it = given.find(spec.name);
    if (it == given.end()) {
      if (!trace) throw std::logic_error(std::string("missing metric ") + spec.name);
      ordered.push_back({spec.name, spec.unit, 0.0});
      continue;
    }
    if (it->second.unit != spec.unit) {
      throw std::logic_error("unit mismatch for " + it->first);
    }
    ordered.push_back(it->second);
    given.erase(it);
  }
  if (!given.empty()) throw std::logic_error("unlisted metric " + given.begin()->first);
  r.metrics = std::move(ordered);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.list) {
    for (const char* w : WorkloadNames()) std::printf("workload %s\n", w);
    for (const auto& m : EndToEndMetrics()) std::printf("end_to_end %s %s\n", m.name, m.unit);
    for (const auto& m : PerLayerMetrics()) std::printf("per_layer %s %s\n", m.name, m.unit);
    return 0;
  }
  std::printf("stamp: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "generator_threads=%d rev=%s build=%s%s\n",
              args.run.workload.c_str(), static_cast<unsigned long long>(args.run.seed),
              args.run.seconds, args.run.trace ? 1 : 0,
              std::thread::hardware_concurrency(), GeneratorThreads(), args.rev.c_str(),
              BuildStamp().c_str(),
              BuildIsComparable() ? "" : " NOT-COMPARABLE-WITH-RELEASE");
  std::fflush(stdout);

  WorkloadResult r = Dispatch(args.run);
  if (!args.run.trace) {
    const bool has_rss = std::any_of(r.metrics.begin(), r.metrics.end(),
                                     [](const Metric& m) { return m.name == "peak_rss_mb"; });
    if (!has_rss) r.Add("peak_rss_mb", "MB", PeakRssMb());
    r.Add("ok_frac", "ratio",
          r.attempted == 0 ? 0.0
                           : static_cast<double>(r.attempted - r.failed) /
                                 static_cast<double>(r.attempted));
  }
  Canonicalize(r, args.run.trace);
  for (const auto& note : r.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& failure : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  for (const auto& m : r.metrics) {
    std::printf("metric: %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(r).c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p4p_perfbench: %s\n", e.what());
    return 1;
  }
}
