// Helpers shared by the benchmark workloads: latency summaries, open-loop
// request scheduling, layer timers for traced runs, run stamps, and the
// one-line JSON result.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// --- latency summaries ------------------------------------------------------

/// Percentiles the tail may be reported at, lowest first. The tail is the
/// highest rung that still has at least kTailBeyond samples above it.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9};
inline constexpr std::size_t kTailBeyond = 10;

/// Nearest-rank percentile of sorted samples (p in [0, 100]).
double Percentile(const std::vector<double>& sorted, double p);

/// Number of samples strictly above the nearest-rank `p`-th percentile
/// position of `n` samples.
std::size_t SamplesBeyond(std::size_t n, double p);

/// The highest ladder percentile with at least kTailBeyond samples beyond
/// it; the lowest rung when even that has fewer.
double TailPercentile(std::size_t n);

struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;
  double tail = 0.0;
};

/// Sorts `samples` in place and summarizes them.
LatencySummary Summarize(std::vector<double>& samples);

struct WindowedSummary {
  int windows = 0;
  double window_s = 0.0;
  double rate_per_s = 0.0;  ///< median over windows of completions per second
  double p50 = 0.0;         ///< median over windows of the window's p50
  double tail = 0.0;        ///< median over windows of the window's tail
  double tail_percentile = 0.0;       ///< rung used in the median window
  std::size_t samples_per_window = 0; ///< median samples per window
};

/// Operations split into consecutive groups of a fixed number, each group
/// summarized as it fills: its completion rate, p50 and tail. A run reports
/// the median over its groups, so one stall or scheduler hiccup moves one
/// group, the tail rung depends only on the group size (not on how fast the
/// program ran), and memory stays fixed however long the run is.
class GroupedRecorder {
 public:
  /// `start` is when the first group's clock starts.
  GroupedRecorder(Clock::time_point start, std::size_t group_size);
  /// Records an operation that took `value` and completed at `done`.
  void Add(Clock::time_point done, double value);
  /// Completed groups; a partly filled last group is left out.
  std::size_t groups() const { return rates_.size(); }
  /// Medians over the completed groups: windows = groups, window_s = the
  /// median group duration, samples_per_window = the group size.
  WindowedSummary Summary() const;

 private:
  std::size_t group_size_;
  Clock::time_point group_start_;
  std::vector<double> current_;
  std::vector<double> rates_, seconds_, p50s_, tails_;
  double tail_percentile_ = 0.0;
};

/// Summarizes samples stamped with their completion time (seconds from the
/// start of the measured interval) over `windows` equal time windows.
WindowedSummary SummarizeWindows(const std::vector<double>& done_s,
                                 const std::vector<double>& values, double seconds,
                                 int windows);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// --- open-loop scheduling ---------------------------------------------------

/// Due offsets (seconds from the start) of a Poisson arrival stream at
/// `rate_per_s` over `seconds`.
std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    std::mt19937_64& rng);

/// Open-loop outcome: latency is counted from each request's due time, so
/// time a request spent waiting behind an earlier slow one is charged to it.
struct OpenLoopResult {
  std::vector<double> latency_us;  ///< completion - due, completed requests
  std::vector<double> done_s;      ///< completion time from start, same order
  std::vector<double> late_us;     ///< send - due, every sent request
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Sends request i at start + due_s[i] (or as soon as the previous request
/// returns, when that is later), stopping at the first due time past
/// `stop`. `send(i)` performs request i and returns false when it failed.
OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, Clock::time_point start,
                           Clock::time_point stop,
                           const std::function<bool(std::size_t)>& send);

// --- layer timers for traced runs -------------------------------------------

/// Accumulates the time and call count of one layer boundary. Safe to add
/// from many threads.
class LayerTimer {
 public:
  void Add(double ns) {
    total_ns_.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  double total_ns() const {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed));
  }
  double mean_ns() const {
    const auto c = calls();
    return c == 0 ? 0.0 : total_ns() / static_cast<double>(c);
  }
 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Times `fn()` into `timer` when `timer` is non-null; runs it untimed
/// otherwise.
template <typename Fn>
auto Timed(LayerTimer* timer, Fn&& fn) -> decltype(fn()) {
  if (timer == nullptr) return fn();
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    timer->Add(NanosBetween(t0, Clock::now()));
  } else {
    auto result = fn();
    timer->Add(NanosBetween(t0, Clock::now()));
    return result;
  }
}

// --- run description and result ---------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One entry per failed output check; empty means every check passed.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result (parameters,
  /// which percentile the tail is, sample counts).
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what);
  void Add(std::string name, std::string unit, double value);
  void Note(std::string line);
};

/// Generator threads a workload may use: min(4, hardware threads).
int GeneratorThreads();

/// CPUs the calling thread may run on, lowest first (empty if unknown).
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and every thread it starts afterwards, to
/// `cpu`. Returns false when it could not.
bool PinToCpu(int cpu);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Runs `setup` `repeats` times and returns the median wall time in
/// seconds; the last repetition's product stays in whatever `setup` wrote.
double MedianSetupSeconds(int repeats, const std::function<void()>& setup);

/// Build stamp: "Release", "Debug", plus sanitizer markers, so results of
/// unoptimized or instrumented builds are never mistaken for Release ones.
std::string BuildStamp();
bool BuildIsComparable();

/// The single-line JSON result.
std::string ResultJson(const WorkloadResult& result);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
