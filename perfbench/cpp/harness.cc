#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based nearest-rank position of the p-th percentile among n > 0
/// samples. The slack keeps 99.9% of 10000 at rank 9990 despite rounding.
std::size_t NearestRank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double TailPercentile(std::size_t n) {
  double best = kTailLadder[0];
  for (const double p : kTailLadder) {
    if (SamplesBeyond(n, p) >= kTailBeyond) best = p;
  }
  return best;
}

LatencySummary Summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50.0);
  s.tail_percentile = TailPercentile(samples.size());
  s.tail = Percentile(samples, s.tail_percentile);
  return s;
}

GroupedRecorder::GroupedRecorder(Clock::time_point start, std::size_t group_size)
    : group_size_(std::max<std::size_t>(group_size, 1)), group_start_(start) {
  current_.reserve(group_size_);
}

void GroupedRecorder::Add(Clock::time_point done, double value) {
  current_.push_back(value);
  if (current_.size() < group_size_) return;
  const double seconds = std::max(SecondsBetween(group_start_, done), 1e-9);
  const auto s = Summarize(current_);
  rates_.push_back(static_cast<double>(group_size_) / seconds);
  seconds_.push_back(seconds);
  p50s_.push_back(s.p50);
  tails_.push_back(s.tail);
  tail_percentile_ = s.tail_percentile;
  current_.clear();
  group_start_ = done;
}

WindowedSummary GroupedRecorder::Summary() const {
  WindowedSummary out;
  out.windows = static_cast<int>(groups());
  out.window_s = Median(seconds_);
  out.rate_per_s = Median(rates_);
  out.p50 = Median(p50s_);
  out.tail = Median(tails_);
  out.tail_percentile = tail_percentile_;
  out.samples_per_window = group_size_;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

WindowedSummary SummarizeWindows(const std::vector<double>& done_s,
                                 const std::vector<double>& values, double seconds,
                                 int windows) {
  const double window_s = seconds / windows;
  std::vector<std::vector<double>> per_window(static_cast<std::size_t>(windows));
  for (std::size_t i = 0; i < done_s.size() && i < values.size(); ++i) {
    if (done_s[i] < 0.0) continue;
    const auto w = static_cast<std::size_t>(done_s[i] / window_s);
    if (w < per_window.size()) per_window[w].push_back(values[i]);
  }
  WindowedSummary out;
  out.windows = windows;
  out.window_s = window_s;
  std::vector<double> rates, p50s, tails, counts;
  std::vector<std::pair<double, double>> tail_rungs;  // (tail, percentile)
  for (auto& samples : per_window) {
    rates.push_back(static_cast<double>(samples.size()) / window_s);
    const auto s = Summarize(samples);
    p50s.push_back(s.p50);
    tails.push_back(s.tail);
    tail_rungs.emplace_back(s.tail, s.tail_percentile);
    counts.push_back(static_cast<double>(s.count));
  }
  if (per_window.empty()) return out;
  out.rate_per_s = Median(rates);
  out.p50 = Median(p50s);
  out.tail = Median(tails);
  std::sort(tail_rungs.begin(), tail_rungs.end());
  out.tail_percentile = tail_rungs[tail_rungs.size() / 2].second;
  out.samples_per_window = static_cast<std::size_t>(Median(counts));
  return out;
}

std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    std::mt19937_64& rng) {
  if (rate_per_s <= 0.0) throw std::invalid_argument("PoissonSchedule: rate <= 0");
  std::exponential_distribution<double> gap(rate_per_s);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

namespace {

/// Sleeps most of the way to `when`, then spins, so requests leave within
/// a few microseconds of their due time without burning a core between
/// them.
void WaitUntil(Clock::time_point when) {
  constexpr auto kSpin = std::chrono::microseconds(50);
  auto now = Clock::now();
  if (when - now > kSpin) {
    std::this_thread::sleep_until(when - kSpin);
    now = Clock::now();
  }
  while (now < when) {
    std::this_thread::yield();
    now = Clock::now();
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<double>& due_s, Clock::time_point start,
                           Clock::time_point stop,
                           const std::function<bool(std::size_t)>& send) {
  OpenLoopResult r;
  r.latency_us.reserve(due_s.size());
  r.late_us.reserve(due_s.size());
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s[i]));
    if (due > stop) break;
    WaitUntil(due);
    const auto sent = Clock::now();
    r.late_us.push_back(MicrosBetween(due, sent));
    ++r.attempted;
    const bool ok = send(i);
    const auto done = Clock::now();
    if (ok) {
      r.latency_us.push_back(MicrosBetween(due, done));
      r.done_s.push_back(SecondsBetween(start, done));
    } else {
      ++r.failed;
    }
  }
  return r;
}

void WorkloadResult::Check(bool ok, const std::string& what) {
  if (!ok && check_failures.size() < 20) check_failures.push_back(what);
}

void WorkloadResult::Add(std::string name, std::string unit, double value) {
  metrics.push_back({std::move(name), std::move(unit), value});
}

void WorkloadResult::Note(std::string line) { notes.push_back(std::move(line)); }

int GeneratorThreads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw));
}

std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinToCpu(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double MedianSetupSeconds(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < std::max(1, repeats); ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(SecondsBetween(t0, Clock::now()));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

namespace {

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool AssertsEnabled() {
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

bool Optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string BuildStamp() {
  std::string stamp = PERFBENCH_BUILD_TYPE;
  if (!Optimized()) stamp += "+unoptimized";
  if (AssertsEnabled()) stamp += "+asserts";
  if (SanitizerBuild()) stamp += "+sanitizer";
  return stamp;
}

bool BuildIsComparable() {
  return Optimized() && !AssertsEnabled() && !SanitizerBuild();
}

std::string ResultJson(const WorkloadResult& result) {
  std::string out = "{\"correct\": ";
  out += result.check_failures.empty() ? "true" : "false";
  out += Format(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  m.name.c_str(), v, m.unit.c_str());
  }
  out += "}}";
  return out;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char stack[512];
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(stack, sizeof(stack), fmt, copy);
  va_end(copy);
  std::string out;
  if (n >= 0 && static_cast<std::size_t>(n) < sizeof(stack)) {
    out.assign(stack, static_cast<std::size_t>(n));
  } else if (n >= 0) {
    out.resize(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(n));
  }
  va_end(args);
  return out;
}

}  // namespace perfbench
