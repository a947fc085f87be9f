// announce: the closed-loop announce plane. An AppTracker with the P4P
// selector over ISP-B x 4 ASes (static OSPF prices) holds Zipf(1.5) swarms
// filled during set-up; one closed-loop thread then announces a new peer
// into a Zipf-popular swarm and departs an earlier member, so the
// population stays constant. Nearly all time is in core.apptracker,
// core.selectors and ITracker reads. The traced run adds wall-clock thread
// scaling at 1 and min(4, nproc) threads.
#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/apptracker.h"
#include "core/itracker.h"
#include "net/routing.h"
#include "net/synth.h"
#include "swarm_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kAses = 4;
constexpr int kSwarms = 2000;
constexpr double kZipfAlpha = 1.5;
constexpr int kMaxSwarm = 20000;
constexpr int kWant = 20;
constexpr std::size_t kShards = 64;
constexpr std::size_t kIpPool = 4096;
constexpr int kSetupRepeats = 5;
/// Announces per latency group: the tail of 2000 is p99, with 20 beyond.
constexpr std::size_t kGroupSize = 2000;
/// Peak memory is read once this many pairs are done. Resident memory keeps
/// growing under churn (44 MB after 6 s, 57 MB after 35 s), so a reading at
/// the end of the run would grow with the pairs a faster program fits in.
constexpr std::uint64_t kRssMarkPairs = 300000;

/// One slice of the workload: the swarms it owns, their member logs, and
/// its operation stream. A generator thread drives one or more slices, so
/// every phase touches every swarm whatever its thread count.
struct ThreadState {
  std::unique_ptr<SwarmLog> log;
  std::vector<std::string> ips;
  std::mt19937_64 rng;
};

struct World {
  std::unique_ptr<p4p::net::Graph> graph;
  std::unique_ptr<p4p::net::RoutingTable> routing;
  std::unique_ptr<p4p::core::ITracker> itracker;
  std::unique_ptr<p4p::core::AppTracker> app;
  TimedSelector* selector = nullptr;  // owned by app
  std::vector<std::string> swarm_names;
  std::vector<ThreadState> threads;
  std::uint64_t population = 0;
};

std::string ClientIp(int as, int pid, std::uint64_t salt) {
  return std::to_string(10 + as) + "." + std::to_string(pid) + "." +
         std::to_string(salt % 200 + 1) + "." + std::to_string(salt / 200 % 200 + 1);
}

std::string RandomClientIp(std::mt19937_64& rng, int num_pids) {
  const std::uint64_t salt = rng();
  return ClientIp(static_cast<int>(salt % kAses) + 1,
                  static_cast<int>(salt / 7 % static_cast<std::uint64_t>(num_pids)),
                  salt >> 20);
}

std::unique_ptr<World> BuildWorld(std::uint64_t seed, int num_slices) {
  using namespace p4p;
  auto w = std::make_unique<World>();
  w->graph = std::make_unique<net::Graph>(net::MakeIspB());
  w->routing = std::make_unique<net::RoutingTable>(*w->graph);
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kStatic;
  w->itracker = std::make_unique<core::ITracker>(*w->graph, *w->routing, tcfg);
  w->itracker->SetPricesFromOspf();
  const int num_pids = w->itracker->num_pids();

  core::PidMap pid_map;
  for (int as = 1; as <= kAses; ++as) {
    for (int pid = 0; pid < num_pids; ++pid) {
      pid_map.add(*core::Prefix::Parse(std::to_string(10 + as) + "." +
                                       std::to_string(pid) + ".0.0/16"),
                  {static_cast<core::Pid>(pid), as});
    }
  }
  auto p4p_selector = std::make_unique<core::P4PSelector>();
  for (int as = 1; as <= kAses; ++as) p4p_selector->RegisterITracker(as, w->itracker.get());
  auto timed = std::make_unique<TimedSelector>(std::move(p4p_selector));
  w->selector = timed.get();
  w->app = std::make_unique<core::AppTracker>(std::move(timed), std::move(pid_map),
                                              seed, kShards);

  const auto sizes = ZipfQuantileSizes(kSwarms, kZipfAlpha, kMaxSwarm);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  w->threads.resize(static_cast<std::size_t>(num_slices));
  std::vector<std::uint64_t> thread_population(w->threads.size(), 0);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    thread_population[s % w->threads.size()] += static_cast<std::uint64_t>(sizes[s]);
  }
  for (std::size_t t = 0; t < w->threads.size(); ++t) {
    auto& ts = w->threads[t];
    ts.log = std::make_unique<SwarmLog>(thread_population[t]);
    ts.rng.seed(seed * 1000003 + t);
    for (std::size_t i = 0; i < kIpPool; ++i) ts.ips.push_back(RandomClientIp(ts.rng, num_pids));
  }

  // Fill with numwant=0 announces: membership only, no selection work.
  core::AnnounceRequest req;
  req.want = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    w->swarm_names.push_back("swarm-" + std::to_string(s));
    auto& log = *w->threads[s % w->threads.size()].log;
    const auto local = log.AddSwarm(static_cast<std::uint32_t>(s), sizes[s]);
    req.content_id = w->swarm_names.back();
    for (int i = 0; i < sizes[s]; ++i) {
      req.client_ip = RandomClientIp(rng, num_pids);
      log.Join(local, w->app->Announce(req).assigned_id);
    }
    w->population += static_cast<std::uint64_t>(sizes[s]);
  }
  return w;
}

struct PhaseTimers {
  LayerTimer announce;
  LayerTimer depart;
  LayerTimer select;
};

struct PhaseResult {
  std::uint64_t pairs = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  /// Per-group pairs/s and Announce latency (us) of the first thread,
  /// medians over its groups.
  WindowedSummary groups;
  /// Peak RSS when the first thread reached kRssMarkPairs (0 if it did not).
  double rss_at_mark_mb = 0.0;
  double returned = 0.0;
  double expected = 0.0;

  /// Pairs per wall-clock second over the whole phase, all threads.
  double rate_per_s() const { return static_cast<double>(pairs) / seconds; }
};

struct ThreadTally {
  std::uint64_t pairs = 0;
  double rss_at_mark_mb = 0.0;
  std::uint64_t failed = 0;
  double returned = 0.0;
  double expected = 0.0;
};

/// One generator thread's closed loop over its slices until `stop`.
void GeneratorLoop(World& w, const std::vector<ThreadState*>& slices, Clock::time_point stop,
                   PhaseTimers* timers, GroupedRecorder& latency, ThreadTally& tally,
                   WorkloadResult& checks, std::mutex& checks_mu) {
  p4p::core::AnnounceRequest req;
  req.want = kWant;
  std::vector<std::string> problems;
  for (std::uint64_t op = 0;; ++op) {
    ThreadState& ts = *slices[op % slices.size()];
    SwarmLog& log = *ts.log;
    const std::uint32_t local = log.PickSwarm(ts.rng);
    req.content_id = w.swarm_names[log.global_id(local)];
    req.client_ip = ts.ips[ts.rng() % ts.ips.size()];

    const auto t0 = Clock::now();
    if (t0 >= stop) break;
    p4p::core::AnnounceResponse resp;
    try {
      resp = w.app->Announce(req);
    } catch (const std::exception& e) {
      ++tally.failed;
      problems.push_back(std::string("announce threw: ") + e.what());
      break;
    }
    const auto t1 = Clock::now();
    const double announce_ns = NanosBetween(t0, t1);
    if (timers) timers->announce.Add(announce_ns);

    tally.returned += static_cast<double>(resp.peers.size());
    tally.expected += static_cast<double>(std::min<std::size_t>(kWant, log.size(local)));
    const bool valid = log.CheckResponse(local, resp, kWant);
    if (!valid) {
      problems.push_back("announce answered with a peer set that is not at most want "
                         "distinct current members other than the client");
    }
    log.Join(local, resp.assigned_id);

    const auto victim = log.TakeEarlierMember(local, ts.rng);
    const auto t2 = Clock::now();
    const bool departed = w.app->Depart(req.content_id, victim);
    if (timers) timers->depart.Add(NanosBetween(t2, Clock::now()));
    if (!departed) problems.push_back("Depart of a current member returned false");
    if ((op & 63) == 0 && w.app->Depart(req.content_id, victim)) {
      problems.push_back("a second Depart of the same peer returned true");
    }
    if (valid && departed) {
      // A group's rate counts pairs, so it ends once the pair is done.
      latency.Add(Clock::now(), announce_ns / 1000.0);
      if (++tally.pairs == kRssMarkPairs) tally.rss_at_mark_mb = PeakRssMb();
    } else {
      ++tally.failed;
    }
    if (problems.size() > 8) break;
  }
  if (!problems.empty()) {
    std::lock_guard<std::mutex> lock(checks_mu);
    for (const auto& p : problems) checks.Check(false, p);
  }
}

PhaseResult RunPhase(World& w, int threads, double seconds, PhaseTimers* timers,
                     WorkloadResult& checks) {
  w.selector->set_timer(timers ? &timers->select : nullptr);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<GroupedRecorder> recorders(static_cast<std::size_t>(threads),
                                         GroupedRecorder(start, kGroupSize));
  std::vector<ThreadTally> tallies(static_cast<std::size_t>(threads));
  std::mutex checks_mu;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<ThreadState*> slices;
      for (std::size_t k = static_cast<std::size_t>(t); k < w.threads.size();
           k += static_cast<std::size_t>(threads)) {
        slices.push_back(&w.threads[k]);
      }
      std::this_thread::sleep_until(start);
      const auto i = static_cast<std::size_t>(t);
      GeneratorLoop(w, slices, stop, timers, recorders[i], tallies[i], checks, checks_mu);
    });
  }
  for (auto& th : pool) th.join();
  w.selector->set_timer(nullptr);

  PhaseResult r;
  r.seconds = seconds;
  for (const auto& tally : tallies) {
    r.pairs += tally.pairs;
    r.failed += tally.failed;
    r.returned += tally.returned;
    r.expected += tally.expected;
  }
  r.groups = recorders.front().Summary();
  r.rss_at_mark_mb = tallies.front().rss_at_mark_mb;
  return r;
}

}  // namespace

WorkloadResult RunAnnounce(const RunOptions& options) {
  WorkloadResult result;
  const int max_threads = GeneratorThreads();
  std::unique_ptr<World> world;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    world.reset();
    world = BuildWorld(options.seed, max_threads);
  });
  result.Note(Format("params: ISP-B x %d ASes, %d Zipf(%.1f) swarms (max %d), "
                     "%llu peers, want=%d, %zu shards, 1 closed-loop thread",
                     kAses, kSwarms, kZipfAlpha, kMaxSwarm,
                     static_cast<unsigned long long>(world->population), kWant, kShards));

  if (!options.trace) {
    const auto phase = RunPhase(*world, 1, options.seconds, nullptr, result);
    result.attempted = phase.pairs + phase.failed;
    result.failed = phase.failed;
    const auto& g = phase.groups;
    result.Add("setup_s", "s", setup_s);
    result.Add("work_per_s", "1/s", g.rate_per_s);
    result.Add("op_p50_us", "us", g.p50);
    result.Add("op_tail_us", "us", g.tail);
    result.Add("peak_rss_mb", "MB",
               phase.rss_at_mark_mb > 0.0 ? phase.rss_at_mark_mb : PeakRssMb());
    result.Note(Format("work_per_s = announce+depart pairs per second, median of %d groups "
                       "of %zu pairs (median %.3f s each; %llu pairs in all)",
                       g.windows, g.samples_per_window, g.window_s,
                       static_cast<unsigned long long>(phase.pairs)));
    result.Note(Format("op = one AppTracker::Announce (closed loop): p50 and p%g, each the "
                       "median over groups of %zu samples",
                       g.tail_percentile, g.samples_per_window));
    result.Note(Format("peak_rss_mb = peak resident memory after set-up and the first %llu "
                       "pairs (%.1f MB at the end of the run)",
                       static_cast<unsigned long long>(kRssMarkPairs), PeakRssMb()));
    return result;
  }

  // Traced run: the closed loop untraced (the overhead baseline; it is
  // also the 1-thread side of the scaling figure) and traced, then
  // GeneratorThreads() threads untraced for wall-clock scaling in one
  // process.
  const double slice = options.seconds / 3.0;
  const auto single = RunPhase(*world, 1, slice, nullptr, result);
  PhaseTimers timers;
  const auto traced = RunPhase(*world, 1, slice, &timers, result);
  const auto wide = RunPhase(*world, max_threads, slice, nullptr, result);
  for (const auto* phase : {&single, &traced, &wide}) {
    result.attempted += phase->pairs + phase->failed;
    result.failed += phase->failed;
  }
  const double rate_1 = single.rate_per_s();
  const double rate_n = wide.rate_per_s();
  result.Add("apptracker.announce_ns", "ns", timers.announce.mean_ns());
  result.Add("apptracker.depart_ns", "ns", timers.depart.mean_ns());
  result.Add("selectors.select_ns", "ns", timers.select.mean_ns());
  result.Add("apptracker.self_ns", "ns", timers.announce.mean_ns() - timers.select.mean_ns());
  result.Add("apptracker.thread_scaling_x", "x", rate_n / rate_1);
  result.Add("selectors.fill_ratio", "ratio",
             traced.expected > 0 ? traced.returned / traced.expected : 1.0);
  result.Add("bench.trace_overhead_frac", "ratio",
             (rate_1 - traced.rate_per_s()) / rate_1);
  result.Note(Format("thread scaling: %.0f pairs/s on %d threads vs %.0f on 1 thread "
                     "(wall clock, one process)",
                     rate_n, max_threads, rate_1));
  return result;
}

}  // namespace perfbench
