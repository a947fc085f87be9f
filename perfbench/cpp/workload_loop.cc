// loop: the paper's Figure-5 loop on the 144-PID synthetic topology.
//
// At a fixed tick rate a seeded synthetic link-load trace is reported over
// TCP to the collector (LinkLoadReporter -> LinkLoadCollector), the tick
// runs PDistanceControlLoop::Tick (drain + super-gradient MLU Update) and
// SnapshotPublisher::PublishOnce (delta or full frames over TCP to two
// followers), and the tick ends when every follower answers with the new
// version. Meanwhile open-loop Poisson streams query the followers
// (conditional validations with the held token over TCP and UDP, per-PID
// rows, a few full views) and announce into an AppTracker whose P4P
// selector reads the tracker being repriced. Every server has one worker.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "core/apptracker.h"
#include "core/itracker.h"
#include "net/routing.h"
#include "net/synth.h"
#include "proto/federation.h"
#include "proto/messages.h"
#include "proto/telemetry.h"
#include "proto/transport.h"
#include "swarm_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace proto = p4p::proto;

constexpr int kPids = 144;
constexpr int kMetros = 12;
constexpr int kFollowers = 2;
/// Ticks keep the control thread about a third busy; at 100 Hz a slow spell
/// on the host pushed the loop toward saturation and its latency swung 2x.
constexpr double kTickHz = 50.0;
constexpr double kQueryRate = 1000.0;
constexpr double kAnnounceRate = 400.0;
constexpr int kSwarms = 400;
constexpr int kMaxSwarm = 4000;
constexpr int kWant = 20;
constexpr int kSetupRepeats = 5;
constexpr int kWarmupTicks = 60;
/// Ticks per loop-cycle group: the tail of 100 is p90, with 10 beyond.
constexpr std::size_t kTickGroup = 100;
/// Query mix: TCP view validation, UDP view validation, per-PID row
/// (conditional), unconditional full view; the rest of [0, 1).
constexpr double kTcpValidation = 0.35;
constexpr double kUdpValidation = 0.35;
constexpr double kRow = 0.25;

/// Layer timers of one traced phase.
struct LoopTimers {
  LayerTimer flush, ingest, tick, publish, install, confirm;
  LayerTimer handle, client_rtt, decode;
  LayerTimer announce, depart, select;
};

/// Where the server-side wrappers send their spans; null while untraced.
/// Server worker threads read these concurrently with phase switches.
struct Probes {
  std::atomic<LayerTimer*> ingest{nullptr};
  std::atomic<LayerTimer*> install{nullptr};
  std::atomic<LayerTimer*> handle{nullptr};
};

template <typename Handler>
Handler WrapTimed(Handler inner, const std::atomic<LayerTimer*>& slot) {
  return [inner = std::move(inner), &slot](std::span<const std::uint8_t> request) {
    return Timed(slot.load(std::memory_order_relaxed), [&] { return inner(request); });
  };
}

/// Content stamps of one published version, for checking NotModified
/// answers after the run.
struct VersionRecord {
  std::uint64_t view_version = 0;
  std::vector<std::uint64_t> row_versions;
};

struct Follower {
  proto::ReplicatedSnapshotStore store;
  proto::SnapshotFollower follower{&store};
  proto::FollowerPortalService service{&store};
  std::unique_ptr<proto::TcpServer> replication;
  std::unique_ptr<proto::TcpServer> portal;
  std::unique_ptr<proto::UdpValidationServer> udp;
};

/// A NotModified answer as a client saw it: checked against the version
/// records once the run is over.
struct NotModifiedSeen {
  bool row = false;
  int pid = 0;
  std::uint64_t held = 0;
  std::uint64_t answered = 0;
};

/// One query generator's connection to its follower and its view state.
struct QueryClient {
  std::unique_ptr<proto::TcpClient> tcp;
  std::unique_ptr<proto::UdpValidationClient> udp;
  std::uint64_t held_view = 0;
  std::vector<std::uint64_t> held_row = std::vector<std::uint64_t>(kPids, 0);
  std::uint64_t max_server_version = 0;
  std::uint64_t max_view_version = 0;
  std::vector<std::uint64_t> max_row_version = std::vector<std::uint64_t>(kPids, 0);
  std::vector<NotModifiedSeen> not_modified;
  std::vector<std::string> problems;
  std::uint64_t answers = 0;
  std::uint64_t full_answers = 0;
};

struct World {
  std::unique_ptr<p4p::net::Graph> graph;
  std::unique_ptr<p4p::net::RoutingTable> routing;
  std::unique_ptr<p4p::core::ITracker> tracker;
  std::unique_ptr<proto::ITrackerService> service;
  std::unique_ptr<proto::LinkLoadCollector> collector;
  std::unique_ptr<proto::PDistanceControlLoop> control;  // publisher detached
  Probes probes;
  std::vector<std::unique_ptr<Follower>> followers;
  std::unique_ptr<proto::SnapshotPublisher> publisher;
  std::unique_ptr<proto::TcpServer> collector_server;
  std::unique_ptr<proto::TcpClient> collector_channel;
  std::unique_ptr<proto::LinkLoadReporter> reporter;
  std::vector<std::unique_ptr<proto::TcpClient>> confirm_channels;
  std::vector<QueryClient> clients;

  std::unique_ptr<p4p::core::AppTracker> app;
  TimedSelector* selector = nullptr;  // owned by app
  std::unique_ptr<SwarmLog> swarm_log;
  std::vector<std::string> swarm_names;
  std::vector<std::string> ips;

  std::vector<double> base_load;   // per link, bps
  std::vector<double> load_phase;  // per link, radians
  std::uint64_t tick = 0;
  std::mt19937_64 rng;
  std::map<std::uint64_t, VersionRecord> versions;
};

std::string ClientIp(int pid, std::uint64_t salt) {
  return "11." + std::to_string(pid) + "." + std::to_string(salt % 200 + 1) + "." +
         std::to_string(salt / 200 % 200 + 1);
}

/// The synthetic load trace: each link carries a seeded base share of its
/// capacity, modulated by a slow per-link sinusoid plus noise.
void RecordLoads(World& w) {
  std::normal_distribution<double> noise(0.0, 0.03);
  const double t = static_cast<double>(w.tick++);
  for (std::size_t e = 0; e < w.base_load.size(); ++e) {
    const double wave = 1.0 + 0.25 * std::sin(2.0 * M_PI * t / 250.0 + w.load_phase[e]);
    w.reporter->Record(static_cast<std::int32_t>(e),
                       std::max(0.0, w.base_load[e] * (wave + noise(w.rng))));
  }
}

void RecordVersion(World& w) {
  const auto frames = w.followers.front()->store.current();
  if (!frames) return;
  w.versions[frames->version] = VersionRecord{frames->view_version, frames->row_versions};
}

std::unique_ptr<World> BuildWorld(std::uint64_t seed) {
  using namespace p4p;
  auto w = std::make_unique<World>();
  w->rng.seed(seed * 0x9E3779B97F4A7C15ULL + 5);
  net::SynthConfig synth;
  synth.name = "perfbench-loop";
  synth.num_pops = kPids;
  synth.num_metros = kMetros;
  w->graph = std::make_unique<net::Graph>(net::MakeSynthTopology(synth));
  w->routing = std::make_unique<net::RoutingTable>(*w->graph);
  core::ITrackerConfig tcfg;
  tcfg.mode = core::PriceMode::kSuperGradient;
  tcfg.objective = core::IspObjective::kMinMlu;
  w->tracker = std::make_unique<core::ITracker>(*w->graph, *w->routing, tcfg);
  w->tracker->SetPricesFromOspf();
  w->service = std::make_unique<proto::ITrackerService>(w->tracker.get());

  const std::size_t links = w->graph->link_count();
  w->collector = std::make_unique<proto::LinkLoadCollector>(links);
  w->control = std::make_unique<proto::PDistanceControlLoop>(w->tracker.get(),
                                                             w->collector.get());
  std::uniform_real_distribution<double> share(0.1, 0.5);
  std::uniform_real_distribution<double> phase(0.0, 2.0 * M_PI);
  for (std::size_t e = 0; e < links; ++e) {
    w->base_load.push_back(share(w->rng) *
                           w->graph->link(static_cast<net::LinkId>(e)).capacity_bps);
    w->load_phase.push_back(phase(w->rng));
  }

  w->publisher = std::make_unique<proto::SnapshotPublisher>(w->service.get());
  for (int f = 0; f < kFollowers; ++f) {
    auto fol = std::make_unique<Follower>();
    fol->replication = std::make_unique<proto::TcpServer>(
        0, WrapTimed<proto::Handler>(fol->follower.replication_handler(), w->probes.install),
        1);
    fol->portal = std::make_unique<proto::TcpServer>(
        0, WrapTimed<proto::SharedHandler>(fol->service.shared_handler(), w->probes.handle),
        1);
    fol->udp = std::make_unique<proto::UdpValidationServer>(
        0, WrapTimed<proto::DatagramHandler>(fol->service.validation_handler(),
                                             w->probes.handle));
    w->publisher->AddFollower("follower-" + std::to_string(f), fol->portal->port(),
                              std::make_unique<proto::TcpClient>(fol->replication->port()));
    w->followers.push_back(std::move(fol));
  }
  w->collector_server = std::make_unique<proto::TcpServer>(
      0, WrapTimed<proto::Handler>(w->collector->handler(), w->probes.ingest), 1);
  w->collector_channel = std::make_unique<proto::TcpClient>(w->collector_server->port());
  w->reporter = std::make_unique<proto::LinkLoadReporter>(1, w->collector_channel.get());

  // Warm the loop with unpaced ticks. Socket buffers size themselves from
  // the first transfers; after a single warm-up push the p90 loop cycle of
  // otherwise identical runs differed by up to 2x.
  for (int k = 0; k < kWarmupTicks; ++k) {
    RecordLoads(*w);
    if (!w->reporter->Flush() || !w->control->Tick() ||
        w->publisher->PublishOnce() != static_cast<std::size_t>(kFollowers)) {
      throw std::runtime_error("loop: warm-up tick did not reach every follower");
    }
  }
  RecordVersion(*w);

  for (int f = 0; f < kFollowers; ++f) {
    const auto& fol = *w->followers[static_cast<std::size_t>(f)];
    w->confirm_channels.push_back(std::make_unique<proto::TcpClient>(fol.portal->port()));
    QueryClient client;
    client.tcp = std::make_unique<proto::TcpClient>(fol.portal->port());
    client.udp = std::make_unique<proto::UdpValidationClient>(
        std::make_unique<proto::UdpClientTransport>(fol.udp->port()));
    w->clients.push_back(std::move(client));
  }

  // The announce side: one AS whose P4P selector reads the repriced tracker.
  core::PidMap pid_map;
  for (int pid = 0; pid < kPids; ++pid) {
    pid_map.add(*core::Prefix::Parse("11." + std::to_string(pid) + ".0.0/16"),
                {static_cast<core::Pid>(pid), 1});
  }
  auto p4p_selector = std::make_unique<core::P4PSelector>();
  p4p_selector->RegisterITracker(1, w->tracker.get());
  auto timed = std::make_unique<TimedSelector>(std::move(p4p_selector));
  w->selector = timed.get();
  w->app = std::make_unique<core::AppTracker>(std::move(timed), std::move(pid_map), seed, 16);
  const auto sizes = ZipfQuantileSizes(kSwarms, 1.5, kMaxSwarm);
  std::uint64_t population = 0;
  for (int s : sizes) population += static_cast<std::uint64_t>(s);
  w->swarm_log = std::make_unique<SwarmLog>(population);
  core::AnnounceRequest req;
  req.want = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    w->swarm_names.push_back("content-" + std::to_string(s));
    const auto local = w->swarm_log->AddSwarm(static_cast<std::uint32_t>(s), sizes[s]);
    req.content_id = w->swarm_names.back();
    for (int i = 0; i < sizes[s]; ++i) {
      req.client_ip = ClientIp(static_cast<int>(w->rng() % kPids), w->rng());
      w->swarm_log->Join(local, w->app->Announce(req).assigned_id);
    }
  }
  for (int i = 0; i < 4096; ++i) {
    w->ips.push_back(ClientIp(static_cast<int>(w->rng() % kPids), w->rng()));
  }
  return w;
}

// --- the three generators ----------------------------------------------------

struct TickStats {
  std::vector<double> lag_ms;
  std::vector<Clock::time_point> done;  // completion of each tick, same order
  double lag_ns_total = 0.0;
  std::uint64_t versions = 0;
  std::vector<std::string> problems;
};

/// One tick: report -> Tick -> PublishOnce -> every follower answers with
/// the new version. Returns false when any step failed.
bool RunTick(World& w, LoopTimers* timers, TickStats& stats) {
  RecordLoads(w);
  const auto t0 = Clock::now();
  const bool flushed = Timed(timers ? &timers->flush : nullptr, [&] { return w.reporter->Flush(); });
  const bool updated = Timed(timers ? &timers->tick : nullptr, [&] { return w.control->Tick(); });
  const std::uint64_t version = w.tracker->version();
  const std::size_t confirmed = Timed(timers ? &timers->publish : nullptr,
                                      [&] { return w.publisher->PublishOnce(); });
  const auto confirm_start = Clock::now();
  bool served = true;
  const auto probe = proto::Encode(proto::GetExternalViewReq{version});
  for (std::size_t f = 0; f < w.followers.size(); ++f) {
    std::optional<proto::Message> answer;
    try {
      answer = proto::Decode(w.confirm_channels[f]->Call(probe));
    } catch (const std::exception&) {
      // Counted below as a follower that did not serve the version.
    }
    const auto* nm = answer ? std::get_if<proto::NotModifiedResp>(&*answer) : nullptr;
    served = served && nm != nullptr && nm->version == version &&
             w.followers[f]->store.version() == version;
  }
  const auto served_at = Clock::now();
  if (timers) timers->confirm.Add(NanosBetween(confirm_start, served_at));
  stats.lag_ms.push_back(NanosBetween(t0, served_at) / 1e6);
  stats.done.push_back(served_at);
  stats.lag_ns_total += NanosBetween(t0, served_at);
  ++stats.versions;
  RecordVersion(w);
  if (!flushed) stats.problems.push_back("link-load report was not accepted");
  if (!updated) stats.problems.push_back("Tick saw no telemetry");
  if (confirmed != w.followers.size() || !served) {
    stats.problems.push_back("a follower did not serve the tick's version");
  }
  return flushed && updated && confirmed == w.followers.size() && served;
}

/// One query against the client's follower. Returns false on a failed or
/// wrong answer.
bool RunQuery(QueryClient& c, double kind, int pid, LoopTimers* timers) {
  auto tcp_call = [&](const proto::Message& request) -> std::optional<proto::Message> {
    const auto bytes = proto::Encode(request);
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> reply;
    try {
      reply = c.tcp->Call(bytes);
    } catch (const std::exception& e) {
      c.problems.push_back(std::string("query transport failed: ") + e.what());
      return std::nullopt;
    }
    if (timers) timers->client_rtt.Add(NanosBetween(t0, Clock::now()));
    return Timed(timers ? &timers->decode : nullptr, [&] { return proto::Decode(reply); });
  };
  auto note_server_version = [&](std::uint64_t v) {
    if (v < c.max_server_version) c.problems.push_back("served version went backwards");
    c.max_server_version = std::max(c.max_server_version, v);
  };
  // Handles a view answer to a request that presented `held` (0 = none).
  auto take_view = [&](const std::optional<proto::Message>& answer, std::uint64_t held) {
    ++c.answers;
    if (!answer) return false;
    if (const auto* nm = std::get_if<proto::NotModifiedResp>(&*answer)) {
      if (held == 0) {
        c.problems.push_back("NotModified for an unconditional request");
        return false;
      }
      note_server_version(nm->version);
      c.not_modified.push_back({false, 0, held, nm->version});
      return true;
    }
    if (const auto* view = std::get_if<proto::GetExternalViewResp>(&*answer)) {
      ++c.full_answers;
      if (view->num_pids != kPids ||
          view->distances.size() != static_cast<std::size_t>(kPids) * kPids) {
        c.problems.push_back("external view has the wrong shape");
        return false;
      }
      if (view->version < c.max_view_version) c.problems.push_back("view version went backwards");
      c.max_view_version = std::max(c.max_view_version, view->version);
      c.held_view = view->version;
      return true;
    }
    c.problems.push_back("unexpected answer to a view request");
    return false;
  };

  if (kind < kTcpValidation) {
    const auto held = c.held_view;
    return take_view(tcp_call(proto::GetExternalViewReq{held}), held);
  }
  if (kind < kTcpValidation + kUdpValidation) {
    const auto held = c.held_view;
    const auto t0 = Clock::now();
    const auto outcome = c.udp->Validate(held);
    if (timers) timers->client_rtt.Add(NanosBetween(t0, Clock::now()));
    ++c.answers;
    if (!outcome) {
      c.problems.push_back("UDP validation got no answer");
      return false;
    }
    note_server_version(outcome->version);
    if (outcome->not_modified) {
      if (outcome->version != held) {
        c.problems.push_back("UDP NotModified for a token that is not current");
        return false;
      }
      return true;
    }
    // Stale token: refetch over TCP, as a caching client does.
    return take_view(tcp_call(proto::GetExternalViewReq{held}), held);
  }
  if (kind < kTcpValidation + kUdpValidation + kRow) {
    const auto held = c.held_row[static_cast<std::size_t>(pid)];
    const auto answer = tcp_call(proto::GetPDistancesReq{pid, held});
    ++c.answers;
    if (!answer) return false;
    if (const auto* nm = std::get_if<proto::NotModifiedResp>(&*answer)) {
      if (held == 0) {
        c.problems.push_back("NotModified for an unconditional row request");
        return false;
      }
      note_server_version(nm->version);
      c.not_modified.push_back({true, pid, held, nm->version});
      return true;
    }
    if (const auto* row = std::get_if<proto::GetPDistancesResp>(&*answer)) {
      ++c.full_answers;
      auto& max_row = c.max_row_version[static_cast<std::size_t>(pid)];
      if (row->from != pid || row->distances.size() != static_cast<std::size_t>(kPids)) {
        c.problems.push_back("row answer has the wrong PID or shape");
        return false;
      }
      if (row->version < max_row) c.problems.push_back("row version went backwards");
      max_row = std::max(max_row, row->version);
      c.held_row[static_cast<std::size_t>(pid)] = row->version;
      return true;
    }
    c.problems.push_back("unexpected answer to a row request");
    return false;
  }
  return take_view(tcp_call(proto::GetExternalViewReq{0}), 0);
}

struct AnnounceStats {
  std::vector<std::string> problems;
  double returned = 0.0;
  double expected = 0.0;
};

bool RunAnnounceOp(World& w, std::mt19937_64& rng, LoopTimers* timers, AnnounceStats& stats) {
  p4p::core::AnnounceRequest req;
  req.want = kWant;
  const auto local = w.swarm_log->PickSwarm(rng);
  req.content_id = w.swarm_names[w.swarm_log->global_id(local)];
  req.client_ip = w.ips[rng() % w.ips.size()];
  p4p::core::AnnounceResponse resp;
  try {
    resp = Timed(timers ? &timers->announce : nullptr, [&] { return w.app->Announce(req); });
  } catch (const std::exception& e) {
    stats.problems.push_back(std::string("announce threw: ") + e.what());
    return false;
  }
  stats.returned += static_cast<double>(resp.peers.size());
  stats.expected += static_cast<double>(std::min<std::size_t>(kWant, w.swarm_log->size(local)));
  const bool valid = w.swarm_log->CheckResponse(local, resp, kWant);
  if (!valid) stats.problems.push_back("announce answered with an invalid peer set");
  w.swarm_log->Join(local, resp.assigned_id);
  const auto victim = w.swarm_log->TakeEarlierMember(local, rng);
  const bool departed = Timed(timers ? &timers->depart : nullptr,
                              [&] { return w.app->Depart(req.content_id, victim); });
  if (!departed) stats.problems.push_back("Depart of a current member returned false");
  return valid && departed;
}

struct PhaseResult {
  TickStats ticks;
  OpenLoopResult tick_loop;
  std::vector<OpenLoopResult> queries;  // one stream per follower
  OpenLoopResult announces;
  AnnounceStats announce_stats;
  Clock::time_point start;
  double seconds = 0.0;
};

PhaseResult RunPhase(World& w, double seconds, std::uint64_t seed, LoopTimers* timers) {
  w.probes.ingest.store(timers ? &timers->ingest : nullptr);
  w.probes.install.store(timers ? &timers->install : nullptr);
  w.probes.handle.store(timers ? &timers->handle : nullptr);
  w.selector->set_timer(timers ? &timers->select : nullptr);

  PhaseResult r;
  r.seconds = seconds;
  std::mt19937_64 rng(seed);
  std::vector<double> tick_due;
  for (double t = 0.0; t < seconds; t += 1.0 / kTickHz) tick_due.push_back(t);
  // The query stream is split into one Poisson stream per follower, each
  // on its own generator thread, so one slow answer does not hold up the
  // queries due to the other follower.
  struct QuerySpec {
    double kind;
    int pid;
  };
  const double per_follower = kQueryRate / static_cast<double>(w.clients.size());
  std::vector<std::vector<double>> query_due;
  std::vector<std::vector<QuerySpec>> query_specs(w.clients.size());
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (std::size_t c = 0; c < w.clients.size(); ++c) {
    query_due.push_back(PoissonSchedule(per_follower, seconds, rng));
    for (std::size_t i = 0; i < query_due[c].size(); ++i) {
      query_specs[c].push_back({u(rng), static_cast<int>(rng() % kPids)});
    }
  }
  r.queries.resize(w.clients.size());
  const auto announce_due = PoissonSchedule(kAnnounceRate, seconds, rng);
  std::mt19937_64 announce_rng(rng());

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  r.start = start;
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < w.clients.size(); ++c) {
    pool.emplace_back([&, c] {
      r.queries[c] = RunOpenLoop(query_due[c], start, stop, [&](std::size_t i) {
        const auto& q = query_specs[c][i];
        return RunQuery(w.clients[c], q.kind, q.pid, timers);
      });
    });
  }
  pool.emplace_back([&] {
    r.announces = RunOpenLoop(announce_due, start, stop, [&](std::size_t) {
      return RunAnnounceOp(w, announce_rng, timers, r.announce_stats);
    });
  });
  r.tick_loop = RunOpenLoop(tick_due, start, stop,
                            [&](std::size_t) { return RunTick(w, timers, r.ticks); });
  for (auto& th : pool) th.join();

  w.probes.ingest.store(nullptr);
  w.probes.install.store(nullptr);
  w.probes.handle.store(nullptr);
  w.selector->set_timer(nullptr);
  return r;
}

/// Output checks and failure counts of a phase.
void CheckPhase(World& w, const PhaseResult& r, WorkloadResult& result) {
  auto report = [&](const std::vector<std::string>& problems) {
    for (const auto& p : problems) result.Check(false, p);
  };
  report(r.ticks.problems);
  report(r.announce_stats.problems);
  for (auto& c : w.clients) {
    report(c.problems);
    c.problems.clear();
    for (const auto& seen : c.not_modified) {
      const auto it = w.versions.find(seen.answered);
      bool ok = seen.held == seen.answered;
      if (!ok && it != w.versions.end()) {
        const auto& rec = it->second;
        ok = seen.row ? rec.row_versions.at(static_cast<std::size_t>(seen.pid)) == seen.held
                      : rec.view_version == seen.held;
      }
      result.Check(ok, "NotModified answered a token that was not the held content version");
    }
    c.not_modified.clear();
  }
  std::vector<const OpenLoopResult*> streams = {&r.tick_loop, &r.announces};
  for (const auto& q : r.queries) streams.push_back(&q);
  for (const auto* ol : streams) {
    result.attempted += ol->attempted;
    result.failed += ol->failed;
  }
}

WindowedSummary QueryLatency(const PhaseResult& r, int windows) {
  std::vector<double> done, latency;
  for (const auto& q : r.queries) {
    done.insert(done.end(), q.done_s.begin(), q.done_s.end());
    latency.insert(latency.end(), q.latency_us.begin(), q.latency_us.end());
  }
  return SummarizeWindows(done, latency, r.seconds, windows);
}

/// Loop-cycle latency (ms) in groups of kTickGroup consecutive ticks.
WindowedSummary LoopLag(const PhaseResult& r) {
  GroupedRecorder groups(r.start, kTickGroup);
  for (std::size_t i = 0; i < r.ticks.lag_ms.size(); ++i) {
    groups.Add(r.ticks.done[i], r.ticks.lag_ms[i]);
  }
  return groups.Summary();
}

double CompletedPerSecond(const PhaseResult& r, int windows) {
  std::vector<double> done = r.announces.done_s;
  for (const auto& q : r.queries) done.insert(done.end(), q.done_s.begin(), q.done_s.end());
  const std::vector<double> ones(done.size(), 1.0);
  return SummarizeWindows(done, ones, r.seconds, windows).rate_per_s;
}

}  // namespace

WorkloadResult RunLoop(const RunOptions& options) {
  WorkloadResult result;
  // Every thread of the loop, the servers' included, shares one CPU. Spread
  // over idle vCPUs, each hand-off along the tick (reporter -> collector ->
  // publisher -> followers -> confirm) wakes a halted vCPU, and how long
  // that takes on a shared host depends on the neighbours; on one CPU a
  // hand-off is a context switch. The tick's work is sequential either way.
  // Moving the query and announce generators to a second CPU made the
  // cycle's p50 and tail spread about twice as much from run to run.
  const auto cpus = AllowedCpus();
  if (cpus.empty() || !PinToCpu(cpus.front())) {
    throw std::runtime_error("loop: could not pin the workload to one CPU");
  }
  std::unique_ptr<World> world;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    world.reset();
    world = BuildWorld(options.seed);
  });
  result.Note(Format("params: synthetic %d-PID topology (%zu links), super-gradient MLU, "
                     "%.0f ticks/s, %d followers, %.0f queries/s over both followers "
                     "(%.0f%% TCP validation, %.0f%% UDP validation, %.0f%% rows, rest full "
                     "views), %.0f announces/s into %d swarms, one worker per server, every "
                     "thread on CPU %d",
                     kPids, world->graph->link_count(), kTickHz, kFollowers, kQueryRate, 100 * kTcpValidation, 100 * kUdpValidation,
                     100 * kRow, kAnnounceRate, kSwarms, cpus.front()));
  const int windows = std::max(3, static_cast<int>(std::lround(options.seconds)));

  if (!options.trace) {
    const auto phase = RunPhase(*world, options.seconds, options.seed, nullptr);
    CheckPhase(*world, phase, result);
    const auto lag = LoopLag(phase);
    const auto query = QueryLatency(phase, windows);
    auto announce = phase.announces.latency_us;
    const auto ann_s = Summarize(announce);
    result.Add("setup_s", "s", setup_s);
    result.Add("work_per_s", "1/s", CompletedPerSecond(phase, windows));
    result.Add("op_p50_us", "us", lag.p50 * 1e3);
    result.Add("op_tail_us", "us", lag.tail * 1e3);
    result.Note(Format("work_per_s = completed queries + announces per second (open loop), "
                       "median of %d windows",
                       windows));
    result.Note(Format("op = one loop cycle, from the start of the link-load report's Flush "
                       "to every follower answering with the version it produced: p50 and "
                       "p%g, each the median over %d groups of %zu ticks",
                       lag.tail_percentile, lag.windows, lag.samples_per_window));
    result.Note(Format("query from due: p50 %.1f us, p%g %.1f us (medians over windows of ~%zu "
                       "samples)",
                       query.p50, query.tail_percentile, query.tail, query.samples_per_window));
    result.Note(Format("announce from due: p50 %.1f us, p%g %.1f us over %zu announces",
                       ann_s.p50, ann_s.tail_percentile, ann_s.tail, ann_s.count));
    return result;
  }

  // Traced run: half untraced (the overhead baseline), half traced.
  const double half = options.seconds / 2.0;
  const int half_windows = std::max(3, windows / 2);
  const auto plain = RunPhase(*world, half, options.seed, nullptr);
  CheckPhase(*world, plain, result);
  for (auto& c : world->clients) c.answers = c.full_answers = 0;
  const auto delta_frames0 = world->publisher->delta_frames_sent();
  const auto full_frames0 = world->publisher->full_frames_sent();
  const auto bytes0 =
      world->publisher->delta_bytes_sent() + world->publisher->full_bytes_sent();
  LoopTimers t;
  const auto traced = RunPhase(*world, half, options.seed + 1, &t);
  CheckPhase(*world, traced, result);

  const double delta_frames =
      static_cast<double>(world->publisher->delta_frames_sent() - delta_frames0);
  const double full_frames =
      static_cast<double>(world->publisher->full_frames_sent() - full_frames0);
  const double bytes = static_cast<double>(world->publisher->delta_bytes_sent() +
                                           world->publisher->full_bytes_sent() - bytes0);
  const double versions = static_cast<double>(traced.ticks.versions);
  auto announce = traced.announces.latency_us;
  std::vector<double> late = traced.announces.late_us;
  for (const auto& q : traced.queries) late.insert(late.end(), q.late_us.begin(), q.late_us.end());
  const auto ann_s = Summarize(announce);
  const auto late_s = Summarize(late);
  std::uint64_t answers = 0, full_answers = 0;
  for (auto& c : world->clients) {
    answers += c.answers;
    full_answers += c.full_answers;
  }
  const double plain_p50 = QueryLatency(plain, half_windows).p50;
  const double traced_p50 = QueryLatency(traced, half_windows).p50;

  result.Add("apptracker.announce_ns", "ns", t.announce.mean_ns());
  result.Add("apptracker.depart_ns", "ns", t.depart.mean_ns());
  result.Add("selectors.select_ns", "ns", t.select.mean_ns());
  result.Add("apptracker.self_ns", "ns", t.announce.mean_ns() - t.select.mean_ns());
  result.Add("selectors.fill_ratio", "ratio",
             traced.announce_stats.expected > 0
                 ? traced.announce_stats.returned / traced.announce_stats.expected
                 : 1.0);
  result.Add("telemetry.flush_ns", "ns", t.flush.mean_ns());
  result.Add("telemetry.ingest_ns", "ns", t.ingest.mean_ns());
  result.Add("control.tick_ns", "ns", t.tick.mean_ns());
  result.Add("federation.publish_ns", "ns", t.publish.mean_ns());
  result.Add("federation.install_ns", "ns", t.install.mean_ns());
  result.Add("federation.bytes_per_version", "B", versions > 0 ? bytes / versions : 0.0);
  result.Add("federation.delta_frac", "ratio",
             delta_frames + full_frames > 0 ? delta_frames / (delta_frames + full_frames) : 0.0);
  const auto query = QueryLatency(traced, half_windows);
  result.Add("loop.query_p50_us", "us", query.p50);
  result.Add("loop.query_tail_us", "us", query.tail);
  result.Add("loop.confirm_ns", "ns", t.confirm.mean_ns());
  result.Add("loop.unattributed_frac", "ratio",
             traced.ticks.lag_ns_total > 0
                 ? 1.0 - (t.flush.total_ns() + t.tick.total_ns() + t.publish.total_ns() +
                          t.confirm.total_ns()) /
                             traced.ticks.lag_ns_total
                 : 0.0);
  result.Add("loop.announce_p50_us", "us", ann_s.p50);
  result.Add("loop.announce_tail_us", "us", ann_s.tail);
  result.Add("service.handle_ns", "ns", t.handle.mean_ns());
  result.Add("transport.overhead_ns", "ns", t.client_rtt.mean_ns() - t.handle.mean_ns());
  result.Add("wire.decode_ns", "ns", t.decode.mean_ns());
  result.Add("client.full_fetch_frac", "ratio",
             answers > 0 ? static_cast<double>(full_answers) / static_cast<double>(answers)
                         : 0.0);
  result.Add("bench.gen_late_tail_us", "us", late_s.tail);
  result.Add("bench.trace_overhead_frac", "ratio",
             plain_p50 > 0 ? (traced_p50 - plain_p50) / plain_p50 : 0.0);
  result.Note(Format("query tail is p%g (median over windows of ~%zu samples); announce "
                     "tail p%g of %zu; generator lateness tail p%g of %zu sends",
                     query.tail_percentile, query.samples_per_window, ann_s.tail_percentile,
                     ann_s.count, late_s.tail_percentile, late_s.count));
  return result;
}

}  // namespace perfbench
