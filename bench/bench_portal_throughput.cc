// Portal serving-path throughput: how many p4p-distance queries per second
// one portal sustains, and what snapshot publication + the pre-encoded
// response cache + the epoll server buy over the original design
// (thread-per-connection transport, response re-encoded per request).
//
// Scenarios, all over real TCP loopback with M concurrent client threads:
//   * baseline    — thread-per-connection blocking server, cache disabled
//                   (the pre-change serving path, reconstructed here).
//   * version-hit — epoll server + shared handler; the snapshot version is
//                   stable so every response is the same pre-encoded buffer.
//   * cold        — prices mutate before every request, forcing a snapshot
//                   rebuild + re-encode each time (worst case).
//   * validation  — clients present a current version token and get the
//                   ~16-byte NotModified answer.
//   * failover    — the primary replica is killed mid-run; the resilient
//                   client rides it out over the secondary (failover_p99_ms).
//   * stale       — every replica dead; the caching client serves the
//                   expired matrix instead of failing (stale_served_total).
//   * federation  — a publisher pushes pre-encoded snapshot frames to 3
//                   followers over TCP; reports replication lag, per-frame
//                   install cost, aggregate NotModified throughput at
//                   1/2/4 replicas (measured per-endpoint in isolation and
//                   summed — replicas model separate hosts), and the
//                   publisher-kill continuity check (a token from the
//                   publisher earns NotModified from a follower).
//   * promotion   — a 3-replica failover cluster on a 50 ms lease; the
//                   publisher dies, the next SRV candidate self-promotes
//                   under a fenced term (fed_failover_promote_ms), and the
//                   revived ex-publisher's republish is fenced
//                   (fed_fenced_rejects_total).
//
// Emits BENCH_portal.json; P4P_BENCH_SCALE shrinks request counts.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.h"
#include "net/synth.h"
#include "proto/caching_client.h"
#include "proto/telemetry.h"
#include "proto/directory.h"
#include "proto/failover.h"
#include "proto/federation.h"
#include "proto/messages.h"
#include "proto/resilient_client.h"
#include "proto/service.h"
#include "proto/transport.h"

namespace p4p::bench {
namespace {

using Clock = std::chrono::steady_clock;

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The pre-change transport design, reconstructed as the baseline: one
/// blocking thread per accepted connection, read frame / run handler /
/// write frame in a loop.
class ThreadPerConnServer {
 public:
  explicit ThreadPerConnServer(proto::Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error("bind/listen failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~ThreadPerConnServer() {
    stopping_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    accept_thread_.join();
    for (auto& t : workers_) t.join();
  }

  std::uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stopping_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      workers_.emplace_back([this, fd] {
        std::vector<std::uint8_t> request;
        while (proto::ReadFrameBlocking(fd, request)) {
          const auto response = handler_(request);
          if (!proto::WriteFrameBlocking(fd, response)) break;
        }
        ::close(fd);
      });
    }
  }

  proto::Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;  // one per connection, by design
};

/// Faithful reconstruction of the pre-change serving path, which this bench
/// compares against: the response was rebuilt per request by per-cell
/// pdistance() calls (bounds + reachability checks every cell) and encoded
/// by the old Writer — per-byte appends into an unreserved buffer.
std::vector<std::uint8_t> LegacyEncodeView(const proto::GetExternalViewResp& resp) {
  std::vector<std::uint8_t> buf;
  const auto u8 = [&buf](std::uint8_t v) { buf.push_back(v); };
  const auto u32 = [&buf](std::uint32_t v) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      buf.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  };
  const auto u64 = [&buf](std::uint64_t v) {
    for (int shift = 56; shift >= 0; shift -= 8) {
      buf.push_back(static_cast<std::uint8_t>(v >> shift));
    }
  };
  u8(proto::kProtocolVersion);
  u8(static_cast<std::uint8_t>(proto::MsgType::kGetExternalViewResp));
  u32(static_cast<std::uint32_t>(resp.num_pids));
  u64(resp.version);
  u32(static_cast<std::uint32_t>(resp.distances.size()));
  for (const double d : resp.distances) u64(std::bit_cast<std::uint64_t>(d));
  return buf;
}

proto::Handler MakeLegacyHandler(const core::ITracker& tracker,
                                 const net::RoutingTable& routing) {
  return [&tracker, &routing](std::span<const std::uint8_t> request) {
    const auto decoded = proto::Decode(request);
    if (!decoded.has_value() ||
        std::get_if<proto::GetExternalViewReq>(&*decoded) == nullptr) {
      return proto::Encode(proto::ErrorMsg{"unexpected message type"});
    }
    const auto snap = tracker.snapshot();  // stands in for the old view_cache_ hit
    proto::GetExternalViewResp resp;
    resp.num_pids = tracker.num_pids();
    resp.version = snap->version;
    resp.distances.reserve(static_cast<std::size_t>(resp.num_pids) *
                           static_cast<std::size_t>(resp.num_pids));
    for (core::Pid i = 0; i < resp.num_pids; ++i) {
      for (core::Pid j = 0; j < resp.num_pids; ++j) {
        if (i == j) {
          resp.distances.push_back(0.0);
        } else if (!routing.reachable(i, j)) {
          resp.distances.push_back(std::numeric_limits<double>::infinity());
        } else {
          resp.distances.push_back(snap->view.at(i, j));
        }
      }
    }
    return LegacyEncodeView(resp);
  };
}

struct ScenarioResult {
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double PercentileUs(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[idx];
}

/// M client threads each issue `per_client` framed requests over their own
/// connection; `between` (optional) runs before every request of client 0
/// (used to force cold snapshots).
ScenarioResult RunScenario(std::uint16_t port, const std::vector<std::uint8_t>& request,
                           int clients, int per_client,
                           const std::function<void()>& between = {}) {
  std::vector<std::thread> threads;
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  const auto begin = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = ConnectLoopback(port);
      std::vector<std::uint8_t> response;
      auto& lats = latencies[static_cast<std::size_t>(c)];
      lats.reserve(static_cast<std::size_t>(per_client));
      // Warm-up round trip (connection setup, first-touch caches).
      proto::WriteFrameBlocking(fd, request);
      proto::ReadFrameBlocking(fd, response);
      for (int i = 0; i < per_client; ++i) {
        if (c == 0 && between) between();
        const auto t0 = Clock::now();
        if (!proto::WriteFrameBlocking(fd, request) ||
            !proto::ReadFrameBlocking(fd, response)) {
          break;
        }
        lats.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ScenarioResult r;
  r.rps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0.0;
  r.p50_us = PercentileUs(all, 0.50);
  r.p99_us = PercentileUs(all, 0.99);
  return r;
}

int Run() {
  PrintHeader("Portal serving-path throughput (GetExternalView over TCP loopback)");

  net::SynthConfig synth;
  synth.name = "bench-portal";
  synth.num_pops = 144;
  synth.num_metros = 12;
  net::Graph graph = net::MakeSynthTopology(synth);
  net::RoutingTable routing(graph);
  core::ITrackerConfig config;
  config.mode = core::PriceMode::kStatic;
  core::ITracker tracker(graph, routing, config);
  std::vector<double> prices(graph.link_count(), 1.0);
  tracker.SetStaticPrices(prices);

  const int clients = 4;
  const auto view_req = proto::Encode(proto::GetExternalViewReq{});
  std::printf("topology: %d PIDs (%zu-byte view response), %d client threads\n\n",
              tracker.num_pids(),
              proto::Encode(proto::GetExternalViewResp{
                  tracker.num_pids(), tracker.version(),
                  std::vector<double>(static_cast<std::size_t>(tracker.num_pids()) *
                                      static_cast<std::size_t>(tracker.num_pids()))})
                  .size(),
              clients);

  // --- baseline: thread-per-connection + re-encode per request ---
  ScenarioResult baseline;
  {
    ThreadPerConnServer server(MakeLegacyHandler(tracker, routing));
    baseline = RunScenario(server.port(), view_req, clients, Scaled(150));
  }
  std::printf("  baseline (thread/conn, re-encode): %10.0f req/s   p50 %7.1f us   p99 %7.1f us\n",
              baseline.rps, baseline.p50_us, baseline.p99_us);

  // --- epoll server + pre-encoded cache ---
  proto::ITrackerService cached(&tracker);
  proto::TcpServer server(0, cached.shared_handler(), 2);

  const ScenarioResult hit = RunScenario(server.port(), view_req, clients, Scaled(600));
  std::printf("  version-hit (epoll, cached bytes): %10.0f req/s   p50 %7.1f us   p99 %7.1f us\n",
              hit.rps, hit.p50_us, hit.p99_us);

  const auto validation_req = proto::Encode(proto::GetExternalViewReq{tracker.version()});
  const ScenarioResult validation =
      RunScenario(server.port(), validation_req, clients, Scaled(1500));
  std::printf("  validation (NotModified answer):   %10.0f req/s   p50 %7.1f us   p99 %7.1f us\n",
              validation.rps, validation.p50_us, validation.p99_us);

  double k = 2.0;
  const ScenarioResult cold =
      RunScenario(server.port(), view_req, 1, Scaled(120), [&] {
        prices.assign(prices.size(), k);
        tracker.SetStaticPrices(prices);
        k += 1.0;
      });
  std::printf("  cold (rebuild+re-encode each):     %10.0f req/s   p50 %7.1f us   p99 %7.1f us\n",
              cold.rps, cold.p50_us, cold.p99_us);

  // --- UDP validation: one datagram each way, no handshake ---
  ScenarioResult udp;
  {
    proto::UdpValidationServer udp_server(0, cached.validation_handler());
    const std::uint64_t current = tracker.version();
    const int per_client = Scaled(1500);
    std::vector<std::thread> threads;
    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
    const auto begin = Clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        proto::UdpValidationOptions options;
        options.max_tries = 8;
        options.initial_timeout = std::chrono::milliseconds(100);
        options.max_timeout = std::chrono::milliseconds(500);
        proto::UdpValidationClient vclient(
            std::make_unique<proto::UdpClientTransport>(udp_server.port()), options);
        auto& lats = latencies[static_cast<std::size_t>(c)];
        lats.reserve(static_cast<std::size_t>(per_client));
        (void)vclient.Validate(current);  // warm-up
        for (int i = 0; i < per_client; ++i) {
          const auto t0 = Clock::now();
          const auto outcome = vclient.Validate(current);
          if (!outcome || !outcome->not_modified) continue;  // loopback loss
          lats.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double elapsed = std::chrono::duration<double>(Clock::now() - begin).count();
    std::vector<double> all;
    for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    udp.rps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0.0;
    udp.p50_us = PercentileUs(all, 0.50);
    udp.p99_us = PercentileUs(all, 0.99);
  }
  std::printf("  udp validation (NotModified):      %10.0f req/s   p50 %7.1f us   p99 %7.1f us\n",
              udp.rps, udp.p50_us, udp.p99_us);

  // --- failover: the primary replica dies mid-run; the resilient client
  // rides it out over the secondary. p99 covers the whole run, so it prices
  // the failed connects + breaker trip, not just the steady state.
  double failover_p99_ms = 0.0;
  double failover_count = 0.0;
  {
    proto::TcpServer secondary(0, cached.shared_handler(), 2);
    auto primary = std::make_unique<proto::TcpServer>(0, cached.shared_handler(), 2);
    proto::PortalDirectory dir;
    dir.AddRecord("bench.isp", {"primary", primary->port(), 0, 1});
    dir.AddRecord("bench.isp", {"secondary", secondary.port(), 10, 1});
    proto::ResilientClientOptions options;
    options.failure_threshold = 2;
    options.open_cooldown_seconds = 0.2;
    options.backoff_initial_seconds = 0.001;
    options.backoff_max_seconds = 0.01;
    proto::ResilientPortalClient rclient(
        &dir, "bench.isp",
        [](const proto::SrvRecord& r) -> std::unique_ptr<proto::Transport> {
          return std::make_unique<proto::TcpClient>(r.port);
        },
        options);
    const int total = Scaled(400);
    std::vector<double> lat_ms;
    lat_ms.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
      if (i == total / 2) primary.reset();  // replica killed mid-run
      const auto t0 = Clock::now();
      (void)rclient.Call(view_req);
      lat_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    }
    std::sort(lat_ms.begin(), lat_ms.end());
    failover_p99_ms = PercentileUs(lat_ms, 0.99);  // vector already in ms
    failover_count = static_cast<double>(rclient.failover_count());
  }
  std::printf("  failover (primary killed mid-run): p99 %7.2f ms   failovers %3.0f\n",
              failover_p99_ms, failover_count);

  // --- degradation: every replica dead; the cache serves the expired
  // matrix instead of tearing the error through to peer selection.
  double stale_served_total = 0.0;
  {
    auto only = std::make_unique<proto::TcpServer>(0, cached.shared_handler(), 2);
    proto::PortalDirectory dir;
    dir.AddRecord("bench.isp", {"only", only->port(), 0, 1});
    proto::ResilientClientOptions options;
    options.failure_threshold = 2;
    options.open_cooldown_seconds = 60.0;  // stay open for the whole run
    options.max_attempts = 2;
    options.backoff_initial_seconds = 0.001;
    options.backoff_max_seconds = 0.002;
    double now = 0.0;
    proto::CachingPortalClient cache(
        std::make_unique<proto::ResilientPortalClient>(
            &dir, "bench.isp",
            [](const proto::SrvRecord& r) -> std::unique_ptr<proto::Transport> {
              return std::make_unique<proto::TcpClient>(r.port);
            },
            options),
        [&now] { return now; }, /*ttl_seconds=*/1.0, /*max_stale_serves=*/1024);
    (void)cache.GetExternalView();  // warm
    only.reset();                   // total outage
    const int accesses = Scaled(50);
    for (int i = 0; i < accesses; ++i) {
      now += 2.0;  // every access finds the TTL expired and the refresh dead
      (void)cache.TryGetExternalView();
    }
    stale_served_total = static_cast<double>(cache.stale_served_total());
  }
  std::printf("  stale-while-unreachable:           served %4.0f expired accesses\n",
              stale_served_total);

  // --- federation: a follower serves the publisher's pre-encoded frames
  // through the identical atomic-load path, so it answers NotModified at
  // the publisher's rate. Replicas model separate hosts: each endpoint is
  // measured sequentially in isolation (no fake speedup from loopback
  // parallelism, no fake slowdown from replicas fighting over the same
  // cores).
  double fed_single = 0.0;
  double fed_two = 0.0;
  double fed_lag_ms = 0.0;
  double fed_install_ns = 0.0;
  double fed_kill_notmodified = 0.0;
  double fed_kill_latency_ms = 0.0;
  {
    constexpr int kReplicas = 4;
    std::vector<std::unique_ptr<proto::ReplicatedSnapshotStore>> stores;
    std::vector<std::unique_ptr<proto::FollowerPortalService>> follower_services;
    std::vector<std::unique_ptr<proto::SnapshotFollower>> followers;
    std::vector<std::unique_ptr<proto::TcpServer>> replication_endpoints;
    std::vector<std::unique_ptr<proto::TcpServer>> portals;

    proto::SnapshotPublisher publisher(&cached);
    portals.push_back(std::make_unique<proto::TcpServer>(0, cached.shared_handler(), 2));
    for (int i = 1; i < kReplicas; ++i) {
      stores.push_back(std::make_unique<proto::ReplicatedSnapshotStore>());
      follower_services.push_back(
          std::make_unique<proto::FollowerPortalService>(stores.back().get()));
      followers.push_back(std::make_unique<proto::SnapshotFollower>(stores.back().get()));
      replication_endpoints.push_back(std::make_unique<proto::TcpServer>(
          0, followers.back()->replication_handler()));
      portals.push_back(std::make_unique<proto::TcpServer>(
          0, follower_services.back()->shared_handler(), 2));
      publisher.AddFollower(
          "replica-" + std::to_string(i), portals.back()->port(),
          std::make_unique<proto::TcpClient>(replication_endpoints.back()->port()));
    }

    // Replication lag: price update -> every follower installed, over real
    // TCP push channels (the push frame is encoded once per version).
    const int rounds = Scaled(20);
    std::vector<double> lag_ms;
    lag_ms.reserve(static_cast<std::size_t>(rounds));
    for (int round = 0; round < rounds; ++round) {
      prices.assign(prices.size(), 10.0 + static_cast<double>(round));
      tracker.SetStaticPrices(prices);
      const auto t0 = Clock::now();
      const std::size_t confirmed = publisher.PublishOnce();
      lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (confirmed != static_cast<std::size_t>(kReplicas - 1)) {
        throw std::runtime_error("federation bench: follower failed to confirm");
      }
    }
    std::sort(lag_ms.begin(), lag_ms.end());
    fed_lag_ms = PercentileUs(lag_ms, 0.50);  // vector already in ms

    // Conditional-validation throughput of the publisher and of the
    // publisher plus one follower. Both answer the same version token with
    // the same ~16-byte frame.
    const auto fed_req = proto::Encode(proto::GetExternalViewReq{tracker.version()});
    fed_single = RunScenario(portals[0]->port(), fed_req, 2, Scaled(1200)).rps;
    fed_two = fed_single + RunScenario(portals[1]->port(), fed_req, 2, Scaled(1200)).rps;

    // Frame install cost: decode + monotone install of a full push frame
    // (the follower-side unit of replication work, no sockets).
    {
      auto frames = cached.ExportFrames();
      const std::uint64_t base = frames.version;
      const int installs = Scaled(100);
      std::vector<std::vector<std::uint8_t>> push_frames;
      push_frames.reserve(static_cast<std::size_t>(installs));
      for (int i = 0; i < installs; ++i) {
        frames.version = base + static_cast<std::uint64_t>(i) + 1;
        push_frames.push_back(proto::EncodeFramePush(frames));
      }
      proto::ReplicatedSnapshotStore victim_store;
      proto::SnapshotFollower victim(&victim_store);
      const auto t0 = Clock::now();
      for (const auto& push : push_frames) (void)victim.HandleReplication(push);
      const auto elapsed = std::chrono::duration<double, std::nano>(Clock::now() - t0);
      fed_install_ns = installs > 0 ? elapsed.count() / installs : 0.0;
    }

    // Publisher killed: a version token fetched from the publisher must
    // earn NotModified from a follower, so the conditional/UDP fast path
    // survives failover. Runs last — it tears down the publisher's portal.
    {
      proto::PortalDirectory dir;
      dir.AddRecord("fed.isp", {"publisher", portals[0]->port(), 0, 1});
      dir.AddRecord("fed.isp", {"replica-1", portals[1]->port(), 1, 1});
      proto::ResilientClientOptions options;
      options.failure_threshold = 2;
      options.backoff_initial_seconds = 0.001;
      options.backoff_max_seconds = 0.01;
      proto::PortalClient fed_client(std::make_unique<proto::ResilientPortalClient>(
          &dir, "fed.isp",
          [](const proto::SrvRecord& r) -> std::unique_ptr<proto::Transport> {
            return std::make_unique<proto::TcpClient>(r.port);
          },
          options));
      const auto [view, version] = fed_client.GetExternalViewWithVersion();
      (void)view;
      portals[0].reset();  // publisher gone
      const auto t0 = Clock::now();
      const auto refreshed = fed_client.GetExternalViewIfModified(version);
      fed_kill_latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      fed_kill_notmodified = refreshed.has_value() ? 0.0 : 1.0;
    }
  }
  std::printf("  federation replication lag:        p50 %7.2f ms (price update -> 3 followers)\n",
              fed_lag_ms);
  std::printf("  federation frame install:          %10.0f ns/install\n", fed_install_ns);
  std::printf("  federation agg NotModified:        %10.0f req/s x1   %10.0f x2\n",
              fed_single, fed_two);
  std::printf("  federation publisher-kill:         NotModified from follower %s in %.2f ms\n",
              fed_kill_notmodified > 0 ? "yes" : "NO", fed_kill_latency_ms);

  // --- control loop lag: a utilization report enters the telemetry plane
  // over TCP, the tick drains + reprices + pushes over TCP, and the
  // follower serves the new version — the live end of the p-distance loop.
  double control_loop_lag_ms = 0.0;
  {
    core::ITrackerConfig loop_config;
    loop_config.mode = core::PriceMode::kProtectedLink;
    core::ITracker loop_tracker(graph, routing, loop_config);
    loop_tracker.ProtectLink(0, core::ProtectedLinkRule{0.5, 1.0, 0.1});
    proto::ITrackerService loop_service(&loop_tracker);

    proto::LinkLoadCollector collector(graph.link_count());
    proto::TcpServer collector_server(0, collector.handler());
    proto::TcpClient to_collector(collector_server.port());
    proto::LinkLoadReporter reporter(1, &to_collector);

    proto::ReplicatedSnapshotStore loop_store;
    proto::SnapshotFollower loop_follower(&loop_store);
    proto::TcpServer replication_endpoint(0, loop_follower.replication_handler());
    proto::SnapshotPublisher loop_pub(&loop_service);
    loop_pub.AddFollower("loop-replica", 1, std::make_unique<proto::TcpClient>(
                                                replication_endpoint.port()));
    proto::PDistanceControlLoop loop(&loop_tracker, &collector, &loop_pub);

    const int loop_rounds = Scaled(30);
    std::vector<double> lag;
    lag.reserve(static_cast<std::size_t>(loop_rounds));
    for (int round = 0; round < loop_rounds; ++round) {
      const double util = round % 2 == 0 ? 0.9 : 0.6;
      const auto t0 = Clock::now();
      reporter.Record(0, util * graph.link(0).capacity_bps);
      reporter.Flush();
      if (!loop.Tick()) {
        throw std::runtime_error("control loop bench: tick saw no telemetry");
      }
      lag.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      if (loop_store.version() != loop_tracker.version()) {
        throw std::runtime_error("control loop bench: follower lagged the tick");
      }
    }
    std::sort(lag.begin(), lag.end());
    control_loop_lag_ms = PercentileUs(lag, 0.50);  // vector already in ms
  }
  std::printf("  control loop lag:                  p50 %7.2f ms (report -> tick -> follower current)\n",
              control_loop_lag_ms);

  // --- publisher failover: a 3-replica cluster on a real clock with a
  // 50 ms lease. The publisher goes silent; the next SRV candidate
  // self-promotes with a fenced term and the measurement stops at the
  // first fresh-term version its serving path answers for. The revived
  // ex-publisher's republish must then bounce off the term fence.
  double fed_failover_promote_ms = 0.0;
  double fed_fenced_rejects_total = 0.0;
  {
    constexpr int kNodes = 3;
    struct FailNode {
      core::ITracker tracker;
      proto::ITrackerService service;
      proto::ReplicatedSnapshotStore store;
      proto::SnapshotFollower follower;
      std::unique_ptr<proto::FailoverCoordinator> coordinator;
      std::atomic<bool> alive{true};
      FailNode(net::Graph& g, net::RoutingTable& r)
          : tracker(g, r), service(&tracker), follower(&store) {}
    };
    const auto wall = [] {
      return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
    };
    proto::PortalDirectory dir;
    std::vector<std::unique_ptr<FailNode>> nodes;
    for (int i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<FailNode>(graph, routing));
      dir.AddRecord("fo.isp", {"fo-" + std::to_string(i),
                               static_cast<std::uint16_t>(7000 + i), i, 1});
    }
    for (int i = 0; i < kNodes; ++i) {
      proto::FailoverOptions fo;
      fo.domain = "fo.isp";
      fo.self_target = "fo-" + std::to_string(i);
      fo.self_port = static_cast<std::uint16_t>(7000 + i);
      fo.lease_seconds = 0.05;
      fo.stagger_seconds = 0.025;
      auto& node = *nodes[static_cast<std::size_t>(i)];
      node.coordinator = std::make_unique<proto::FailoverCoordinator>(
          &node.tracker, &node.service, &node.store, &node.follower, &dir,
          [&nodes](const std::string&,
                   std::uint16_t port) -> std::unique_ptr<proto::Transport> {
            const int dst = port - 7000;
            if (dst < 0 || dst >= kNodes) return nullptr;
            auto& peer = *nodes[static_cast<std::size_t>(dst)];
            return std::make_unique<proto::InProcessTransport>(
                [&peer](std::span<const std::uint8_t> request) {
                  if (!peer.alive.load()) throw std::runtime_error("replica dead");
                  return peer.coordinator->HandleReplication(request);
                });
          },
          fo, wall);
    }
    const auto deliver_beacons = [&] {
      for (int i = 0; i < kNodes; ++i) {
        if (!nodes[static_cast<std::size_t>(i)]->alive.load()) continue;
        const auto beacon =
            nodes[static_cast<std::size_t>(i)]->coordinator->BeaconFrame();
        if (!beacon) continue;
        for (int j = 0; j < kNodes; ++j) {
          if (j != i) nodes[static_cast<std::size_t>(j)]->follower.HandleBeacon(*beacon);
        }
      }
    };
    const auto spin_until = [&](const std::function<bool()>& done,
                                const char* what) {
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      while (!done()) {
        if (Clock::now() > deadline) {
          throw std::runtime_error(std::string("failover bench: timed out ") + what);
        }
        for (auto& node : nodes) {
          if (node->alive.load()) node->coordinator->Tick();
        }
        deliver_beacons();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    };
    // Bootstrap: rank 0 takes the first term and publishes one version.
    spin_until(
        [&] {
          return nodes[0]->coordinator->role() ==
                 proto::FailoverCoordinator::Role::kPublisher;
        },
        "waiting for the first promotion");
    prices.assign(prices.size(), 3.0);
    nodes[0]->tracker.SetStaticPrices(prices);
    const std::uint64_t term0 = nodes[0]->coordinator->term();

    // Kill it (beacon loss included) and time the succession end to end.
    nodes[0]->alive.store(false);
    const auto t0 = Clock::now();
    int promoted = -1;
    spin_until(
        [&] {
          for (int i = 1; i < kNodes; ++i) {
            auto& node = *nodes[static_cast<std::size_t>(i)];
            if (node.coordinator->role() ==
                    proto::FailoverCoordinator::Role::kPublisher &&
                node.coordinator->term() > term0) {
              promoted = i;
              return true;
            }
          }
          return false;
        },
        "waiting for the successor");
    fed_failover_promote_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    auto& successor = *nodes[static_cast<std::size_t>(promoted)];
    // The promoted serving path answers for a fresh-term token.
    const auto answer = successor.service.HandleValidationDatagram(
        proto::EncodeValidationRequest(
            proto::ValidationRequest{1, successor.service.price_version()}));
    const auto decoded =
        answer ? proto::DecodeValidationResponse(*answer) : std::nullopt;
    if (!decoded || decoded->status != proto::ValidationStatus::kNotModified) {
      throw std::runtime_error("failover bench: promoted publisher not serving");
    }

    // The fence: the revived ex-publisher's republish is rejected, and the
    // stale-term ack demotes it.
    nodes[0]->alive.store(true);
    std::uint64_t rejects_before = 0;
    for (const auto& node : nodes) {
      rejects_before += node->follower.stale_term_reject_count();
    }
    prices.assign(prices.size(), 4.0);
    nodes[0]->tracker.SetStaticPrices(prices);  // listener republishes term0
    if (auto* stale_pub = nodes[0]->coordinator->publisher()) {
      stale_pub->PublishOnce();
    }
    for (const auto& node : nodes) {
      fed_fenced_rejects_total += static_cast<double>(
          node->follower.stale_term_reject_count());
    }
    fed_fenced_rejects_total -= static_cast<double>(rejects_before);
    nodes[0]->coordinator->Tick();  // hears the fence, steps down
    if (nodes[0]->coordinator->role() !=
        proto::FailoverCoordinator::Role::kFollower) {
      throw std::runtime_error("failover bench: fenced publisher did not demote");
    }
  }
  std::printf("  publisher failover (50 ms lease):  promote %7.2f ms   fenced rejects %3.0f\n",
              fed_failover_promote_ms, fed_fenced_rejects_total);

  const double speedup = baseline.rps > 0 ? hit.rps / baseline.rps : 0.0;
  const double udp_vs_tcp = validation.rps > 0 ? udp.rps / validation.rps : 0.0;
  std::printf("\n  version-hit vs baseline speedup: %.1fx\n", speedup);
  std::printf("  udp vs tcp validation:           %.2fx\n", udp_vs_tcp);

  PrintComparisons({
      {"version-hit speedup over thread/conn+re-encode", ">= 10x", Fmt("%.1fx", speedup),
       speedup >= 10.0},
      {"publisher kill: follower honors the version token", "NotModified",
       fed_kill_notmodified > 0 ? "NotModified" : "full refetch",
       fed_kill_notmodified > 0},
      {"publisher failover: successor serving a fresh term", "<= 1500 ms",
       Fmt("%.0f ms", fed_failover_promote_ms), fed_failover_promote_ms <= 1500.0},
      {"publisher failover: stale-term republish fenced", ">= 1 reject",
       Fmt("%.0f", fed_fenced_rejects_total), fed_fenced_rejects_total >= 1.0},
  });

  WriteBenchJson("BENCH_portal.json", {
                                          {"num_pids", tracker.num_pids()},
                                          {"client_threads", clients},
                                          {"baseline_view_rps", baseline.rps},
                                          {"baseline_view_p99_us", baseline.p99_us},
                                          {"epoll_view_hit_rps", hit.rps},
                                          {"epoll_view_hit_p50_us", hit.p50_us},
                                          {"epoll_view_hit_p99_us", hit.p99_us},
                                          {"view_hit_speedup", speedup},
                                          {"cold_view_rps", cold.rps},
                                          {"cold_view_p99_us", cold.p99_us},
                                          {"validation_rps", validation.rps},
                                          {"validation_p50_us", validation.p50_us},
                                          {"validation_p99_us", validation.p99_us},
                                          {"udp_notmodified_per_sec", udp.rps},
                                          {"udp_validation_p50_us", udp.p50_us},
                                          {"udp_validation_p99_us", udp.p99_us},
                                          {"udp_vs_tcp_validation_speedup", udp_vs_tcp},
                                          {"failover_p99_ms", failover_p99_ms},
                                          {"failover_count", failover_count},
                                          {"stale_served_total", stale_served_total},
                                          {"fed_agg_notmodified_1_replica", fed_single},
                                          {"fed_agg_notmodified_2_replicas", fed_two},
                                          {"fed_replication_lag_ms", fed_lag_ms},
                                          {"fed_frame_install_ns", fed_install_ns},
                                          {"fed_publisher_kill_notmodified", fed_kill_notmodified},
                                          {"fed_publisher_kill_latency_ms", fed_kill_latency_ms},
                                      });
  // Replication-plane metrics live in BENCH_scalability.json only —
  // committing them under two names invited the two copies to drift.
  MergeBenchJson("BENCH_scalability.json", {
                                               {"control_loop_lag_ms", control_loop_lag_ms},
                                               {"fed_failover_promote_ms", fed_failover_promote_ms},
                                               {"fed_fenced_rejects_total", fed_fenced_rejects_total},
                                           });
  return 0;
}

}  // namespace
}  // namespace p4p::bench

int main() { return p4p::bench::Run(); }
