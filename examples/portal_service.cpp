// The portal over the wire: an iTracker served on loopback TCP, queried by
// a PortalClient exactly as an appTracker would (Figure 3 of the paper).
//
// Build & run:  ./portal_service
#include <cstdio>

#include "core/capability.h"
#include "core/itracker.h"
#include "core/pidmap.h"
#include "core/policy.h"
#include "net/topology.h"
#include "proto/service.h"

int main() {
  using namespace p4p;

  // --- provider side: iTracker + the three interfaces ---
  const net::Graph graph = net::MakeAbilene();
  const net::RoutingTable routing(graph);
  core::ITrackerConfig tcfg;
  tcfg.privacy_noise = 0.05;  // perturb revealed distances by up to 5%
  core::ITracker tracker(graph, routing, tcfg);

  core::PolicyRegistry policy;
  policy.SetThresholds({0.7, 0.9});
  policy.AddTimeOfDayPolicy({graph.find_link(net::kWashingtonDC, net::kNewYork),
                             18, 23, 0.5});

  core::CapabilityRegistry capabilities;
  capabilities.Add({core::CapabilityType::kCache, net::kChicago, 10e9,
                    "metro cache, Chicago"});

  core::PidMap pid_map;
  pid_map.add(*core::Prefix::Parse("10.0.0.0/8"), {net::kNewYork, 1});

  proto::ITrackerService service(&tracker, &policy, &capabilities, &pid_map);
  proto::TcpServer server(0, service.handler());
  // The port is kernel-chosen, so it is left out to keep runs identical.
  std::printf("iTracker portal listening on 127.0.0.1\n\n");

  // --- application side: a remote appTracker ---
  proto::PortalClient client(std::make_unique<proto::TcpClient>(server.port()));

  const auto mapping = client.GetPidMapping("10.20.30.40");
  std::printf("IP 10.20.30.40 -> PID %d, AS %d\n", mapping->pid,
              mapping->as_number);

  const auto row = client.GetPDistances(mapping->pid);
  std::printf("p-distances from PID %d: ", mapping->pid);
  for (double d : row) std::printf("%.2e ", d);
  std::printf("\n");

  const auto pol = client.GetPolicy();
  std::printf("policy: near-congestion %.2f, heavy-usage %.2f, %zu "
              "time-of-day rules\n",
              pol.thresholds.near_congestion_utilization,
              pol.thresholds.heavy_usage_utilization, pol.time_of_day.size());

  const auto caches = client.GetCapabilities(core::CapabilityType::kCache);
  for (const auto& c : caches) {
    std::printf("capability: %s at PID %d (%.0f Gbps)\n", c.description.c_str(),
                c.pid, c.capacity_bps / 1e9);
  }
  return 0;
}
