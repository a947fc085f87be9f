// A federation of providers: three networks (Abilene, ISP-A, ISP-C), each
// running its own iTracker; an information integrator aggregates their
// views and inter-network transit costs, and the application discovers
// each portal through SRV-style directory records — the full multi-provider
// control plane of Figure 2.
//
// Build & run:  ./federation
#include <cstdio>
#include <random>

#include "core/integrator.h"
#include "net/synth.h"
#include "net/topology.h"
#include "proto/directory.h"
#include "proto/service.h"

int main() {
  using namespace p4p;

  // --- three provider networks, each with its own portal ---
  const net::Graph abilene = net::MakeAbilene();
  const net::Graph ispa = net::MakeIspA();
  const net::Graph ispc = net::MakeIspC();
  const net::RoutingTable abilene_rt(abilene);
  const net::RoutingTable ispa_rt(ispa);
  const net::RoutingTable ispc_rt(ispc);
  core::ITracker abilene_tracker(abilene, abilene_rt);
  core::ITracker ispa_tracker(ispa, ispa_rt);
  core::ITracker ispc_tracker(ispc, ispc_rt);

  proto::ITrackerService abilene_svc(&abilene_tracker);
  proto::ITrackerService ispa_svc(&ispa_tracker);
  proto::ITrackerService ispc_svc(&ispc_tracker);
  proto::TcpServer abilene_srv(0, abilene_svc.handler());
  proto::TcpServer ispa_srv(0, ispa_svc.handler());
  proto::TcpServer ispc_srv(0, ispc_svc.handler());

  // --- discovery: SRV records under the p4p symbolic name ---
  proto::PortalDirectory directory;
  directory.AddRecord("abilene.net", {"127.0.0.1", abilene_srv.port(), 0, 1});
  directory.AddRecord("isp-a.net", {"127.0.0.1", ispa_srv.port(), 0, 1});
  directory.AddRecord("isp-c.net", {"127.0.0.1", ispc_srv.port(), 0, 1});

  std::mt19937_64 rng(16);
  for (const char* domain : {"abilene.net", "isp-a.net", "isp-c.net"}) {
    const auto record = directory.Resolve(domain, rng);
    // The port is kernel-chosen, so it is left out to keep runs identical.
    std::printf("%-28s -> %s\n", proto::P4pServiceName(domain).c_str(),
                record->target.c_str());
    // Fetch each portal's view over the wire, as an appTracker would.
    proto::PortalClient client(
        std::make_unique<proto::TcpClient>(record->port));
    const auto view = client.GetExternalView();
    std::printf("  fetched external view: %d PIDs\n", view.size());
  }

  // --- aggregation: the integrator ranks candidates across networks ---
  core::Integrator integrator;
  integrator.RegisterNetwork(11537, &abilene_tracker);  // Abilene's real ASN
  integrator.RegisterNetwork(64500, &ispa_tracker);
  integrator.RegisterNetwork(64501, &ispc_tracker);
  integrator.SetInterAsCost(11537, 64500, 1e-10);  // cheap domestic peering
  integrator.SetInterAsCost(11537, 64501, 5e-10);  // pricier international
  integrator.SetInterAsCost(64500, 64501, 5e-10);

  const core::NetworkLocation client{11537, net::kNewYork};
  std::vector<core::NetworkLocation> candidates = {
      {11537, net::kWashingtonDC},  // same network, nearby
      {11537, net::kSeattle},       // same network, far
      {64500, 3},                   // domestic peer network
      {64501, 7},                   // international
  };
  const auto ranked = integrator.Rank(client, candidates);
  std::printf("\ncandidates ranked for a NewYork client (AS 11537):\n");
  for (const auto& loc : ranked) {
    const auto d = integrator.Distance(client, loc);
    std::printf("  AS %-6d PID %-3d  distance %.3e\n", loc.as_number, loc.pid,
                d.value_or(-1.0));
  }
  return 0;
}
