#include "sim/maxmin.h"

#include "sim/maxmin_incremental.h"

namespace p4p::sim {

std::vector<double> MaxMinFairRates(std::span<const double> capacities,
                                    std::span<const Flow> flows) {
  IncrementalMaxMin store(std::vector<double>(capacities.begin(), capacities.end()));
  for (const Flow& f : flows) store.AddFlow(f.links, f.rate_cap);
  const auto rates = store.Rates();
  return std::vector<double>(rates.begin(), rates.end());
}

}  // namespace p4p::sim
