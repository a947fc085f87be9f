// Upload/download bandwidth-matching optimization — equations (1)-(7) of
// the paper, the workload the P4P Pando integration runs.
//
// Stage 1 maximizes total matched traffic sum t_ij subject to per-PID
// aggregate upload (2) and download (3) capacity, yielding OPT. Stage 2
// minimizes the network cost sum p_ij t_ij subject to the same constraints,
// the efficiency floor sum t_ij >= beta * OPT (6), and optional robustness
// lower bounds (7). The resulting t_ij are converted into the peering
// weights w_ij = t_ij / sum_j t_ij the appTracker hands to clients.
#pragma once

#include <vector>

#include "core/pdistance.h"
#include "lp/simplex.h"

namespace p4p::core {

struct MatchingInput {
  /// Aggregate upload capacity per PID (u_i, bps).
  std::vector<double> upload_bps;
  /// Aggregate download capacity per PID (d_i, bps).
  std::vector<double> download_bps;
  /// p-distances; size must equal the PID count.
  const PDistanceMatrix* distances = nullptr;
  /// Efficiency factor beta in (0, 1].
  double beta = 0.8;
  /// Optional robustness lower bounds rho_ij (fraction of PID-i's outbound
  /// traffic that must go to PID-j). Empty => no robustness constraints.
  /// Row sums must be < 1.
  std::vector<std::vector<double>> rho;
};

struct MatchingResult {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  /// Optimal total matched traffic of stage 1.
  double opt_total = 0.0;
  /// Network cost sum p_ij t_ij at the stage-2 optimum, in the units of
  /// `distances`. The answer is scale-free: stage 2 solves on the distances
  /// divided by their largest finite entry.
  double network_cost = 0.0;
  /// Achieved total traffic at stage 2 (>= beta * opt_total).
  double achieved_total = 0.0;
  /// t_ij (bps), diagonal zero.
  std::vector<std::vector<double>> traffic;
  /// w_ij = t_ij / sum_j t_ij; rows with no outbound traffic are all-zero.
  std::vector<std::vector<double>> weights;
};

/// Runs both stages. Throws std::invalid_argument on malformed input
/// (size mismatches, beta out of range, negative capacities, bad rho).
MatchingResult SolveMatching(const MatchingInput& input);

/// The robustness transform of Section 6.1: replaces each weight with
/// w^gamma (gamma in (0,1]) and renormalizes rows, raising the relative
/// weight of small entries — "a simple implementation of the robustness
/// constraint in (7)".
void ApplyConcaveTransform(std::vector<std::vector<double>>& weights, double gamma);

}  // namespace p4p::core
