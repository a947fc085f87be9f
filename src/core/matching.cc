#include "core/matching.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p4p::core {

namespace {

void Validate(const MatchingInput& input) {
  const std::size_t n = input.upload_bps.size();
  if (n == 0 || input.download_bps.size() != n) {
    throw std::invalid_argument("SolveMatching: capacity vector sizes");
  }
  if (input.distances == nullptr || static_cast<std::size_t>(input.distances->size()) != n) {
    throw std::invalid_argument("SolveMatching: distance matrix size");
  }
  if (!(input.beta > 0.0) || input.beta > 1.0) {
    throw std::invalid_argument("SolveMatching: beta must be in (0, 1]");
  }
  for (double u : input.upload_bps) {
    if (u < 0 || std::isnan(u)) throw std::invalid_argument("SolveMatching: bad upload");
  }
  for (double d : input.download_bps) {
    if (d < 0 || std::isnan(d)) throw std::invalid_argument("SolveMatching: bad download");
  }
  if (!input.rho.empty()) {
    if (input.rho.size() != n) {
      throw std::invalid_argument("SolveMatching: rho size");
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (input.rho[i].size() != n) {
        throw std::invalid_argument("SolveMatching: rho row size");
      }
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (input.rho[i][j] < 0 || input.rho[i][j] > 1) {
          throw std::invalid_argument("SolveMatching: rho out of [0,1]");
        }
        row += input.rho[i][j];
      }
      if (row >= 1.0) {
        throw std::invalid_argument("SolveMatching: rho row sum must be < 1");
      }
    }
  }
}

}  // namespace

MatchingResult SolveMatching(const MatchingInput& input) {
  Validate(input);
  const std::size_t n = input.upload_bps.size();
  lp::SimplexSolver solver;
  MatchingResult result;

  // Variables t_ij for i != j, in both stages.
  auto build_base = [&](lp::Model& model, std::vector<std::vector<lp::VarId>>& var) {
    var.assign(n, std::vector<lp::VarId>(n, -1));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        var[i][j] = model.add_variable(
            "t_" + std::to_string(i) + "_" + std::to_string(j), 0.0);
      }
    }
    // (2) aggregate upload per PID; (3) aggregate download per PID.
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<lp::Term> up;
      std::vector<lp::Term> down;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        up.push_back({var[i][j], 1.0});
        down.push_back({var[j][i], 1.0});
      }
      model.add_constraint(std::move(up), lp::Sense::kLessEqual, input.upload_bps[i],
                           "upload_" + std::to_string(i));
      model.add_constraint(std::move(down), lp::Sense::kLessEqual,
                           input.download_bps[i], "download_" + std::to_string(i));
    }
    // (7) robustness: t_ij >= rho_ij * sum_j' t_ij'.
    if (!input.rho.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (i == j || input.rho[i][j] <= 0.0) continue;
          std::vector<lp::Term> terms;
          for (std::size_t k = 0; k < n; ++k) {
            if (k == i) continue;
            const double coeff = (k == j ? 1.0 : 0.0) - input.rho[i][j];
            if (coeff != 0.0) terms.push_back({var[i][k], coeff});
          }
          model.add_constraint(std::move(terms), lp::Sense::kGreaterEqual, 0.0,
                               "rho_" + std::to_string(i) + "_" + std::to_string(j));
        }
      }
    }
  };

  // Stage 1: maximize total matched traffic (eq. 1).
  {
    lp::Model model;
    std::vector<std::vector<lp::VarId>> var;
    build_base(model, var);
    model.set_direction(lp::Direction::kMaximize);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) model.set_objective_coeff(var[i][j], 1.0);
      }
    }
    const auto sol = solver.Solve(model);
    if (sol.status != lp::SolveStatus::kOptimal) {
      result.status = sol.status;
      return result;
    }
    result.opt_total = sol.objective;
  }

  // Stage 2: minimize network cost subject to the efficiency floor (eq. 5-6).
  // Only relative p-distances matter, and a tracker's duals can sit far
  // below the solver's absolute tolerance, so the costs are divided by the
  // largest finite distance (an all-zero matrix stays as it is).
  const auto distance = [&](std::size_t i, std::size_t j) {
    return input.distances->at(static_cast<Pid>(i), static_cast<Pid>(j));
  };
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && std::isfinite(distance(i, j))) {
        scale = std::max(scale, std::abs(distance(i, j)));
      }
    }
  }
  if (scale == 0.0) scale = 1.0;
  {
    lp::Model model;
    std::vector<std::vector<lp::VarId>> var;
    build_base(model, var);
    model.set_direction(lp::Direction::kMinimize);
    std::vector<lp::Term> total;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        model.set_objective_coeff(var[i][j], distance(i, j) / scale);
        total.push_back({var[i][j], 1.0});
      }
    }
    model.add_constraint(std::move(total), lp::Sense::kGreaterEqual,
                         input.beta * result.opt_total, "efficiency");
    const auto sol = solver.Solve(model);
    result.status = sol.status;
    if (sol.status != lp::SolveStatus::kOptimal) return result;
    result.network_cost = sol.objective * scale;

    result.traffic.assign(n, std::vector<double>(n, 0.0));
    result.achieved_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double t = std::max(0.0, sol.values[static_cast<std::size_t>(var[i][j])]);
        result.traffic[i][j] = t;
        result.achieved_total += t;
      }
    }
    result.weights.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) row += result.traffic[i][j];
      if (row <= 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        result.weights[i][j] = result.traffic[i][j] / row;
      }
    }
  }
  return result;
}

void ApplyConcaveTransform(std::vector<std::vector<double>>& weights, double gamma) {
  if (!(gamma > 0.0) || gamma > 1.0) {
    throw std::invalid_argument("ApplyConcaveTransform: gamma must be in (0, 1]");
  }
  for (auto& row : weights) {
    double sum = 0.0;
    for (double& w : row) {
      if (w < 0) throw std::invalid_argument("ApplyConcaveTransform: negative weight");
      w = w > 0 ? std::pow(w, gamma) : 0.0;
      sum += w;
    }
    if (sum > 0) {
      for (double& w : row) w /= sum;
    }
  }
}

}  // namespace p4p::core
