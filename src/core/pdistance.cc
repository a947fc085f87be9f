#include "core/pdistance.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace p4p::core {

PDistanceMatrix::PDistanceMatrix(int num_pids, double initial)
    : n_(num_pids),
      values_(static_cast<std::size_t>(num_pids) * static_cast<std::size_t>(num_pids),
              initial) {
  if (num_pids < 0) {
    throw std::invalid_argument("PDistanceMatrix: negative size");
  }
}

void PDistanceMatrix::check(Pid i, Pid j) const {
  if (i < 0 || j < 0 || i >= n_ || j >= n_) {
    throw std::out_of_range("PDistanceMatrix: PID out of range");
  }
}

double PDistanceMatrix::at(Pid i, Pid j) const {
  check(i, j);
  return values_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(j)];
}

std::span<const double> PDistanceMatrix::row(Pid i) const {
  check(i, i);
  const auto n = static_cast<std::size_t>(n_);
  return std::span<const double>(values_).subspan(static_cast<std::size_t>(i) * n, n);
}

std::span<double> PDistanceMatrix::mutable_row(Pid i) {
  check(i, i);
  const auto n = static_cast<std::size_t>(n_);
  return std::span<double>(values_).subspan(static_cast<std::size_t>(i) * n, n);
}

void PDistanceMatrix::set(Pid i, Pid j, double value) {
  check(i, j);
  values_[static_cast<std::size_t>(i) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(j)] = value;
}

std::vector<Pid> PDistanceMatrix::RankFrom(Pid i) const {
  check(i, i);
  std::vector<Pid> order(static_cast<std::size_t>(n_));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this, i](Pid a, Pid b) {
    return at(i, a) < at(i, b);
  });
  return order;
}

void PDistanceMatrix::Normalize() {
  const double max = values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  if (max <= 0.0) return;
  for (double& v : values_) v /= max;
}

}  // namespace p4p::core
