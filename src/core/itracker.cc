#include "core/itracker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/projection.h"

namespace p4p::core {

namespace {
// SplitMix64 — deterministic per-pair perturbation hash.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

ITracker::ITracker(const net::Graph& graph, const net::RoutingTable& routing,
                   ITrackerConfig config)
    : graph_(graph), routing_(routing), config_(config) {
  if (config_.step_size < 0 || config_.interdomain_step < 0 ||
      config_.privacy_noise < 0 || config_.privacy_noise >= 1.0) {
    throw std::invalid_argument("ITracker: bad config");
  }
  prices_.assign(graph_.link_count(), 0.0);
  background_.assign(graph_.link_count(), 0.0);
  peak_background_.assign(graph_.link_count(), 0.0);
  if (config_.mode == PriceMode::kSuperGradient) {
    SetUniformPrices();
  }
}

void ITracker::set_background_bps(std::span<const double> bps) {
  if (bps.size() != background_.size()) {
    throw std::invalid_argument("ITracker: background size mismatch");
  }
  for (double b : bps) {
    if (b < 0 || std::isnan(b)) {
      throw std::invalid_argument("ITracker: negative background traffic");
    }
  }
  std::uint64_t notify_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t l = 0; l < bps.size(); ++l) {
      background_[l] = bps[l];
      peak_background_[l] = std::max(peak_background_[l], bps[l]);
    }
    notify_version = BumpVersionLocked();
  }
  NotifyVersionListeners(notify_version);
}

void ITracker::RegisterVersionListener(VersionListener listener) {
  if (!listener) {
    throw std::invalid_argument("ITracker: null version listener");
  }
  version_listeners_.push_back(std::move(listener));
}

void ITracker::NotifyVersionListeners(std::uint64_t version) const {
  for (const auto& listener : version_listeners_) listener(version);
}

std::uint64_t ITracker::AdvanceVersionTo(std::uint64_t version) {
  std::uint64_t notify_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t held = version_.load(std::memory_order_relaxed);
    notify_version = std::max(held, version);
    if (notify_version != held) {
      version_.store(notify_version, std::memory_order_release);
    }
  }
  // Notify even on a no-op floor: the caller (a promoting publisher's
  // rebind) wants its listener kicked once at the resulting version.
  NotifyVersionListeners(notify_version);
  return notify_version;
}

double ITracker::price_unit() const {
  if (config_.objective == IspObjective::kBandwidthDistanceProduct) {
    // Price in "distance units": scale to the mean link distance so the
    // congestion dual is commensurate with the d_e terms it augments.
    double total = 0.0;
    for (const auto& l : graph_.links()) total += l.distance;
    return graph_.link_count() > 0 ? total / static_cast<double>(graph_.link_count())
                                   : 1.0;
  }
  double cap_sum = 0.0;
  for (const auto& l : graph_.links()) cap_sum += l.capacity_bps;
  return cap_sum > 0 ? 1.0 / cap_sum : 1.0;
}

void ITracker::SetUniformPrices() {
  double cap_sum = 0.0;
  for (const auto& l : graph_.links()) cap_sum += l.capacity_bps;
  const double p = cap_sum > 0 ? 1.0 / cap_sum : 0.0;
  std::uint64_t notify_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::fill(prices_.begin(), prices_.end(), p);
    notify_version = BumpVersionLocked();
  }
  NotifyVersionListeners(notify_version);
}

void ITracker::SetPricesFromOspf() {
  // p_e proportional to the OSPF weight, normalized onto {sum c_e p_e = 1}.
  double denom = 0.0;
  for (const auto& l : graph_.links()) denom += l.ospf_weight * l.capacity_bps;
  if (denom <= 0) {
    throw std::runtime_error("ITracker: degenerate OSPF weights");
  }
  std::uint64_t notify_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t e = 0; e < prices_.size(); ++e) {
      prices_[e] = graph_.link(static_cast<net::LinkId>(e)).ospf_weight / denom;
    }
    notify_version = BumpVersionLocked();
  }
  NotifyVersionListeners(notify_version);
}

void ITracker::SetStaticPrices(std::span<const double> prices) {
  if (prices.size() != prices_.size()) {
    throw std::invalid_argument("ITracker: price vector size mismatch");
  }
  for (double p : prices) {
    if (p < 0 || std::isnan(p)) {
      throw std::invalid_argument("ITracker: prices must be non-negative");
    }
  }
  std::uint64_t notify_version = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::copy(prices.begin(), prices.end(), prices_.begin());
    notify_version = BumpVersionLocked();
  }
  NotifyVersionListeners(notify_version);
}

void ITracker::ProtectLink(net::LinkId link, ProtectedLinkRule rule) {
  if (link < 0 || static_cast<std::size_t>(link) >= graph_.link_count()) {
    throw std::invalid_argument("ITracker: unknown link");
  }
  std::lock_guard<std::mutex> lock(mu_);
  protected_[link] = rule;
}

void ITracker::DeclareInterdomainLink(net::LinkId link, double virtual_capacity_bps) {
  if (link < 0 || static_cast<std::size_t>(link) >= graph_.link_count()) {
    throw std::invalid_argument("ITracker: unknown link");
  }
  if (virtual_capacity_bps < 0) {
    throw std::invalid_argument("ITracker: negative virtual capacity");
  }
  std::lock_guard<std::mutex> lock(mu_);
  interdomain_[link] = InterdomainState{virtual_capacity_bps, 0.0};
}

void ITracker::set_virtual_capacity(net::LinkId link, double bps) {
  if (bps < 0) {
    throw std::invalid_argument("ITracker: negative virtual capacity");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = interdomain_.find(link);
  if (it == interdomain_.end()) {
    throw std::invalid_argument("ITracker: link not declared interdomain");
  }
  it->second.virtual_capacity_bps = bps;
}

double ITracker::virtual_capacity(net::LinkId link) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = interdomain_.find(link);
  return it == interdomain_.end() ? 0.0 : it->second.virtual_capacity_bps;
}

double ITracker::interdomain_price(net::LinkId link) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = interdomain_.find(link);
  return it == interdomain_.end() ? 0.0 : it->second.price;
}

double ITracker::Mlu(std::span<const double> p4p_bps) const {
  if (p4p_bps.size() != prices_.size()) {
    throw std::invalid_argument("ITracker: traffic vector size mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  double mlu = 0.0;
  for (std::size_t e = 0; e < p4p_bps.size(); ++e) {
    const double cap = graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
    mlu = std::max(mlu, (background_[e] + p4p_bps[e]) / cap);
  }
  return mlu;
}

void ITracker::Update(std::span<const double> p4p_bps) {
  if (p4p_bps.size() != prices_.size()) {
    throw std::invalid_argument("ITracker: traffic vector size mismatch");
  }
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t num_links = prices_.size();
  const double unit = price_unit();

  switch (config_.mode) {
    case PriceMode::kStatic:
      break;
    case PriceMode::kProtectedLink: {
      // Raise the price of protected links as utilization approaches the
      // threshold; decay when clear. Unprotected links stay at their static
      // price (typically zero — the Fig. 6 configuration).
      for (auto& [link, rule] : protected_) {
        const auto e = static_cast<std::size_t>(link);
        const double cap = graph_.link(link).capacity_bps;
        const double util = (background_[e] + p4p_bps[e]) / cap;
        double& p = prices_[e];
        if (util > rule.threshold_utilization) {
          p += rule.step * (util - rule.threshold_utilization) * unit;
        } else {
          p *= (1.0 - rule.decay);
        }
      }
      break;
    }
    case PriceMode::kSuperGradient: {
      const bool peak = config_.objective == IspObjective::kPeakBandwidth;
      const auto& base = peak ? peak_background_ : background_;
      if (config_.objective == IspObjective::kBandwidthDistanceProduct) {
        // Dual of t_e <= c_e - b_e; supergradient xi_e = b_e + t_e - c_e.
        // Normalized: step on (utilization - 1), projected onto p_e >= 0.
        for (std::size_t e = 0; e < num_links; ++e) {
          const double cap = graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
          const double util = (base[e] + p4p_bps[e]) / cap;
          prices_[e] = std::max(0.0, prices_[e] + config_.step_size * (util - 1.0) * unit);
        }
      } else {
        // Proposition 1: xi_e = b_e + t_e - alpha c_e, with alpha the
        // current MLU. Normalized per-link to (util_e - alpha), stepped, and
        // projected back onto the dual simplex {sum c_e p_e = 1, p >= 0}.
        double alpha = 0.0;
        for (std::size_t e = 0; e < num_links; ++e) {
          const double cap = graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
          alpha = std::max(alpha, (base[e] + p4p_bps[e]) / cap);
        }
        std::vector<double> next(num_links);
        std::vector<double> caps(num_links);
        for (std::size_t e = 0; e < num_links; ++e) {
          const double cap = graph_.link(static_cast<net::LinkId>(e)).capacity_bps;
          const double util = (base[e] + p4p_bps[e]) / cap;
          next[e] = prices_[e] + config_.step_size * (util - alpha + 1e-12) * unit;
          caps[e] = cap;
        }
        prices_ = ProjectWeightedSimplex(next, caps);
      }
      break;
    }
  }

  // Interdomain duals compose with every mode: q_e rises while P4P traffic
  // exceeds the virtual capacity, decays toward zero when within it.
  for (auto& [link, state] : interdomain_) {
    const auto e = static_cast<std::size_t>(link);
    const double v = state.virtual_capacity_bps;
    const double t = p4p_bps[e];
    const double violation = v > 0 ? (t - v) / v : (t > 0 ? 1.0 : 0.0);
    state.price = std::max(0.0, state.price + config_.interdomain_step * violation * unit);
  }

  const std::uint64_t notify_version = BumpVersionLocked();
  lock.unlock();
  NotifyVersionListeners(notify_version);
}

double ITracker::perturb(Pid i, Pid j, double value) const {
  if (config_.privacy_noise <= 0.0) return value;
  const std::uint64_t h =
      Mix(config_.noise_seed ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32 |
                                static_cast<std::uint32_t>(j)));
  // Map to [-1, 1) deterministically.
  const double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
  return value * (1.0 + config_.privacy_noise * u);
}

PDistanceMatrix ITracker::BuildViewLocked() const {
  const int n = num_pids();
  // Per-link revealed cost: congestion dual, plus the BDP distance term and
  // the interdomain dual where applicable. Folding these into one vector
  // turns every pair into a plain sum over its route.
  std::vector<double> link_cost(prices_);
  if (config_.objective == IspObjective::kBandwidthDistanceProduct) {
    for (std::size_t e = 0; e < link_cost.size(); ++e) {
      link_cost[e] += graph_.link(static_cast<net::LinkId>(e)).distance;
    }
  }
  for (const auto& [link, state] : interdomain_) {
    link_cost[static_cast<std::size_t>(link)] += state.price;
  }

  // Every route is its parent's route plus one link, so walking the source's
  // routing tree in hop order costs one add per pair and adds the links up
  // in path order: the same sum, bit for bit, as adding along each path.
  PDistanceMatrix m(n, std::numeric_limits<double>::infinity());
  for (Pid i = 0; i < n; ++i) {
    const auto row = m.mutable_row(i);
    const auto tree = routing_.tree(i);
    row[static_cast<std::size_t>(i)] = 0.0;
    for (const net::TreeStep& step : tree) {
      row[static_cast<std::size_t>(step.dst)] =
          row[static_cast<std::size_t>(step.parent)] +
          link_cost[static_cast<std::size_t>(step.link)];
    }
    // Perturb only once every route sum exists: children read raw parents.
    if (config_.privacy_noise > 0.0) {
      for (const net::TreeStep& step : tree) {
        auto& d = row[static_cast<std::size_t>(step.dst)];
        d = perturb(i, step.dst, d);
      }
    }
    row[static_cast<std::size_t>(i)] = config_.intra_pid_distance;
  }
  return m;
}

std::shared_ptr<const PriceSnapshot> ITracker::snapshot() const {
  // Fast path: the published snapshot matches the current version. This is
  // the whole steady-state read path — one atomic shared_ptr load, no mutex.
  auto snap = snapshot_.load(std::memory_order_acquire);
  const std::uint64_t v = version_.load(std::memory_order_acquire);
  if (snap && snap->version == v) return snap;
  // Slow path (once per version): rebuild off to the side under the same
  // mutex the mutators hold, then publish. A mutator that slips in between
  // our build and a reader's check just triggers another rebuild.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t locked_v = version_.load(std::memory_order_relaxed);
  snap = snapshot_.load(std::memory_order_acquire);
  if (snap && snap->version == locked_v) return snap;
  auto next = std::make_shared<PriceSnapshot>();
  next->version = locked_v;
  next->view = BuildViewLocked();
  snapshot_.store(next, std::memory_order_release);
  return next;
}

void PDistanceRow::ThrowOutOfRange() {
  throw std::out_of_range("ITracker: PID out of range");
}

void PDistanceRow::ThrowUnreachable(Pid from, Pid to) {
  throw std::runtime_error("ITracker: PID " + std::to_string(to) + " unreachable from " +
                           std::to_string(from));
}

PDistanceRow ITracker::row(const PriceSnapshot& snap, Pid i) const {
  const bool valid = i >= 0 && i < snap.view.size();
  return PDistanceRow(routing_, valid ? snap.view.row(i) : std::span<const double>(), i);
}

double ITracker::pdistance(Pid i, Pid j) const { return row(*snapshot(), i)(j); }

std::vector<double> ITracker::GetPDistances(Pid i) const {
  if (i < 0 || i >= num_pids()) {
    throw std::out_of_range("ITracker: PID out of range");
  }
  const auto snap = snapshot();
  const auto values = snap->view.row(i);
  return std::vector<double>(values.begin(), values.end());
}

PDistanceMatrix ITracker::external_view() const { return snapshot()->view; }

}  // namespace p4p::core
