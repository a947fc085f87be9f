// The iTracker: the provider portal of P4P.
//
// Internal view: the provider's topology graph with per-link capacities,
// background traffic b_e and dual prices p_e. External view: a full mesh of
// p-distances between externally visible PIDs (PoPs), computed by summing
// link prices along routed paths, optionally perturbed for privacy.
//
// Price dynamics implement Section 5 of the paper: the ISP objective is
// dualized per link and the iTracker runs a projected super-gradient ascent
// on the dual. Supported objectives:
//   * kMinMlu                  — minimize maximum link utilization (eq. 8-14);
//                                prices live on {sum c_e p_e = 1, p_e >= 0}.
//   * kBandwidthDistanceProduct— minimize sum d_e t_e (eq. 15); revealed
//                                distances are p_e + d_e with p_e >= 0.
//   * kPeakBandwidth           — MLU computed against the running peak of
//                                background traffic instead of its current
//                                value ("optimize for the cases when
//                                underlying traffic reaches its peak").
// Interdomain multihoming cost control (eq. 16) composes with any of the
// above: declared interdomain links get an extra dual q_e >= 0 driven by
// the virtual-capacity constraint t_e <= v_e.
//
// Alternatively the tracker runs in one of two non-dual modes the paper's
// experiments use: static prices (from OSPF weights, uniform, or explicit),
// or protected-link mode (Fig. 6: start all-zero and raise the price of
// designated links as observed utilization approaches a threshold).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/charging.h"
#include "core/pdistance.h"
#include "core/pid.h"
#include "net/graph.h"
#include "net/routing.h"

namespace p4p::core {

enum class IspObjective : std::uint8_t {
  kMinMlu,
  kBandwidthDistanceProduct,
  kPeakBandwidth,
};

enum class PriceMode : std::uint8_t {
  kStatic,         ///< prices set explicitly; Update() ignores intradomain
  kSuperGradient,  ///< projected super-gradient on the dual (default)
  kProtectedLink,  ///< Fig. 6 mode: react only on designated links
};

struct ITrackerConfig {
  IspObjective objective = IspObjective::kMinMlu;
  PriceMode mode = PriceMode::kSuperGradient;
  /// Relative step size of the super-gradient update (dimensionless; the
  /// tracker scales it internally to the price magnitude).
  double step_size = 0.3;
  /// Step size of the interdomain virtual-capacity dual.
  double interdomain_step = 0.5;
  /// Relative multiplicative perturbation of revealed distances (privacy);
  /// 0.05 means each pair is consistently skewed by up to +-5 %.
  double privacy_noise = 0.0;
  std::uint64_t noise_seed = 0x9E3779B97F4A7C15ULL;
  /// p-distance reported for an intra-PID pair.
  double intra_pid_distance = 0.0;
};

struct ProtectedLinkRule {
  double threshold_utilization = 0.7;
  double step = 1.0;   ///< price increment per unit of excess utilization
  double decay = 0.1;  ///< relative price decay per update when below
};

/// An immutable, internally consistent view of the priced state: the full
/// p-distance mesh together with the price version it was computed at.
/// Published by the ITracker through an atomic shared_ptr so any number of
/// server threads can read it while the optimizer keeps iterating.
struct PriceSnapshot {
  std::uint64_t version = 0;
  PDistanceMatrix view{0};
};

/// One source PID's row of a pinned PriceSnapshot, read with the checks of
/// ITracker::pdistance(): a PID outside the view throws std::out_of_range
/// and an unreachable pair std::runtime_error. The checks run on each read,
/// so a row for a bad source PID throws only once something reads it. Made
/// by ITracker::row(); the snapshot must outlive the row.
class PDistanceRow {
 public:
  double operator()(Pid j) const {
    if (j < 0 || j >= static_cast<Pid>(values_.size())) {
      ThrowOutOfRange();
    }
    const double d = values_[static_cast<std::size_t>(j)];
    // Every unreachable pair is stored as +inf, but a reachable one can
    // also price at +inf (infinite static prices): the route settles it.
    if (std::isinf(d) && j != from_ && !routing_->reachable(from_, j)) {
      ThrowUnreachable(from_, j);
    }
    return d;
  }

 private:
  friend class ITracker;
  PDistanceRow(const net::RoutingTable& routing, std::span<const double> values, Pid from)
      : routing_(&routing), values_(values), from_(from) {}
  [[noreturn]] static void ThrowOutOfRange();
  [[noreturn]] static void ThrowUnreachable(Pid from, Pid to);

  const net::RoutingTable* routing_;
  std::span<const double> values_;  // empty (every read throws) for a bad `from_`
  Pid from_;
};

class ITracker {
 public:
  /// `graph` and `routing` must outlive the tracker.
  ITracker(const net::Graph& graph, const net::RoutingTable& routing,
           ITrackerConfig config = {});

  int num_pids() const { return static_cast<int>(graph_.node_count()); }
  const net::Graph& graph() const { return graph_; }
  const ITrackerConfig& config() const { return config_; }

  // --- management plane: network status ---
  /// Sets current background (non-P4P) traffic per link, in bps. Also feeds
  /// the running peak used by kPeakBandwidth.
  void set_background_bps(std::span<const double> bps);
  const std::vector<double>& background_bps() const { return background_; }

  // --- static price configuration ---
  void SetUniformPrices();
  /// p_e proportional to OSPF weights, normalized onto the dual simplex.
  void SetPricesFromOspf();
  void SetStaticPrices(std::span<const double> prices);

  // --- protected-link mode (Fig. 6) ---
  void ProtectLink(net::LinkId link, ProtectedLinkRule rule);

  // --- interdomain multihoming ---
  /// Declares `link` an interdomain link with the given virtual capacity
  /// for P4P traffic. The link gains a dual price q_e updated by Update().
  void DeclareInterdomainLink(net::LinkId link, double virtual_capacity_bps);
  void set_virtual_capacity(net::LinkId link, double bps);
  double virtual_capacity(net::LinkId link) const;
  double interdomain_price(net::LinkId link) const;

  // --- dynamic update ---
  /// One price iteration given measured P4P traffic per link (bps). This is
  /// the iTracker half of Figure 5's interaction loop.
  void Update(std::span<const double> p4p_bps);

  /// Maximum link utilization of background + given P4P traffic.
  double Mlu(std::span<const double> p4p_bps) const;

  // --- external view ---
  // The full p-distance mesh is published as an immutable PriceSnapshot via
  // an atomic shared_ptr: the first query after a price/background mutation
  // materializes the matrix along the routing table's per-source trees, one
  // add per pair (serialized on an internal mutex with the mutators), and
  // swaps it in.
  // Later reads take no mutex, but they are not free: a libstdc++
  // atomic<shared_ptr> load sets a lock bit and increments the refcount,
  // and dropping the copy decrements it — read-modify-writes on cache lines
  // that every reader thread shares. Hot loops therefore pin one snapshot
  // and read it through row() (peer selection pins one per selection);
  // pdistance() pays a full load per call and is for the control plane.
  // Readers never wait on the optimizer in the steady state, so the tracker
  // is safe to query from N server threads while Update() runs elsewhere.
  /// Current revealed price of one link. Control-plane accessor: callers
  /// must not race it with mutators (serving threads use snapshot()).
  double link_price(net::LinkId link) const {
    return prices_.at(static_cast<std::size_t>(link));
  }
  /// The currently published (version, view) pair; never returns null.
  /// Costs one atomic shared_ptr load (see above): pin the result for the
  /// length of a hot loop instead of calling again per read.
  std::shared_ptr<const PriceSnapshot> snapshot() const;
  /// Row `i` of `snap`, which must come from this tracker's snapshot(), read
  /// with pdistance()'s checks. No atomic load: one pinned snapshot serves
  /// any number of reads at one price version.
  PDistanceRow row(const PriceSnapshot& snap, Pid i) const;
  /// p-distance between two PIDs, including BDP distance terms, interdomain
  /// duals, and privacy perturbation. Throws std::out_of_range for a bad
  /// PID and std::runtime_error when j is unreachable from i. Control-plane
  /// convenience: each call loads a snapshot (see above).
  double pdistance(Pid i, Pid j) const;
  /// One row of the external view (distances from `i` to every PID).
  /// Unreachable destinations carry +infinity.
  std::vector<double> GetPDistances(Pid i) const;
  /// Full-mesh snapshot. Unreachable pairs carry +infinity.
  PDistanceMatrix external_view() const;

  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Called with the version each mutation produced (exactly one call per
  /// mutation — the value is captured inside the lock, not re-read after
  /// it), outside the tracker's internal lock (so a listener may call
  /// snapshot() or query the serving path). The federation publisher
  /// registers its republish trigger here. Under concurrent mutators the
  /// calls for distinct versions may arrive out of order, so a listener
  /// must treat the argument as a low-water mark, not the current version;
  /// rapid successive mutations can therefore still look "coalesced" to a
  /// slow listener, and followers rely on beacon/pull anti-entropy to
  /// reach the final version regardless. Registration is a setup-time
  /// operation: it must not race mutators; listeners themselves must be
  /// thread-safe when mutators run on more than one thread.
  using VersionListener = std::function<void(std::uint64_t)>;
  void RegisterVersionListener(VersionListener listener);

  /// Floors the version counter at `version` (no-op when already past it)
  /// and notifies listeners with the resulting version. A promoting
  /// federation publisher calls this with term * kTermVersionStride so
  /// every term mints version tokens from a disjoint range — the published
  /// matrix is unchanged, only the token moves. Same thread-safety rules
  /// as any mutator. Returns the version now current.
  std::uint64_t AdvanceVersionTo(std::uint64_t version);

 private:
  double price_unit() const;
  double perturb(Pid i, Pid j, double value) const;
  /// Builds the p-distance mesh from the current priced state. Caller must
  /// hold mu_.
  PDistanceMatrix BuildViewLocked() const;
  /// Bumps the version after a mutation and returns the bumped value, so
  /// the caller can hand its own mutation's version to the listeners
  /// instead of re-reading the counter after unlocking. Caller must hold
  /// mu_.
  std::uint64_t BumpVersionLocked() {
    const std::uint64_t v = version_.load(std::memory_order_relaxed) + 1;
    version_.store(v, std::memory_order_release);
    return v;
  }
  /// Invokes every registered listener with `version` — the exact version
  /// this mutation produced. Must be called after releasing mu_ —
  /// listeners may re-enter the read path. Under concurrent mutators,
  /// notifications for distinct versions may still arrive out of order
  /// (the lock is released before notifying), so listeners must treat the
  /// value as "at least this version exists", never as "this is current";
  /// federation anti-entropy covers any skipped intermediate.
  void NotifyVersionListeners(std::uint64_t version) const;

  const net::Graph& graph_;
  const net::RoutingTable& routing_;
  ITrackerConfig config_;
  std::vector<double> prices_;      // intradomain duals p_e
  std::vector<double> background_;  // b_e (bps)
  std::vector<double> peak_background_;
  std::unordered_map<net::LinkId, ProtectedLinkRule> protected_;
  struct InterdomainState {
    double virtual_capacity_bps = 0.0;
    double price = 0.0;  // q_e
  };
  std::unordered_map<net::LinkId, InterdomainState> interdomain_;
  std::vector<VersionListener> version_listeners_;
  std::atomic<std::uint64_t> version_{0};
  /// Serializes mutators with each other and with snapshot rebuilds. Held
  /// only during mutations and the once-per-version rebuild, never on the
  /// steady-state read path.
  mutable std::mutex mu_;
  mutable std::atomic<std::shared_ptr<const PriceSnapshot>> snapshot_;
};

}  // namespace p4p::core
