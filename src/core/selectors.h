// Peer-selection policies: the three appTracker variants the paper
// evaluates, plus the black-box wrapper of Section 4.
//
//  * NativeRandomSelector  — "the native BitTorrent appTracker chooses
//                            peers randomly".
//  * DelayLocalizedSelector— "delay-localized BitTorrent, in which a client
//                            chooses peers with lower latency".
//  * P4PSelector           — the paper's three-stage P4P selection
//                            (intra-PID, inter-PID, inter-AS) driven by
//                            per-AS iTracker p-distances, with 1/p_ij
//                            weighting, the concave robustness transform,
//                            and optional Pando-style matching weights.
//  * BlackBoxSelector      — runs an inner selector several times and keeps
//                            the candidate set with the lowest total
//                            p-distance ("Black-box Peer Selection").
#pragma once

#include <map>
#include <memory>

#include "core/itracker.h"
#include "core/matching.h"
#include "sim/bittorrent.h"
#include "sim/peer_buckets.h"

namespace p4p::core {

/// Reusable state for bucket-driven selection: one workspace serves one
/// caller at a time, and reusing it across announces keeps steady-state
/// selection free of per-call allocations — no per-announce partition maps,
/// no full-swarm copies, no distribution temporaries. NativeRandomSelector
/// and P4PSelector keep one instance per thread; benches and tests may pass
/// their own through P4PSelector::SelectWithWorkspace.
///
/// Besides scratch, the workspace caches P4PSelector's concave PID weights
/// (1/p_ij)^gamma under one key, (PriceSnapshot, gamma), with one row per
/// source PID. The key is a weak_ptr compared by owner: the control block
/// it keeps cannot be reused by a later snapshot while cached, yet a
/// superseded view's matrix is freed once the tracker and in-flight
/// selections let go of it. A miss re-keys the cache, and each row is
/// re-marked stale only when next touched (O(#PIDs) per row); an entry's
/// pow() runs the first time a selection reads that PID. Entries are pure
/// functions of the key, so a warm and a cold workspace return the same
/// peer set for the same rng state.
class SelectionWorkspace {
 public:
  SelectionWorkspace() = default;
  SelectionWorkspace(const SelectionWorkspace&) = delete;
  SelectionWorkspace& operator=(const SelectionWorkspace&) = delete;

 private:
  friend class NativeRandomSelector;
  friend class P4PSelector;

  /// Row `i` of the weight cache for (`snap`, `gamma`), `snap->view.size()`
  /// entries: below zero = not yet computed at this key, zero = read the
  /// PID through PDistanceRow, positive = (1/p_ij)^gamma. Null when `i` is
  /// outside the view. A new key re-keys the cache.
  double* WeightRow(const std::shared_ptr<const PriceSnapshot>& snap, double gamma, Pid i);

  struct CachedRow {
    std::uint64_t key_epoch = 0;  // the key the values belong to
    std::vector<double> weight;
  };
  std::weak_ptr<const PriceSnapshot> weight_snap_;
  double weight_gamma_ = 0.0;
  std::uint64_t weight_epoch_ = 0;     // bumped on every new key
  std::vector<CachedRow> weight_rows_; // by source PID

  std::vector<int> take_;                   // per-bucket take count this call
  std::vector<std::uint32_t> entry_bucket_; // candidate buckets, current stage
  std::vector<double> entry_weight_;
  std::vector<int> entry_avail_;            // remaining candidates per entry
  std::vector<std::uint64_t> picks_;        // Floyd-sampling scratch
  std::vector<std::size_t> prefix_;         // bucket-size prefix sums
};

class NativeRandomSelector final : public sim::PeerSelector {
 public:
  /// Index-driven uniform sampling: O(#buckets + m^2), never flattens.
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;
  std::string name() const override { return "Native"; }
};

class DelayLocalizedSelector final : public sim::PeerSelector {
 public:
  /// Latency between attachment PoPs comes from the routing table, plus a
  /// fixed per-endpoint access (last-mile) delay — co-located clients are
  /// *not* at zero RTT, which is why nearby metros (e.g. NY and DC) look
  /// equally "local" to a latency probe. `jitter` models RTT measurement
  /// noise (fractional, e.g. 0.1 = 10 %).
  /// `random_fraction` of the returned peers are drawn uniformly instead of
  /// by latency — real localized clients keep a random component for piece
  /// diversity (cf. Bindal et al.'s biased neighbor selection).
  /// `subset_size` models the tracker handing the client a random subset to
  /// localize within (a real tracker does not expose the whole swarm);
  /// 0 means rank all candidates.
  explicit DelayLocalizedSelector(const net::RoutingTable& routing,
                                  double jitter = 0.1, double access_ms = 5.0,
                                  double random_fraction = 0.15,
                                  int subset_size = 50)
      : routing_(routing),
        jitter_(jitter),
        access_ms_(access_ms),
        random_fraction_(random_fraction),
        subset_size_(subset_size) {}

  /// Ranks the members in bucket/slot order, so a subset is drawn by rank.
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;
  std::string name() const override { return "Localized"; }

 private:
  const net::RoutingTable& routing_;
  double jitter_;
  double access_ms_;
  double random_fraction_;
  int subset_size_;
};

struct P4PSelectorConfig {
  /// Upper-Bound-IntraPID: at most this fraction of m from the client's PID.
  double upper_bound_intra_pid = 0.7;
  /// Upper-Bound-InterPID: at most this fraction of m from the client's AS.
  double upper_bound_inter_pid = 0.8;
  /// Exponent of the concave robustness transform on the PID weights.
  double concave_gamma = 0.5;
  /// A PID at p_ij == 0 is weighted as if its distance were the smallest
  /// positive distance divided by this factor ("sets w_ij to be a large
  /// value") — relative, because dual prices can live at any scale.
  double zero_distance_factor = 10.0;
};

/// Stages 2 and 3 and the same-AS backfill weight each candidate bucket's
/// PID by (w_ij / sum)^gamma with w_ij = 1/p_ij (or a matching weight). A
/// stage whose live candidates outnumber its quota cannot run dry, and there
/// the normalization cancels: it samples the workspace's cached
/// (1/p_ij)^gamma directly, with a zero-distance PID at
/// zero_distance_factor^gamma times the stage's heaviest cached weight. A
/// stage that can run dry keeps the normalized arithmetic, because there
/// the floating-point remainder of the weight sum decides whether one more
/// RNG draw is spent (DESIGN.md §10, "Weight rows per snapshot"). A stage
/// that follows matching weights is normalized too.
class P4PSelector final : public sim::PeerSelector {
 public:
  explicit P4PSelector(P4PSelectorConfig config = {});

  /// Registers the iTracker serving AS `as_number`. When a client of AS-n
  /// joins, selection uses AS-n's view (the paper's resolution of
  /// conflicting inter-AS preferences). Trackers must outlive the selector.
  void RegisterITracker(std::int32_t as_number, const ITracker* tracker);

  /// Pando mode: inter-PID selection follows matching weights w_ij from
  /// SolveMatching instead of 1/p_ij.
  void SetMatchingWeights(std::int32_t as_number,
                          std::vector<std::vector<double>> weights);
  void ClearMatchingWeights(std::int32_t as_number);

  /// Index-driven three-stage selection: stages sample from the swarm's
  /// per-PID buckets and per-AS groups directly — O(#buckets + m^2) per
  /// announce instead of O(swarm) — using a per-thread workspace.
  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;

  /// Same as SelectFromBuckets but against an explicit workspace (one
  /// workspace serves one caller at a time).
  std::vector<sim::PeerId> SelectWithWorkspace(const sim::PeerInfo& client,
                                               const sim::PeerBuckets& swarm,
                                               int m, std::mt19937_64& rng,
                                               SelectionWorkspace& ws);

  std::string name() const override { return "P4P"; }

 private:
  P4PSelectorConfig config_;
  /// zero_distance_factor^concave_gamma, or 0 when the parameters leave the
  /// cached weights without the proportionality they rely on (gamma <= 0,
  /// a factor <= 0, a non-finite value): then every stage is normalized.
  double zero_weight_scale_ = 0.0;
  std::map<std::int32_t, const ITracker*> trackers_;
  std::map<std::int32_t, std::vector<std::vector<double>>> matching_weights_;
};

class BlackBoxSelector final : public sim::PeerSelector {
 public:
  /// Runs `inner` `attempts` times and keeps the set minimizing the total
  /// p-distance from the client under `tracker`.
  BlackBoxSelector(std::unique_ptr<sim::PeerSelector> inner, const ITracker& tracker,
                   int attempts = 4);

  std::vector<sim::PeerId> SelectFromBuckets(const sim::PeerInfo& client,
                                             const sim::PeerBuckets& swarm,
                                             int m, std::mt19937_64& rng) override;
  std::string name() const override;

 private:
  std::unique_ptr<sim::PeerSelector> inner_;
  const ITracker& tracker_;
  int attempts_;
};

}  // namespace p4p::core
