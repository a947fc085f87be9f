#include "core/selectors.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace p4p::core {

namespace {

/// The per-thread workspace behind the bucket-aware selector entry points.
/// Sharing one instance across selector objects on the same thread is safe:
/// scratch does not survive a call, and the weight cache is keyed by
/// snapshot and gamma.
SelectionWorkspace& ThreadWorkspace() {
  thread_local SelectionWorkspace ws;
  return ws;
}

/// Floyd's algorithm: appends `k` distinct values drawn uniformly from
/// [0, n) to `picks` (cleared first). O(k^2) with k = peers wanted, which is
/// tiny; never touches storage proportional to n.
void FloydSample(std::uint64_t n, int k, std::mt19937_64& rng,
                 std::vector<std::uint64_t>& picks) {
  picks.clear();
  if (k <= 0 || n == 0) return;
  const std::uint64_t take = std::min<std::uint64_t>(static_cast<std::uint64_t>(k), n);
  for (std::uint64_t i = n - take; i < n; ++i) {
    std::uniform_int_distribution<std::uint64_t> dist(0, i);
    const std::uint64_t t = dist(rng);
    if (std::find(picks.begin(), picks.end(), t) != picks.end()) {
      picks.push_back(i);
    } else {
      picks.push_back(t);
    }
  }
}

/// Fills `prefix` with bucket-size prefix sums: `prefix[b]` is the rank of
/// bucket b's first member in bucket/slot order, and `prefix.back()` the
/// swarm size.
void BucketPrefix(const sim::PeerBuckets& swarm, std::vector<std::size_t>& prefix) {
  const auto& buckets = swarm.buckets();
  prefix.assign(buckets.size() + 1, 0);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    prefix[b + 1] = prefix[b] + buckets[b].peers.size();
  }
}

/// The member at `rank` in bucket/slot order, given BucketPrefix's sums.
const sim::PeerInfo& MemberAtRank(const sim::PeerBuckets& swarm,
                                  const std::vector<std::size_t>& prefix,
                                  std::uint64_t rank) {
  const auto it = std::upper_bound(prefix.begin(), prefix.end(), rank);
  const std::size_t b = static_cast<std::size_t>(it - prefix.begin()) - 1;
  return swarm.buckets()[b].peers[rank - prefix[b]];
}

/// The cached weight of a PID at p-distance `p`: (1/p)^gamma when that is
/// finite and positive, else 0 (the PID is then read through PDistanceRow).
double ConcaveWeight(double p, double gamma) {
  if (!(p > 0) || std::isinf(p)) return 0.0;
  const double w = std::pow(1.0 / p, gamma);
  return std::isfinite(w) ? w : 0.0;
}

}  // namespace

double* SelectionWorkspace::WeightRow(const std::shared_ptr<const PriceSnapshot>& snap,
                                      double gamma, Pid i) {
  const Pid n = snap->view.size();
  if (i < 0 || i >= n) return nullptr;
  // The key compares owners: the weak reference keeps the control block, so
  // no later snapshot can share it, while the matrix is freed with the
  // snapshot.
  if (weight_gamma_ != gamma || weight_snap_.owner_before(snap) ||
      snap.owner_before(weight_snap_)) {
    weight_snap_ = snap;
    weight_gamma_ = gamma;
    ++weight_epoch_;
  }
  if (weight_rows_.size() < static_cast<std::size_t>(n)) {
    weight_rows_.resize(static_cast<std::size_t>(n));
  }
  auto& row = weight_rows_[static_cast<std::size_t>(i)];
  if (row.key_epoch != weight_epoch_) {
    row.weight.assign(static_cast<std::size_t>(n), -1.0);
    row.key_epoch = weight_epoch_;
  }
  return row.weight.data();
}

std::vector<sim::PeerId> NativeRandomSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  std::vector<sim::PeerId> out;
  if (m <= 0 || swarm.empty()) return out;
  SelectionWorkspace& ws = ThreadWorkspace();

  // Global-rank sampling: prefix sums over bucket sizes map a rank in
  // [0, swarm size) to a (bucket, slot) pair; the client's own rank (when a
  // member) is excised by index arithmetic.
  BucketPrefix(swarm, ws.prefix_);
  const auto client_slot = swarm.SlotOf(client.id);
  const std::uint64_t total = swarm.size();
  const std::uint64_t population = total - (client_slot ? 1 : 0);
  const std::uint64_t client_rank =
      client_slot ? ws.prefix_[client_slot->bucket] + client_slot->index : 0;
  const int take = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(m), population));
  if (take <= 0) return out;

  FloydSample(population, take, rng, ws.picks_);
  out.reserve(static_cast<std::size_t>(take));
  for (std::uint64_t rank : ws.picks_) {
    if (client_slot && rank >= client_rank) ++rank;
    out.push_back(MemberAtRank(swarm, ws.prefix_, rank).id);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::vector<sim::PeerId> DelayLocalizedSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  struct Entry {
    sim::PeerId id;
    double rtt;
  };
  std::uniform_real_distribution<double> noise(1.0 - jitter_, 1.0 + jitter_);
  // The tracker only reveals a random subset of the swarm; the client
  // localizes within it. Members are ranked in bucket/slot order.
  std::vector<std::size_t> prefix;
  BucketPrefix(swarm, prefix);
  std::vector<std::size_t> order(swarm.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (subset_size_ > 0 && swarm.size() > static_cast<std::size_t>(subset_size_)) {
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(static_cast<std::size_t>(subset_size_));
  }
  std::vector<Entry> entries;
  entries.reserve(order.size());
  for (std::size_t idx : order) {
    const auto& c = MemberAtRank(swarm, prefix, idx);
    if (c.id == client.id) continue;
    // Measured RTT: propagation between PoPs plus both endpoints' access
    // (last-mile) delay, with multiplicative measurement noise.
    const double rtt =
        (routing_.latency_ms(client.node, c.node) + 2.0 * access_ms_) * noise(rng);
    entries.push_back({c.id, rtt});
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.rtt != b.rtt) return a.rtt < b.rtt;
    return a.id < b.id;
  });
  const int by_latency =
      m - static_cast<int>(std::floor(random_fraction_ * m));
  std::vector<sim::PeerId> out;
  for (const auto& e : entries) {
    if (static_cast<int>(out.size()) >= by_latency) break;
    out.push_back(e.id);
  }
  // Random remainder for piece diversity.
  std::vector<sim::PeerId> rest;
  for (std::size_t i = out.size(); i < entries.size(); ++i) rest.push_back(entries[i].id);
  std::shuffle(rest.begin(), rest.end(), rng);
  for (sim::PeerId id : rest) {
    if (static_cast<int>(out.size()) >= m) break;
    out.push_back(id);
  }
  return out;
}

P4PSelector::P4PSelector(P4PSelectorConfig config) : config_(config) {
  const double scale = std::pow(config_.zero_distance_factor, config_.concave_gamma);
  if (config_.concave_gamma > 0 && std::isfinite(config_.concave_gamma) &&
      scale > 0 && std::isfinite(scale)) {
    zero_weight_scale_ = scale;
  }
}

void P4PSelector::RegisterITracker(std::int32_t as_number, const ITracker* tracker) {
  if (tracker == nullptr) {
    throw std::invalid_argument("P4PSelector: null tracker");
  }
  trackers_[as_number] = tracker;
}

void P4PSelector::SetMatchingWeights(std::int32_t as_number,
                                     std::vector<std::vector<double>> weights) {
  matching_weights_[as_number] = std::move(weights);
}

void P4PSelector::ClearMatchingWeights(std::int32_t as_number) {
  matching_weights_.erase(as_number);
}

std::vector<sim::PeerId> P4PSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  return SelectWithWorkspace(client, swarm, m, rng, ThreadWorkspace());
}

std::vector<sim::PeerId> P4PSelector::SelectWithWorkspace(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng, SelectionWorkspace& ws) {
  std::vector<sim::PeerId> out;
  if (m <= 0 || swarm.empty()) return out;
  const auto tracker_it = trackers_.find(client.as_number);
  if (tracker_it == trackers_.end()) {
    // No view for this AS: degrade gracefully to random selection.
    NativeRandomSelector fallback;
    return fallback.SelectFromBuckets(client, swarm, m, rng);
  }
  const ITracker& tracker = *tracker_it->second;
  const Pid my_pid = client.node;  // PoP-level aggregation: PID == node id
  // One pinned snapshot serves every stage and the backfill: one price
  // version per selection, and one atomic load rather than one per bucket.
  const auto snap = tracker.snapshot();
  const PDistanceRow pdist = tracker.row(*snap, my_pid);

  const auto& buckets = swarm.buckets();
  const auto client_slot = swarm.SlotOf(client.id);
  const std::uint32_t client_bucket =
      client_slot ? client_slot->bucket : sim::PeerBuckets::npos;
  const std::uint32_t my_bucket = swarm.BucketOf(client.as_number, my_pid);
  const auto same_as = swarm.AsGroup(client.as_number);

  // Stages only record how many peers each bucket contributes; concrete
  // slots are materialized once at the end. Choosing counts first and then
  // sampling that many distinct slots per bucket is distributionally
  // identical to removing each pick from a flat candidate list, without
  // mutating or copying any candidate state.
  ws.take_.assign(buckets.size(), 0);
  const auto avail = [&](std::uint32_t b) {
    return static_cast<int>(buckets[b].peers.size()) -
           (b == client_bucket ? 1 : 0) - ws.take_[b];
  };

  int selected = 0;

  // --- Stage 1: intra-PID ---
  double intra_bound = config_.upper_bound_intra_pid;
  {
    // "The bound will be set to a lower value if the network p-distance
    // within PID-i is relatively higher than outside the PID."
    double min_outside = std::numeric_limits<double>::infinity();
    for (std::uint32_t b : same_as) {
      if (b == my_bucket || avail(b) <= 0) continue;
      min_outside = std::min(min_outside, pdist(buckets[b].pid));
    }
    if (std::isfinite(min_outside) && pdist(my_pid) > min_outside) {
      intra_bound *= 0.5;
    }
  }
  const int intra_quota = static_cast<int>(std::floor(intra_bound * m));
  if (my_bucket != sim::PeerBuckets::npos) {
    const int take = std::min(intra_quota, avail(my_bucket));
    if (take > 0) {
      ws.take_[my_bucket] += take;
      selected += take;
    }
  }

  // Cached concave weights of the client's row at this snapshot; null when
  // the parameters or the client's PID keep every stage normalized.
  double* const weight_row =
      zero_weight_scale_ > 0 ? ws.WeightRow(snap, config_.concave_gamma, my_pid) : nullptr;
  const Pid view_size = snap->view.size();

  // Weighted PID sampling shared by stages 2 and 3: weight per bucket, then
  // uniform picks inside the bucket. `same_as_stage` walks the client-AS
  // group (minus the client's own bucket); otherwise every other-AS bucket.
  const auto weighted_fill = [&](bool same_as_stage,
                                 const std::vector<std::vector<double>>* match_w,
                                 int quota) {
    if (quota <= 0) return;
    ws.entry_bucket_.clear();
    ws.entry_avail_.clear();
    const auto consider = [&](std::uint32_t b) {
      const int a = avail(b);
      if (a <= 0) return;
      ws.entry_bucket_.push_back(b);
      ws.entry_avail_.push_back(a);
    };
    if (same_as_stage) {
      for (std::uint32_t b : same_as) {
        if (b != my_bucket) consider(b);
      }
    } else {
      for (std::uint32_t b = 0; b < buckets.size(); ++b) {
        if (buckets[b].as_number != client.as_number) consider(b);
      }
    }
    if (ws.entry_bucket_.empty()) return;
    const std::size_t n = ws.entry_bucket_.size();
    ws.entry_weight_.assign(n, 0.0);
    // Cached weights, proportional to the normalized ones below. Only a
    // stage that cannot run dry may sample them: one whose candidates
    // outnumber its quota and all weigh more than zero. A stage with no
    // more candidates than its quota, or one that follows matching weights,
    // goes straight to the normalized pass and fills no cache entry; one
    // that meets a PID at infinite distance goes there from that PID on. A
    // PID without a positive cached weight is read through `pdist`, in
    // entry order, so bad PIDs throw as in the normalized pass.
    std::int64_t candidates = 0;
    for (int a : ws.entry_avail_) candidates += a;
    bool cached = weight_row != nullptr && match_w == nullptr && candidates > quota;
    double max_w = 0.0;
    for (std::size_t i = 0; cached && i < n; ++i) {
      const Pid pid = buckets[ws.entry_bucket_[i]].pid;
      double w = 0.0;
      if (pid >= 0 && pid < view_size) {
        double& c = weight_row[pid];
        if (c < 0) c = ConcaveWeight(pdist(pid), config_.concave_gamma);
        w = c;
      }
      if (w > 0) {
        max_w = std::max(max_w, w);
      } else if (pdist(pid) > 0) {
        cached = false;  // infinite distance, or (1/p)^gamma over/underflowed
      } else {
        w = -1.0;  // zero distance
      }
      ws.entry_weight_[i] = w;
    }
    if (cached) {
      const double zero_w = max_w > 0 ? zero_weight_scale_ * max_w : 1.0;
      cached = std::isfinite(zero_w);
      for (double& w : ws.entry_weight_) {
        if (w < 0) w = zero_w;
      }
    }

    if (!cached) {
      // Zero-distance PIDs are weighted relative to the smallest positive
      // distance so they always dominate, regardless of the dual price scale.
      double min_positive = std::numeric_limits<double>::infinity();
      for (std::uint32_t b : ws.entry_bucket_) {
        const double p = pdist(buckets[b].pid);
        if (p > 0) min_positive = std::min(min_positive, p);
      }
      const double zero_weight = std::isfinite(min_positive)
                                     ? config_.zero_distance_factor / min_positive
                                     : 1.0;
      // First pass honors the matching weights when present; if the matched
      // PIDs have no available candidates (LP solutions are sparse), fall back
      // to plain 1/p weighting so the quota can still be met inside the AS.
      bool any = false;
      for (const bool use_match : {match_w != nullptr, false}) {
        any = false;
        for (std::size_t i = 0; i < n; ++i) {
          const Pid pid = buckets[ws.entry_bucket_[i]].pid;
          double w = 0.0;
          if (use_match && my_pid < static_cast<Pid>(match_w->size()) &&
              pid < static_cast<Pid>((*match_w)[static_cast<std::size_t>(my_pid)].size())) {
            w = (*match_w)[static_cast<std::size_t>(my_pid)][static_cast<std::size_t>(pid)];
          } else {
            const double p = pdist(pid);
            w = p > 0 ? 1.0 / p : zero_weight;
          }
          ws.entry_weight_[i] = w > 0 ? w : 0.0;
          any = any || w > 0;
        }
        if (any) break;
      }
      if (!any) return;
      // Normalize and apply the concave robustness transform.
      const double sum =
          std::accumulate(ws.entry_weight_.begin(), ws.entry_weight_.end(), 0.0);
      for (double& w : ws.entry_weight_) {
        if (w > 0) w = std::pow(w / sum, config_.concave_gamma);
      }
    }
    double wsum = std::accumulate(ws.entry_weight_.begin(), ws.entry_weight_.end(), 0.0);

    int taken = 0;
    while (taken < quota && wsum > 0) {
      std::uniform_real_distribution<double> pick(0.0, wsum);
      double r = pick(rng);
      std::size_t k = ws.entry_bucket_.size();
      for (std::size_t i = 0; i < ws.entry_weight_.size(); ++i) {
        if (ws.entry_weight_[i] <= 0) continue;
        k = i;  // last positive entry wins if accumulation drifts past wsum
        r -= ws.entry_weight_[i];
        if (r <= 0) break;
      }
      if (k == ws.entry_bucket_.size()) break;
      ++ws.take_[ws.entry_bucket_[k]];
      ++taken;
      ++selected;
      if (--ws.entry_avail_[k] == 0) {
        wsum -= ws.entry_weight_[k];
        ws.entry_weight_[k] = 0.0;
      }
    }
  };

  // --- Stage 2: inter-PID within the AS ---
  const int inter_total =
      static_cast<int>(std::floor(config_.upper_bound_inter_pid * m));
  const auto mw_it = matching_weights_.find(client.as_number);
  const std::vector<std::vector<double>>* match_w =
      mw_it == matching_weights_.end() ? nullptr : &mw_it->second;
  weighted_fill(/*same_as_stage=*/true, match_w, inter_total - selected);

  // --- Stage 3: inter-AS ---
  weighted_fill(/*same_as_stage=*/false, nullptr, m - selected);

  // If still short (single-AS swarms, tiny swarms), backfill — but keep
  // honoring the p-distance weights within the AS before falling back to
  // uniform picks from whatever remains (intra-PID + other-AS leftovers).
  if (selected < m) {
    weighted_fill(/*same_as_stage=*/true, match_w, m - selected);
  }
  if (selected < m) {
    ws.entry_bucket_.clear();
    ws.entry_avail_.clear();
    if (my_bucket != sim::PeerBuckets::npos && avail(my_bucket) > 0) {
      ws.entry_bucket_.push_back(my_bucket);
      ws.entry_avail_.push_back(avail(my_bucket));
    }
    for (std::uint32_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].as_number == client.as_number) continue;
      const int a = avail(b);
      if (a > 0) {
        ws.entry_bucket_.push_back(b);
        ws.entry_avail_.push_back(a);
      }
    }
    ws.prefix_.assign(ws.entry_bucket_.size() + 1, 0);
    for (std::size_t i = 0; i < ws.entry_bucket_.size(); ++i) {
      ws.prefix_[i + 1] = ws.prefix_[i] + static_cast<std::size_t>(ws.entry_avail_[i]);
    }
    const std::uint64_t leftover = ws.prefix_.back();
    const int want = static_cast<int>(std::min<std::uint64_t>(
        leftover, static_cast<std::uint64_t>(m - selected)));
    FloydSample(leftover, want, rng, ws.picks_);
    for (std::uint64_t rank : ws.picks_) {
      const auto it = std::upper_bound(ws.prefix_.begin(), ws.prefix_.end(), rank);
      const std::size_t i = static_cast<std::size_t>(it - ws.prefix_.begin()) - 1;
      ++ws.take_[ws.entry_bucket_[i]];
      ++selected;
    }
  }

  // Materialize: sample the recorded number of distinct slots per bucket,
  // skipping the client's own slot.
  out.reserve(static_cast<std::size_t>(selected));
  for (std::uint32_t b = 0; b < buckets.size(); ++b) {
    const int k = ws.take_[b];
    if (k <= 0) continue;
    const auto& peers = buckets[b].peers;
    const bool has_client = b == client_bucket;
    const std::uint64_t skip = has_client ? client_slot->index : 0;
    FloydSample(peers.size() - (has_client ? 1 : 0), k, rng, ws.picks_);
    for (std::uint64_t rank : ws.picks_) {
      if (has_client && rank >= skip) ++rank;
      out.push_back(peers[rank].id);
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

BlackBoxSelector::BlackBoxSelector(std::unique_ptr<sim::PeerSelector> inner,
                                   const ITracker& tracker, int attempts)
    : inner_(std::move(inner)), tracker_(tracker), attempts_(attempts) {
  if (!inner_) throw std::invalid_argument("BlackBoxSelector: null inner selector");
  if (attempts_ < 1) throw std::invalid_argument("BlackBoxSelector: attempts < 1");
}

std::string BlackBoxSelector::name() const {
  return "BlackBox(" + inner_->name() + ")";
}

std::vector<sim::PeerId> BlackBoxSelector::SelectFromBuckets(
    const sim::PeerInfo& client, const sim::PeerBuckets& swarm, int m,
    std::mt19937_64& rng) {
  // Every attempt is costed at the same price version.
  const auto snap = tracker_.snapshot();
  const PDistanceRow pdist = tracker_.row(*snap, client.node);

  std::vector<sim::PeerId> best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int a = 0; a < attempts_; ++a) {
    auto set = inner_->SelectFromBuckets(client, swarm, m, rng);
    double cost = 0.0;
    for (sim::PeerId id : set) {
      cost += pdist(swarm.Find(id)->node);
    }
    // Prefer larger sets; among equal sizes, lower total p-distance.
    if (set.size() > best.size() ||
        (set.size() == best.size() && cost < best_cost)) {
      best_cost = cost;
      best = std::move(set);
    }
  }
  return best;
}

}  // namespace p4p::core
