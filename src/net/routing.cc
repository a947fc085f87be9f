#include "net/routing.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>

namespace p4p::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMilesPerMs = 124.0;   // ~2/3 c in fiber
constexpr double kPerHopMs = 0.1;

// Below this node count the per-source work is too small to amortize thread
// startup, so construction stays serial.
constexpr std::size_t kParallelThreshold = 64;

/// Runs fn(src) for every source, sharded across a thread pool when the
/// problem is large enough. Sources are partitioned into contiguous blocks,
/// so every thread writes disjoint rows and the result is deterministic.
template <typename Fn>
void ForEachSource(std::size_t n, const Fn& fn) {
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t num_threads = std::min(hw, n);
  if (num_threads <= 1 || n < kParallelThreshold) {
    for (std::size_t s = 0; s < n; ++s) fn(static_cast<NodeId>(s));
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    const std::size_t begin = n * t / num_threads;
    const std::size_t end = n * (t + 1) / num_threads;
    pool.emplace_back([begin, end, &fn] {
      for (std::size_t s = begin; s < end; ++s) fn(static_cast<NodeId>(s));
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

RoutingTable::RoutingTable(const Graph& graph, bool include_access)
    : graph_(graph), include_access_(include_access), n_(graph.node_count()) {
  dist_.assign(n_ * n_, kInf);
  // Predecessor links are only needed while flattening paths into the arena.
  std::vector<LinkId> pred(n_ * n_, kInvalidLink);
  // Path lengths per (src, dst) pair; reused as the offset array afterwards.
  offsets_.assign(n_ * n_ + 1, 0);
  // Reachable destinations per source; likewise turned into tree offsets.
  tree_offsets_.assign(n_ + 1, 0);

  // Phase 1: independent per-source Dijkstra runs + path-length counts.
  ForEachSource(n_, [this, &pred](NodeId src) {
    const std::size_t row = static_cast<std::size_t>(src) * n_;
    const std::span<double> dist(dist_.data() + row, n_);
    const std::span<LinkId> pred_row(pred.data() + row, n_);
    dijkstra(src, dist, pred_row);
    for (std::size_t d = 0; d < n_; ++d) {
      if (dist[d] >= kInf || d == static_cast<std::size_t>(src)) continue;
      std::size_t len = 0;
      NodeId cur = static_cast<NodeId>(d);
      while (cur != src) {
        cur = graph_.link(pred_row[static_cast<std::size_t>(cur)]).src;
        ++len;
      }
      offsets_[row + d + 1] = len;
      ++tree_offsets_[static_cast<std::size_t>(src) + 1];
    }
  });

  // Offsets: exclusive prefix sums over the per-pair lengths and the
  // per-source tree sizes.
  for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  links_.resize(offsets_.back());
  for (std::size_t i = 1; i < tree_offsets_.size(); ++i) {
    tree_offsets_[i] += tree_offsets_[i - 1];
  }
  tree_.resize(tree_offsets_.back());

  // Phase 2: fill each path back-to-front by walking the predecessor chain,
  // and lay out each source's tree in hop order.
  ForEachSource(n_, [this, &pred](NodeId src) {
    const std::size_t row = static_cast<std::size_t>(src) * n_;
    const auto s = static_cast<std::size_t>(src);
    auto* step = tree_.data() + tree_offsets_[s];
    for (std::size_t d = 0; d < n_; ++d) {
      std::size_t idx = offsets_[row + d + 1];
      if (idx == offsets_[row + d]) continue;  // self or unreachable
      const LinkId last = pred[row + d];
      *step++ = TreeStep{static_cast<NodeId>(d), graph_.link(last).src, last};
      NodeId cur = static_cast<NodeId>(d);
      while (cur != src) {
        const LinkId e = pred[row + static_cast<std::size_t>(cur)];
        links_[--idx] = e;
        cur = graph_.link(e).src;
      }
    }
    // A parent's route is one hop shorter than its child's, so ordering by
    // hop count puts every parent first; the stable sort keeps node order
    // within a hop count.
    const auto hops = [this, row](const TreeStep& t) {
      const auto d = static_cast<std::size_t>(t.dst);
      return offsets_[row + d + 1] - offsets_[row + d];
    };
    std::stable_sort(tree_.begin() + static_cast<std::ptrdiff_t>(tree_offsets_[s]),
                     tree_.begin() + static_cast<std::ptrdiff_t>(tree_offsets_[s + 1]),
                     [&hops](const TreeStep& a, const TreeStep& b) {
                       return hops(a) < hops(b);
                     });
  });
}

void RoutingTable::dijkstra(NodeId src, std::span<double> dist,
                            std::span<LinkId> pred) const {
  dist[static_cast<std::size_t>(src)] = 0.0;

  using Entry = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, src);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;  // stale entry
    for (LinkId e : graph_.out_links(u)) {
      const Link& l = graph_.link(e);
      if (!include_access_ && l.type == LinkType::kAccess) continue;
      const double nd = d + l.ospf_weight;
      auto& dv = dist[static_cast<std::size_t>(l.dst)];
      auto& pv = pred[static_cast<std::size_t>(l.dst)];
      if (nd < dv) {
        dv = nd;
        pv = e;
        heap.emplace(nd, l.dst);
      } else if (nd == dv && pv != kInvalidLink && e < pv) {
        // Deterministic tie-break: keep the smaller predecessor link id.
        // The distance is unchanged, so the node needs no re-enqueue.
        pv = e;
      }
    }
  }
}

void RoutingTable::check_pair(NodeId src, NodeId dst) const {
  if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= n_ ||
      static_cast<std::size_t>(dst) >= n_) {
    throw std::out_of_range("RoutingTable: node id out of range");
  }
}

void RoutingTable::throw_unreachable(NodeId src, NodeId dst) const {
  throw std::runtime_error("RoutingTable: node " + std::to_string(dst) +
                           " unreachable from " + std::to_string(src));
}

bool RoutingTable::reachable(NodeId src, NodeId dst) const {
  return route_cost(src, dst) < kInf;
}

double RoutingTable::route_cost(NodeId src, NodeId dst) const {
  check_pair(src, dst);
  return dist_[static_cast<std::size_t>(src) * n_ + static_cast<std::size_t>(dst)];
}

double RoutingTable::route_distance(NodeId src, NodeId dst) const {
  if (!reachable(src, dst)) throw_unreachable(src, dst);
  double total = 0.0;
  for (LinkId e : path_view(src, dst)) total += graph_.link(e).distance;
  return total;
}

int RoutingTable::hop_count(NodeId src, NodeId dst) const {
  if (!reachable(src, dst)) throw_unreachable(src, dst);
  return static_cast<int>(path_view(src, dst).size());
}

bool RoutingTable::on_route(LinkId e, NodeId i, NodeId j) const {
  if (i == j || !reachable(i, j)) return false;
  const auto p = path_view(i, j);
  return std::find(p.begin(), p.end(), e) != p.end();
}

double RoutingTable::latency_ms(NodeId src, NodeId dst) const {
  if (src == dst) {
    check_pair(src, dst);
    return 0.0;
  }
  if (!reachable(src, dst)) throw_unreachable(src, dst);
  const auto p = path_view(src, dst);
  double miles = 0.0;
  for (LinkId e : p) miles += graph_.link(e).distance;
  return miles / kMilesPerMs + kPerHopMs * static_cast<double>(p.size());
}

}  // namespace p4p::net
