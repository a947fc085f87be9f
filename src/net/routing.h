// Shortest-path routing over a Graph.
//
// The iTracker computes p-distances between PIDs by summing per-link duals
// over the routed path, so it needs the route indicator I_e(i,j) of the
// paper's formulation. RoutingTable precomputes single-source shortest-path
// trees (Dijkstra on OSPF weights) from every node, then flattens every
// (src, dst) path into one contiguous CSR-style arena so path queries are
// zero-allocation span lookups. It also keeps each source's tree, in hop
// order, so a sum over every route (the p-distance matrix) costs one add per
// pair instead of one per hop. Construction shards the independent
// per-source Dijkstra runs across a thread pool; each source writes a
// disjoint row, so the result is deterministic regardless of thread count.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "net/graph.h"

namespace p4p::net {

/// One destination of a source's shortest-path tree: the route to `dst` is
/// the route to `parent` followed by `link` (parent == the source for a
/// one-hop route).
struct TreeStep {
  NodeId dst = kInvalidNode;
  NodeId parent = kInvalidNode;
  LinkId link = kInvalidLink;
};

/// All-pairs shortest-path routing with deterministic tie-breaking
/// (lower link id wins), so routes are stable across runs.
class RoutingTable {
 public:
  /// Builds routes over all links whose type is not kAccess by default;
  /// pass include_access=true to route over access links too.
  explicit RoutingTable(const Graph& graph, bool include_access = false);

  /// Link ids on the route from src to dst, in order, as a view into the
  /// precomputed path arena. Empty when src == dst or dst is unreachable
  /// from src (use reachable() to distinguish). Never allocates. Throws
  /// std::out_of_range for invalid ids.
  std::span<const LinkId> path_view(NodeId src, NodeId dst) const {
    check_pair(src, dst);
    const std::size_t row = static_cast<std::size_t>(src) * n_ + static_cast<std::size_t>(dst);
    return std::span<const LinkId>(links_.data() + offsets_[row],
                                   offsets_[row + 1] - offsets_[row]);
  }

  /// The shortest-path tree of `src`: one step per destination reachable
  /// from it (src itself excluded), ordered by hop count and then by node
  /// id, so every step's parent is src or an earlier step's dst. Folding
  /// `value[dst] = value[parent] + f(link)` over the steps from
  /// value[src] = 0 adds up every route left to right, exactly like a sum
  /// over path_view(). Throws std::out_of_range for an invalid id.
  std::span<const TreeStep> tree(NodeId src) const {
    check_pair(src, src);
    const auto s = static_cast<std::size_t>(src);
    return std::span<const TreeStep>(tree_.data() + tree_offsets_[s],
                                     tree_offsets_[s + 1] - tree_offsets_[s]);
  }

  /// True if dst is reachable from src.
  bool reachable(NodeId src, NodeId dst) const;

  /// Sum of OSPF weights along the route; infinity when unreachable.
  double route_cost(NodeId src, NodeId dst) const;

  /// Sum of link geographic distances (miles) along the route.
  double route_distance(NodeId src, NodeId dst) const;

  /// Number of links on the route (backbone hop count).
  int hop_count(NodeId src, NodeId dst) const;

  /// Route indicator: true iff link e is on the route from i to j.
  bool on_route(LinkId e, NodeId i, NodeId j) const;

  /// One-way propagation latency estimate in milliseconds, assuming signals
  /// travel at ~124 miles/ms (2/3 the speed of light in fiber) plus a fixed
  /// 0.1 ms per-hop forwarding delay.
  double latency_ms(NodeId src, NodeId dst) const;

  const Graph& graph() const { return graph_; }

 private:
  void dijkstra(NodeId src, std::span<double> dist, std::span<LinkId> pred) const;
  void check_pair(NodeId src, NodeId dst) const;
  void throw_unreachable(NodeId src, NodeId dst) const;

  const Graph& graph_;
  bool include_access_;
  std::size_t n_ = 0;
  // Row-major n*n matrix of shortest-path costs.
  std::vector<double> dist_;
  // CSR path arena: offsets_[src*n + dst] .. offsets_[src*n + dst + 1] spans
  // the links of the (src, dst) path inside links_, in path order.
  std::vector<std::size_t> offsets_;
  std::vector<LinkId> links_;
  // Per-source tree steps in hop order: tree_offsets_[src] ..
  // tree_offsets_[src + 1] spans src's steps inside tree_.
  std::vector<std::size_t> tree_offsets_;
  std::vector<TreeStep> tree_;
};

}  // namespace p4p::net
