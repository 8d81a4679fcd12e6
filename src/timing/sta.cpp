#include "timing/sta.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/context.h"

namespace ep {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Edge {
  std::int32_t from, to;
  double delay;
  std::int32_t net;
};

}  // namespace

double StaResult::criticality(std::size_t net) const {
  const double s = netSlack[net];
  if (!std::isfinite(s) || clockPeriod <= 0.0) return 0.0;
  return std::clamp((clockPeriod - s) / clockPeriod, 0.0, 1.0);
}

StaResult staAnalyze(const PlacementDB& db, RuntimeContext& ctx,
                     double clockPeriod) {
  const std::size_t n = db.objects.size();
  StaResult res;
  res.arrival.assign(n, 0.0);
  res.required.assign(n, kInf);
  res.netSlack.assign(db.nets.size(), kInf);

  // Timing edges: driver pin -> each sink pin, Manhattan wire delay.
  std::vector<Edge> edges;
  std::vector<std::vector<std::int32_t>> out(n), in(n);
  for (std::size_t e = 0; e < db.nets.size(); ++e) {
    const auto& net = db.nets[e];
    if (net.pins.size() < 2) continue;
    std::size_t driver = 0;
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      if (net.pins[k].dir == PinDir::kOutput) {
        driver = k;
        break;
      }
    }
    const Point dp = db.pinPos(net.pins[driver]);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      if (k == driver) continue;
      if (net.pins[k].obj == net.pins[driver].obj) continue;
      const Point sp = db.pinPos(net.pins[k]);
      const double delay = std::abs(sp.x - dp.x) + std::abs(sp.y - dp.y);
      const auto id = static_cast<std::int32_t>(edges.size());
      edges.push_back({net.pins[driver].obj, net.pins[k].obj, delay,
                       static_cast<std::int32_t>(e)});
      out[static_cast<std::size_t>(net.pins[driver].obj)].push_back(id);
      in[static_cast<std::size_t>(net.pins[k].obj)].push_back(id);
    }
  }

  // Levelize (Kahn); leftover nodes belong to combinational cycles and are
  // appended in index order — their unresolved incoming edges are cut.
  std::vector<std::int32_t> indeg(n, 0);
  for (const auto& e : edges) ++indeg[static_cast<std::size_t>(e.to)];
  std::deque<std::int32_t> ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(static_cast<std::int32_t>(v));
  }
  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<char> placedInOrder(n, 0);
  while (!ready.empty()) {
    const auto v = ready.front();
    ready.pop_front();
    order.push_back(v);
    placedInOrder[static_cast<std::size_t>(v)] = 1;
    for (auto eid : out[static_cast<std::size_t>(v)]) {
      const auto to = static_cast<std::size_t>(edges[static_cast<std::size_t>(eid)].to);
      if (--indeg[to] == 0) ready.push_back(static_cast<std::int32_t>(to));
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (!placedInOrder[v]) order.push_back(static_cast<std::int32_t>(v));
  }
  std::vector<std::int32_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank[static_cast<std::size_t>(order[i])] = static_cast<std::int32_t>(i);
  }
  auto isCut = [&](const Edge& e) {
    return rank[static_cast<std::size_t>(e.from)] >=
           rank[static_cast<std::size_t>(e.to)];
  };
  for (const auto& e : edges) res.cutCycleEdges += isCut(e) ? 1 : 0;
  if (res.cutCycleEdges > 0) {
    ctx.log().debug("staAnalyze: cut %d combinational-loop edges",
                    res.cutCycleEdges);
  }

  // Forward: arrival times.
  for (auto v : order) {
    for (auto eid : out[static_cast<std::size_t>(v)]) {
      const Edge& e = edges[static_cast<std::size_t>(eid)];
      if (isCut(e)) continue;
      auto& a = res.arrival[static_cast<std::size_t>(e.to)];
      a = std::max(a, res.arrival[static_cast<std::size_t>(e.from)] + e.delay);
    }
  }
  for (double a : res.arrival) res.maxDelay = std::max(res.maxDelay, a);
  res.clockPeriod = clockPeriod > 0.0 ? clockPeriod : res.maxDelay;
  if (res.clockPeriod <= 0.0) res.clockPeriod = 1.0;  // netless designs

  // Backward: required times from endpoints.
  for (std::size_t v = 0; v < n; ++v) {
    bool hasLiveOut = false;
    for (auto eid : out[v]) {
      if (!isCut(edges[static_cast<std::size_t>(eid)])) hasLiveOut = true;
    }
    if (!hasLiveOut) res.required[v] = res.clockPeriod;
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (auto eid : in[static_cast<std::size_t>(*it)]) {
      const Edge& e = edges[static_cast<std::size_t>(eid)];
      if (isCut(e)) continue;
      auto& r = res.required[static_cast<std::size_t>(e.from)];
      r = std::min(r, res.required[static_cast<std::size_t>(e.to)] - e.delay);
    }
  }

  // Slacks.
  double minSlack = kInf;
  for (const auto& e : edges) {
    if (isCut(e)) continue;
    const double slack = res.required[static_cast<std::size_t>(e.to)] -
                         res.arrival[static_cast<std::size_t>(e.from)] -
                         e.delay;
    auto& ns = res.netSlack[static_cast<std::size_t>(e.net)];
    ns = std::min(ns, slack);
    minSlack = std::min(minSlack, slack);
  }
  res.wns = std::isfinite(minSlack) ? std::min(0.0, minSlack) : 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (res.required[v] == res.clockPeriod) {  // endpoint
      res.tns -= std::max(0.0, res.arrival[v] - res.clockPeriod);
    }
  }
  return res;
}

}  // namespace ep
