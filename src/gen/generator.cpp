#include "gen/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "util/rng.h"

namespace ep {

namespace {

/// Sample a net degree: 2 + geometric tail with the requested mean, capped.
std::size_t sampleDegree(Rng& rng, double avgDegree) {
  const double extraMean = std::max(0.0, avgDegree - 2.0);
  if (extraMean <= 0.0) return 2;
  const double p = 1.0 / (1.0 + extraMean);
  double u = rng.uniform();
  if (u <= 0.0) u = 1e-12;
  const auto extra =
      static_cast<std::size_t>(std::log(u) / std::log(1.0 - p));
  return 2 + std::min<std::size_t>(extra, 14);
}

double snap(double v, double pitch) {
  return std::round(v / pitch) * pitch;
}

}  // namespace

PlacementDB generateCircuit(const GenSpec& spec) {
  PlacementDB db;
  db.name = spec.name;
  db.targetDensity = spec.targetDensity;
  Rng rng(spec.seed);

  // Size the big arrays up front (the 100k+ scale suite would otherwise
  // spend its time in vector regrowth; same contract as the capacity plan
  // in the Bookshelf reader).
  db.objects.reserve(spec.numCells + spec.numMovableMacros +
                     spec.numFixedMacros + spec.numIo);

  // ---- Standard cells ----
  double cellArea = 0.0;
  for (std::size_t i = 0; i < spec.numCells; ++i) {
    Object o;
    o.name = "c" + std::to_string(i);
    o.kind = ObjKind::kStdCell;
    const double u = rng.uniform();
    const double sites = u < 0.45 ? 1 : u < 0.75 ? 2 : u < 0.9 ? 3 : 4;
    o.w = sites * spec.siteWidth;
    o.h = spec.rowHeight;
    cellArea += o.area();
    db.objects.push_back(std::move(o));
  }

  // ---- Movable macros (MMS style) ----
  const std::size_t firstMovMacro = db.objects.size();
  double movMacroArea = 0.0;
  if (spec.numMovableMacros > 0 && spec.macroAreaFraction > 0.0 &&
      spec.macroAreaFraction < 1.0) {
    const double totalMacroArea =
        cellArea * spec.macroAreaFraction / (1.0 - spec.macroAreaFraction);
    const double perMacro =
        totalMacroArea / static_cast<double>(spec.numMovableMacros);
    for (std::size_t i = 0; i < spec.numMovableMacros; ++i) {
      Object o;
      o.name = "m" + std::to_string(i);
      o.kind = ObjKind::kMacro;
      const double aspect = rng.uniform(0.5, 2.0);
      // Area jitter +-40% around the even share.
      const double area = perMacro * rng.uniform(0.6, 1.4);
      double h = std::sqrt(area * aspect);
      double w = area / h;
      o.h = std::max(2.0 * spec.rowHeight, snap(h, spec.rowHeight));
      o.w = std::max(2.0 * spec.siteWidth, snap(w, spec.siteWidth));
      movMacroArea += o.area();
      db.objects.push_back(std::move(o));
    }
  }
  const double movableArea = cellArea + movMacroArea;

  // ---- Region sizing ----
  double fixedMacroAreaEst = 0.0;
  std::vector<std::pair<double, double>> fixedDims;
  for (std::size_t i = 0; i < spec.numFixedMacros; ++i) {
    const double aspect = rng.uniform(0.5, 2.0);
    const double area =
        movableArea * 0.25 / std::max<std::size_t>(1, spec.numFixedMacros) *
        rng.uniform(0.5, 1.5);
    double h = std::max(2.0 * spec.rowHeight,
                        snap(std::sqrt(area * aspect), spec.rowHeight));
    double w = std::max(2.0 * spec.siteWidth, snap(area / h, spec.siteWidth));
    fixedDims.emplace_back(w, h);
    fixedMacroAreaEst += w * h;
  }

  const double coreArea =
      movableArea / (spec.utilization * spec.targetDensity) +
      fixedMacroAreaEst;
  double side = std::sqrt(coreArea);
  const double regionW = snap(std::max(side, 8.0 * spec.siteWidth),
                              spec.siteWidth);
  const double regionH =
      snap(std::max(coreArea / regionW, 4.0 * spec.rowHeight), spec.rowHeight);
  db.region = {0.0, 0.0, regionW, regionH};

  // ---- Rows ----
  const auto numRows = static_cast<std::size_t>(regionH / spec.rowHeight);
  const auto sitesPerRow = static_cast<std::int32_t>(regionW / spec.siteWidth);
  db.rows.reserve(numRows);
  for (std::size_t r = 0; r < numRows; ++r) {
    db.rows.push_back({0.0, static_cast<double>(r) * spec.rowHeight,
                       spec.rowHeight, spec.siteWidth, sitesPerRow});
  }

  // ---- Fixed macros (ISPD 2005-style blocks) ----
  const std::size_t firstFixedMacro = db.objects.size();
  for (std::size_t i = 0; i < fixedDims.size(); ++i) {
    Object o;
    o.name = "fm" + std::to_string(i);
    o.kind = ObjKind::kMacro;
    o.fixed = true;
    o.w = fixedDims[i].first;
    o.h = fixedDims[i].second;
    // Rejection sampling for a non-overlapping snapped spot.
    bool placed = false;
    for (int attempt = 0; attempt < 200 && !placed; ++attempt) {
      const double lx = snap(rng.uniform(0.0, regionW - o.w), spec.siteWidth);
      const double ly = snap(rng.uniform(0.0, regionH - o.h), spec.rowHeight);
      const Rect cand{lx, ly, lx + o.w, ly + o.h};
      placed = true;
      for (std::size_t j = firstFixedMacro; j < db.objects.size(); ++j) {
        if (db.objects[j].rect().expanded(spec.siteWidth).overlaps(cand)) {
          placed = false;
          break;
        }
      }
      if (placed) {
        o.lx = lx;
        o.ly = ly;
      }
    }
    if (!placed) continue;  // no room: the instance has one macro fewer
    db.objects.push_back(std::move(o));
  }

  // ---- IO pads on the periphery ----
  const std::size_t firstIo = db.objects.size();
  for (std::size_t i = 0; i < spec.numIo; ++i) {
    Object o;
    o.name = "io" + std::to_string(i);
    o.kind = ObjKind::kIo;
    o.fixed = true;
    o.w = spec.siteWidth;
    o.h = spec.rowHeight;
    const double t = static_cast<double>(i) / static_cast<double>(spec.numIo);
    const double perim = t * 4.0;
    double lx = 0.0, ly = 0.0;
    if (perim < 1.0) {  // bottom edge
      lx = perim * (regionW - o.w);
      ly = 0.0;
    } else if (perim < 2.0) {  // right edge
      lx = regionW - o.w;
      ly = (perim - 1.0) * (regionH - o.h);
    } else if (perim < 3.0) {  // top edge
      lx = (3.0 - perim) * (regionW - o.w);
      ly = regionH - o.h;
    } else {  // left edge
      lx = 0.0;
      ly = (4.0 - perim) * (regionH - o.h);
    }
    o.lx = snap(lx, spec.siteWidth);
    o.ly = snap(ly, spec.rowHeight);
    db.objects.push_back(std::move(o));
  }

  // ---- Natural positions (latent structure for the netlist) ----
  const std::size_t numClusters =
      std::max<std::size_t>(4, spec.numCells / 64);
  std::vector<Point> centers(numClusters);
  for (auto& c : centers) {
    c = {rng.uniform(0.05 * regionW, 0.95 * regionW),
         rng.uniform(0.05 * regionH, 0.95 * regionH)};
  }
  std::vector<std::size_t> clusterOf(db.objects.size(), 0);
  std::vector<std::vector<std::int32_t>> members(numClusters);
  const double sigmaX = regionW / std::sqrt(static_cast<double>(numClusters));
  const double sigmaY = regionH / std::sqrt(static_cast<double>(numClusters));
  auto placeNatural = [&](std::size_t idx) {
    auto& o = db.objects[idx];
    const std::size_t c = rng.below(numClusters);
    clusterOf[idx] = c;
    members[c].push_back(static_cast<std::int32_t>(idx));
    const double cx = std::clamp(centers[c].x + rng.gaussian() * sigmaX * 0.5,
                                 o.w * 0.5, regionW - o.w * 0.5);
    const double cy = std::clamp(centers[c].y + rng.gaussian() * sigmaY * 0.5,
                                 o.h * 0.5, regionH - o.h * 0.5);
    o.setCenter(cx, cy);
  };
  for (std::size_t i = 0; i < spec.numCells; ++i) placeNatural(i);
  for (std::size_t i = firstMovMacro; i < firstFixedMacro; ++i) {
    placeNatural(i);
  }

  // ---- Nets ----
  // Candidate pools: movables (macros weighted up so they attract nets the
  // way real hard blocks do), plus fixed macros with small probability.
  std::vector<std::int32_t> pool;
  pool.reserve(spec.numCells + 4 * (firstFixedMacro - firstMovMacro));
  for (std::size_t i = 0; i < spec.numCells; ++i) {
    pool.push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = firstMovMacro; i < firstFixedMacro; ++i) {
    for (int k = 0; k < 4; ++k) pool.push_back(static_cast<std::int32_t>(i));
  }
  const std::size_t numIoPlaced = db.objects.size() - firstIo;
  const auto numNets = static_cast<std::size_t>(
      spec.netsPerCell * static_cast<double>(spec.numCells));

  auto pinOffset = [&](const Object& o, double& ox, double& oy) {
    ox = rng.uniform(-o.w * 0.25, o.w * 0.25);
    oy = rng.uniform(-o.h * 0.25, o.h * 0.25);
  };

  db.nets.reserve(numNets);
  std::vector<std::int32_t> picked;
  picked.reserve(18);  // degree cap 16 + optional IO pad
  for (std::size_t n = 0; n < numNets; ++n) {
    const std::size_t degree = sampleDegree(rng, spec.avgNetDegree);
    picked.clear();
    const auto seedObj =
        pool[static_cast<std::size_t>(rng.below(pool.size()))];
    picked.push_back(seedObj);
    const std::size_t cl = clusterOf[static_cast<std::size_t>(seedObj)];
    while (picked.size() < degree) {
      std::int32_t cand;
      if (rng.chance(spec.locality) && !members[cl].empty()) {
        cand = members[cl][static_cast<std::size_t>(
            rng.below(members[cl].size()))];
      } else {
        cand = pool[static_cast<std::size_t>(rng.below(pool.size()))];
      }
      if (std::find(picked.begin(), picked.end(), cand) == picked.end()) {
        picked.push_back(cand);
      } else if (members[cl].size() + 2 < degree) {
        break;  // tiny cluster cannot fill the net; accept short net
      }
    }
    // Optionally route the net to an IO pad.
    if (numIoPlaced > 0 && rng.chance(spec.ioNetFraction)) {
      picked.push_back(static_cast<std::int32_t>(
          firstIo + rng.below(numIoPlaced)));
    }
    if (picked.size() < 2) continue;
    Net net;
    net.name = "n" + std::to_string(db.nets.size());
    net.pins.reserve(picked.size());
    for (auto objIdx : picked) {
      PinRef pin;
      pin.obj = objIdx;
      // First pin drives the net; the rest are sinks (timing graph).
      pin.dir = net.pins.empty() ? PinDir::kOutput : PinDir::kInput;
      pinOffset(db.objects[static_cast<std::size_t>(objIdx)], pin.ox, pin.oy);
      net.pins.push_back(pin);
    }
    db.nets.push_back(std::move(net));
  }

  // ---- Connect any floating movable so the QP system is anchored ----
  std::vector<int> degreeOfObj(db.objects.size(), 0);
  for (const auto& net : db.nets) {
    for (const auto& pin : net.pins) {
      ++degreeOfObj[static_cast<std::size_t>(pin.obj)];
    }
  }
  for (std::size_t i = 0; i < firstFixedMacro; ++i) {
    if (degreeOfObj[i] != 0) continue;
    const std::size_t cl = clusterOf[i];
    std::int32_t mate = members[cl].front();
    if (mate == static_cast<std::int32_t>(i) && members[cl].size() > 1) {
      mate = members[cl][1];
    }
    if (mate == static_cast<std::int32_t>(i)) {
      // Lone cluster member: tie it to an arbitrary pool object instead.
      mate = pool[static_cast<std::size_t>(rng.below(pool.size()))];
      if (mate == static_cast<std::int32_t>(i)) continue;
    }
    Net net;
    net.name = "n" + std::to_string(db.nets.size());
    PinRef a, b;
    a.obj = static_cast<std::int32_t>(i);
    a.dir = PinDir::kOutput;
    b.obj = mate;
    b.dir = PinDir::kInput;
    net.pins = {a, b};
    db.nets.push_back(std::move(net));
  }

  db.finalize();
  const Status issue = db.validate();
  if (!issue.ok()) {
    std::fprintf(stderr, "generateCircuit(%s): invalid instance: %s\n",
                 spec.name.c_str(), issue.message().c_str());
  }
  assert(issue.ok());
  return db;
}

}  // namespace ep
