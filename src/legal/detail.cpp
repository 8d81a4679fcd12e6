#include "legal/detail.h"

#include <algorithm>
#include <map>
#include <vector>

#include "util/context.h"
#include "util/fault_injector.h"
#include "util/log.h"
#include "util/rng.h"
#include "wirelength/wl.h"

namespace ep {

namespace {

/// Cells per reorder window.
constexpr int kWindowSize = 3;
/// Nearest same-width swap candidates per cell.
constexpr int kSwapCandidates = 8;
constexpr std::uint64_t kSeed = 99;

/// Sum of weighted HPWL over a set of net ids (deduplicated by the caller).
double netsHpwl(const PlacementDB& db, std::span<const std::int32_t> nets) {
  double w = 0.0;
  for (auto n : nets) {
    const auto& net = db.nets[static_cast<std::size_t>(n)];
    w += net.weight * netHpwl(db, net);
  }
  return w;
}

/// Deduplicated incident nets of `objs` into a caller-owned scratch vector
/// (the swap loop calls this per candidate pair; reuse keeps it off the
/// heap — netsOf() itself is an allocation-free CSR span).
void uniqueNetsOf(const PlacementDB& db,
                  std::initializer_list<std::int32_t> objs,
                  std::vector<std::int32_t>& nets) {
  nets.clear();
  for (auto o : objs) {
    const auto more = db.netsOf(o);
    nets.insert(nets.end(), more.begin(), more.end());
  }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
}

}  // namespace

DetailResult detailPlace(PlacementDB& db, RuntimeContext& rc,
                         const DetailConfig& cfg) {
  DetailResult res;
  res.hpwlBefore = hpwl(db);
  Rng rng(kSeed);

  // Obstacle x-intervals per row band: window packing must never slide a
  // cell across a fixed object or macro sitting inside the row. Flags come
  // from the view's SoA arrays, rects from the live object positions.
  const PlacementView& pv = db.view();
  const auto kinds = pv.kind();
  const auto fixedMask = pv.fixedMask();
  const auto isStdCell = [&](std::int32_t i) {
    return kinds[static_cast<std::size_t>(i)] ==
           static_cast<std::uint8_t>(ObjKind::kStdCell);
  };
  const double rowH = db.rows.empty() ? 1.0 : db.rows.front().height;
  std::vector<Rect> obstacleRects;
  for (std::size_t i = 0; i < db.objects.size(); ++i) {
    if (fixedMask[i] != 0 ||
        kinds[i] == static_cast<std::uint8_t>(ObjKind::kMacro)) {
      obstacleRects.push_back(db.objects[i].rect());
    }
  }
  auto windowBlocked = [&](double y, double x0, double x1) {
    for (const auto& r : obstacleRects) {
      if (r.ly < y + rowH - 1e-9 && r.hy > y + 1e-9 && r.lx < x1 - 1e-9 &&
          r.hx > x0 + 1e-9) {
        return true;
      }
    }
    return false;
  };

  // Same-size buckets for cross-row swaps.
  std::map<std::pair<double, double>, std::vector<std::int32_t>> buckets;
  for (auto i : db.movable()) {
    const auto& o = db.objects[static_cast<std::size_t>(i)];
    if (isStdCell(i)) buckets[{o.w, o.h}].push_back(i);
  }

  // Window/swap scratch, hoisted so the inner loops reuse capacity
  // instead of allocating per window / per candidate pair.
  std::vector<std::int32_t> window, netIds, bestPerm, perm, swapNets;
  std::vector<double> savedX, bestX;

  for (int pass = 0; pass < cfg.maxPasses; ++pass) {
    long improvedThisPass = 0;

    // Rows of movable std cells, sorted by x — rebuilt per pass because
    // cross-row swaps move cells between rows.
    std::map<double, std::vector<std::int32_t>> rows;
    for (auto i : db.movable()) {
      const auto& o = db.objects[static_cast<std::size_t>(i)];
      if (isStdCell(i)) rows[o.ly].push_back(i);
    }
    for (auto& [y, cells] : rows) {
      std::sort(cells.begin(), cells.end(),
                [&](std::int32_t a, std::int32_t b) {
                  return db.objects[static_cast<std::size_t>(a)].lx <
                         db.objects[static_cast<std::size_t>(b)].lx;
                });
    }

    // --- Window reordering within each row ---
    const int win = kWindowSize;
    for (auto& [y, cells] : rows) {
      if (static_cast<int>(cells.size()) < win) continue;
      for (std::size_t s = 0; s + static_cast<std::size_t>(win) <= cells.size();
           ++s) {
        window.assign(cells.begin() + static_cast<std::ptrdiff_t>(s),
                      cells.begin() + static_cast<std::ptrdiff_t>(s) + win);
        // Window span: from the leftmost cell's lx to the right edge of the
        // last cell (gaps inside are preserved as trailing slack).
        const double x0 = db.objects[static_cast<std::size_t>(window.front())].lx;
        savedX.resize(window.size());
        netIds.clear();
        for (std::size_t k = 0; k < window.size(); ++k) {
          savedX[k] = db.objects[static_cast<std::size_t>(window[k])].lx;
          const auto more = db.netsOf(window[k]);
          netIds.insert(netIds.end(), more.begin(), more.end());
        }
        std::sort(netIds.begin(), netIds.end());
        netIds.erase(std::unique(netIds.begin(), netIds.end()), netIds.end());
        const double right =
            db.objects[static_cast<std::size_t>(window.back())].lx +
            db.objects[static_cast<std::size_t>(window.back())].w;
        if (windowBlocked(y, x0, right)) continue;

        const double before = netsHpwl(db, netIds);
        double best = before;
        bestPerm = window;
        bestX = savedX;

        perm = window;
        std::sort(perm.begin(), perm.end());
        do {
          // Pack the permutation tight from x0; reject if it spills past the
          // original right edge (cannot happen: same widths, tight packing).
          double cursor = x0;
          bool ok = true;
          for (auto ci : perm) {
            auto& o = db.objects[static_cast<std::size_t>(ci)];
            o.lx = cursor;
            cursor += o.w;
          }
          if (cursor > right + 1e-9) ok = false;
          if (ok) {
            const double after = netsHpwl(db, netIds);
            if (after < best - 1e-12) {
              best = after;
              bestPerm = perm;
              for (std::size_t k = 0; k < perm.size(); ++k) {
                bestX[k] = db.objects[static_cast<std::size_t>(perm[k])].lx;
              }
            }
          }
        } while (std::next_permutation(perm.begin(), perm.end()));

        // Restore or apply the winner.
        if (best < before - 1e-12) {
          for (std::size_t k = 0; k < bestPerm.size(); ++k) {
            db.objects[static_cast<std::size_t>(bestPerm[k])].lx = bestX[k];
          }
          std::copy(bestPerm.begin(), bestPerm.end(),
                    cells.begin() + static_cast<std::ptrdiff_t>(s));
          ++res.reorders;
          ++improvedThisPass;
        } else {
          for (std::size_t k = 0; k < window.size(); ++k) {
            db.objects[static_cast<std::size_t>(window[k])].lx = savedX[k];
          }
        }
      }
    }

    // --- Cross-row same-size swaps ---
    for (auto& [dims, group] : buckets) {
      if (group.size() < 2) continue;
      std::sort(group.begin(), group.end(), [&](std::int32_t a, std::int32_t b) {
        return db.objects[static_cast<std::size_t>(a)].lx <
               db.objects[static_cast<std::size_t>(b)].lx;
      });
      for (std::size_t k = 0; k < group.size(); ++k) {
        const std::size_t lim = std::min(
            group.size(), k + 1 + static_cast<std::size_t>(kSwapCandidates));
        for (std::size_t j = k + 1; j < lim; ++j) {
          auto& a = db.objects[static_cast<std::size_t>(group[k])];
          auto& b = db.objects[static_cast<std::size_t>(group[j])];
          if (a.lx == b.lx && a.ly == b.ly) continue;
          uniqueNetsOf(db, {group[k], group[j]}, swapNets);
          const double before = netsHpwl(db, swapNets);
          std::swap(a.lx, b.lx);
          std::swap(a.ly, b.ly);
          const double after = netsHpwl(db, swapNets);
          if (after < before - 1e-12) {
            ++res.swaps;
            ++improvedThisPass;
          } else {
            std::swap(a.lx, b.lx);
            std::swap(a.ly, b.ly);
          }
        }
      }
    }

    ++res.passes;
    if (improvedThisPass == 0) break;
  }

  // Fault site "detail.swap": corrupts one cell coordinate after the passes
  // (NaN or a spike breaking legality), modeling a buggy swap that escaped
  // the acceptance check. The supervisor's post-cDP gate must catch it and
  // roll the detail stage back (docs/ROBUSTNESS.md).
  {
    FaultInjector& inj = rc.faults();
    if (inj.active()) {
      std::vector<std::int32_t> cells;
      for (auto i : db.movable()) {
        if (isStdCell(i)) cells.push_back(i);
      }
      if (!cells.empty()) {
        if (const FaultSpec* f = inj.fire("detail.swap")) {
          std::vector<double> xs(cells.size());
          for (std::size_t k = 0; k < cells.size(); ++k) {
            xs[k] = db.objects[static_cast<std::size_t>(cells[k])].lx;
          }
          inj.corrupt(xs, *f);
          for (std::size_t k = 0; k < cells.size(); ++k) {
            db.objects[static_cast<std::size_t>(cells[k])].lx = xs[k];
          }
        }
      }
    }
  }

  res.hpwlAfter = hpwl(db);
  rc.log().info(
      "detail: HPWL %.4g -> %.4g (%ld reorders, %ld swaps, %d passes)",
      res.hpwlBefore, res.hpwlAfter, res.reorders, res.swaps, res.passes);
  return res;
}

}  // namespace ep
