/// @file
/// Uniform spatial indexes (cell size = radio range) so the wireless
/// medium can answer "who is near this point?" by visiting the handful of
/// cells a query disc overlaps instead of scanning every node. Both
/// structures are *candidate* indexes: callers always re-check candidates
/// with the exact `within_range` predicate, so pruning never changes
/// outcomes — it only skips pairs that provably cannot satisfy the
/// predicate (see DESIGN.md "Spatial medium").
///
/// Two variants for the medium's two populations:
///   * DenseCellGrid — rebuilt in bulk from all node positions; CSR layout
///     over the positions' bounding box, so a cell probe is pure array
///     arithmetic. This sits on the hottest path (per-tick density and
///     neighbor queries).
///   * SpatialHashGrid — incremental insert/erase into a fixed dense array
///     of buckets that cell coordinates wrap onto; used for the small,
///     churning set of in-flight transmissions, where positions arrive
///     one at a time and can lie anywhere. Buckets keep their capacity,
///     so the steady state allocates nothing per transmission.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/geometry.hpp"

namespace dapes::sim {

/// Bulk-rebuilt CSR cell grid over the node positions (see file comment).
class DenseCellGrid {
 public:
  /// Entries indexed by position (entry id i = positions[i]). The cell
  /// size is at least `cell_size_hint` (the radio range), enlarged when
  /// the bounding box is so large relative to the hint that the cell
  /// count would exceed ~4x the entry count — the grid serves arbitrary
  /// geometry (scripted waypoints can wander anywhere) in bounded memory.
  void build(const std::vector<Vec2>& positions, double cell_size_hint) {
    size_ = positions.size();
    if (positions.empty()) {
      entries_.clear();
      cell_start_.assign(1, 0);
      nx_ = ny_ = 0;
      cell_ = cell_size_hint > 1e-9 ? cell_size_hint : 1e-9;
      origin_ = Vec2{};
      return;
    }
    origin_ = positions[0];
    Vec2 hi = positions[0];
    for (const Vec2& p : positions) {
      origin_.x = std::min(origin_.x, p.x);
      origin_.y = std::min(origin_.y, p.y);
      hi.x = std::max(hi.x, p.x);
      hi.y = std::max(hi.y, p.y);
    }
    cell_ = cell_size_hint > 1e-9 ? cell_size_hint : 1e-9;
    const size_t max_cells = 4 * positions.size() + 64;
    auto dims = [&] {
      nx_ = static_cast<int64_t>((hi.x - origin_.x) / cell_) + 1;
      ny_ = static_cast<int64_t>((hi.y - origin_.y) / cell_) + 1;
    };
    dims();
    while (static_cast<size_t>(nx_) * static_cast<size_t>(ny_) > max_cells) {
      cell_ *= 2.0;
      dims();
    }

    // CSR fill: count per cell, prefix-sum, scatter.
    const size_t cells = static_cast<size_t>(nx_) * static_cast<size_t>(ny_);
    cell_start_.assign(cells + 1, 0);
    std::vector<uint32_t> cell_of(positions.size());
    for (size_t i = 0; i < positions.size(); ++i) {
      cell_of[i] = static_cast<uint32_t>(cell_index(positions[i]));
      ++cell_start_[cell_of[i] + 1];
    }
    for (size_t c = 1; c <= cells; ++c) cell_start_[c] += cell_start_[c - 1];
    entries_.resize(positions.size());
    std::vector<uint32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
    for (size_t i = 0; i < positions.size(); ++i) {
      entries_[cursor[cell_of[i]]++] = {static_cast<uint32_t>(i),
                                        positions[i]};
    }
  }

  /// Entries indexed at the last build().
  size_t size() const { return size_; }
  /// Effective cell size after the bounded-memory enlargement.
  double cell_size() const { return cell_; }

  /// Visit every entry in the cells the disc (center, radius) overlaps.
  /// Candidates, not matches: the caller applies the exact predicate.
  template <typename Fn>
  void for_each_candidate(Vec2 center, double radius, Fn&& fn) const {
    if (entries_.empty() || radius < 0) return;
    const int64_t cx0 = std::max<int64_t>(coord_x(center.x - radius), 0);
    const int64_t cx1 = std::min<int64_t>(coord_x(center.x + radius), nx_ - 1);
    const int64_t cy0 = std::max<int64_t>(coord_y(center.y - radius), 0);
    const int64_t cy1 = std::min<int64_t>(coord_y(center.y + radius), ny_ - 1);
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      for (int64_t cx = cx0; cx <= cx1; ++cx) {
        const size_t c = static_cast<size_t>(cy * nx_ + cx);
        for (uint32_t i = cell_start_[c]; i < cell_start_[c + 1]; ++i) {
          fn(entries_[i].first, entries_[i].second);
        }
      }
    }
  }

 private:
  int64_t coord_x(double x) const {
    return static_cast<int64_t>(std::floor((x - origin_.x) / cell_));
  }
  int64_t coord_y(double y) const {
    return static_cast<int64_t>(std::floor((y - origin_.y) / cell_));
  }
  size_t cell_index(Vec2 p) const {
    return static_cast<size_t>(coord_y(p.y) * nx_ + coord_x(p.x));
  }

  double cell_ = 1.0;
  Vec2 origin_{};
  int64_t nx_ = 0;
  int64_t ny_ = 0;
  size_t size_ = 0;
  std::vector<uint32_t> cell_start_;                 // CSR offsets
  std::vector<std::pair<uint32_t, Vec2>> entries_;   // (id, position)
};

/// Incremental cell grid for churning entry sets (see file comment): a
/// fixed kSide x kSide array of buckets that cell coordinates wrap onto.
class SpatialHashGrid {
 public:
  /// Buckets per axis (a power of two). Cells kSide apart share a
  /// bucket; their entries are extra candidates the caller's exact check
  /// rejects, so a field up to kSide cells wide never shares one at all.
  static constexpr int64_t kSide = 32;

  /// An empty grid with the given cell size (clamped to >= 1e-9).
  explicit SpatialHashGrid(double cell_size = 1.0) {
    set_cell_size(cell_size);
  }

  /// Current cell size.
  double cell_size() const { return cell_; }

  /// Changing the cell size clears the grid; re-insert afterwards.
  void set_cell_size(double cell_size) {
    cell_ = cell_size > 1e-9 ? cell_size : 1e-9;
    clear();
  }

  /// Drop every entry (buckets keep their capacity).
  void clear() {
    for (auto& bucket : buckets_) bucket.clear();
    size_ = 0;
  }

  /// Entries currently stored.
  size_t size() const { return size_; }

  /// Add an entry at @p pos (ids need not be unique across positions).
  void insert(uint64_t id, Vec2 pos) {
    // Allocated on first use; afterwards an insert reuses bucket
    // capacity and allocates nothing in the steady state.
    if (buckets_.empty()) buckets_.resize(kSide * kSide);
    buckets_[bucket_of(coord(pos.x), coord(pos.y))].push_back({id, pos});
    ++size_;
  }

  /// Remove one entry previously inserted with exactly this (id, pos).
  void erase(uint64_t id, Vec2 pos) {
    if (buckets_.empty()) return;
    auto& bucket = buckets_[bucket_of(coord(pos.x), coord(pos.y))];
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i].first == id) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        --size_;
        return;
      }
    }
  }

  /// Visit every entry in the cells the disc (center, radius) overlaps.
  /// Candidates, not matches: the caller applies the exact predicate.
  template <typename Fn>
  void for_each_candidate(Vec2 center, double radius, Fn&& fn) const {
    any_candidate(center, radius, [&fn](uint64_t id, Vec2 pos) {
      fn(id, pos);
      return false;
    });
  }

  /// Like for_each_candidate, but stops as soon as fn returns true —
  /// for existence queries (carrier sense) where the first match
  /// decides the answer. Returns whether any fn call returned true.
  /// Each entry is visited at most once.
  template <typename Fn>
  bool any_candidate(Vec2 center, double radius, Fn&& fn) const {
    if (size_ == 0 || radius < 0) return false;
    int64_t cx0 = coord(center.x - radius);
    int64_t cx1 = coord(center.x + radius);
    int64_t cy0 = coord(center.y - radius);
    int64_t cy1 = coord(center.y + radius);
    // A window of kSide or more cells wraps onto every bucket column
    // (row): visit each once, or entries would be offered twice.
    if (cx1 - cx0 >= kSide - 1) {
      cx0 = 0;
      cx1 = kSide - 1;
    }
    if (cy1 - cy0 >= kSide - 1) {
      cy0 = 0;
      cy1 = kSide - 1;
    }
    for (int64_t cy = cy0; cy <= cy1; ++cy) {
      for (int64_t cx = cx0; cx <= cx1; ++cx) {
        for (const auto& [id, pos] : buckets_[bucket_of(cx, cy)]) {
          if (fn(id, pos)) return true;
        }
      }
    }
    return false;
  }

 private:
  int64_t coord(double v) const {
    return static_cast<int64_t>(std::floor(v / cell_));
  }

  /// Wrap cell (cx, cy) onto the bucket array (two's-complement masking
  /// maps negative coordinates too).
  static size_t bucket_of(int64_t cx, int64_t cy) {
    return static_cast<size_t>((cy & (kSide - 1)) * kSide + (cx & (kSide - 1)));
  }

  double cell_ = 1.0;
  /// kSide * kSide buckets once the first entry arrives.
  std::vector<std::vector<std::pair<uint64_t, Vec2>>> buckets_;
  size_t size_ = 0;
};

}  // namespace dapes::sim
