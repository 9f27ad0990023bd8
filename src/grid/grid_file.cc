#include "src/grid/grid_file.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace declust::grid {

GridFile::GridFile(int num_dims, GridFileOptions options)
    : k_(num_dims),
      opts_(std::move(options)),
      scales_(static_cast<size_t>(num_dims)),
      dir_(num_dims) {
  assert(num_dims >= 1);
  assert(opts_.bucket_capacity >= 2);
  if (opts_.split_weights.empty()) {
    opts_.split_weights.assign(static_cast<size_t>(num_dims), 1.0);
  }
  assert(static_cast<int>(opts_.split_weights.size()) == num_dims);
  Bucket root;
  root.lo.assign(static_cast<size_t>(num_dims), 0);
  root.hi.assign(static_cast<size_t>(num_dims), 0);
  buckets_.push_back(std::move(root));
}

int64_t GridFile::CellOf(const Value* point) const {
  // Row-major over the directory, dimension 0 slowest (GridDirectory).
  int64_t idx = 0;
  for (int d = 0; d < k_; ++d) {
    idx = idx * dir_.size(d) + scales_[static_cast<size_t>(d)].SliceOf(point[d]);
  }
  return idx;
}

Status GridFile::Insert(const std::vector<Value>& point, RecordId rid) {
  if (static_cast<int>(point.size()) != k_) {
    return Status::InvalidArgument("point arity != num_dims");
  }
  const int b = dir_.bucket_at_index(CellOf(point.data()));
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  bucket.points.insert(bucket.points.end(), point.begin(), point.end());
  bucket.rids.push_back(rid);
  ++size_;

  int cur = b;
  while (buckets_[static_cast<size_t>(cur)].size() > opts_.bucket_capacity) {
    if (!SplitBucket(cur)) break;  // degenerate: tolerate overflow
    // After a split the overflowing entries may sit in either half; re-check
    // both by locating the half that still overflows (if any).
    if (buckets_[static_cast<size_t>(cur)].size() <= opts_.bucket_capacity) {
      const int nb = static_cast<int>(buckets_.size()) - 1;
      if (buckets_[static_cast<size_t>(nb)].size() > opts_.bucket_capacity) {
        cur = nb;
      } else {
        break;
      }
    }
  }
  return Status::OK();
}

double GridFile::SplitDeficit(int dim) const {
  const double w =
      std::max(opts_.split_weights[static_cast<size_t>(dim)], 1e-9);
  return static_cast<double>(scales_[static_cast<size_t>(dim)].num_slices()) /
         w;
}

bool GridFile::SplitBucket(int b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  // Prefer a region split (no directory growth). Among dimensions where the
  // bucket's box spans more than one slice, pick the most deserving by the
  // split policy.
  int region_dim = -1;
  double best = 0.0;
  for (int d = 0; d < k_; ++d) {
    const auto du = static_cast<size_t>(d);
    if (bucket.hi[du] > bucket.lo[du]) {
      const double deficit = SplitDeficit(d);
      if (region_dim == -1 || deficit < best) {
        region_dim = d;
        best = deficit;
      }
    }
  }
  if (region_dim >= 0) {
    RegionSplit(b, region_dim);
    return true;
  }
  const int cut_dim = TryAddCut(b);
  if (cut_dim < 0) return false;
  // The box now spans two slices along cut_dim; finish with a region split.
  RegionSplit(b, cut_dim);
  return true;
}

void GridFile::RegionSplit(int b, int d) {
  const auto du = static_cast<size_t>(d);
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  assert(bucket.hi[du] > bucket.lo[du]);
  const int mid = (bucket.lo[du] + bucket.hi[du]) / 2;  // upper half starts mid+1

  Bucket upper;
  upper.lo = bucket.lo;
  upper.hi = bucket.hi;
  upper.lo[du] = mid + 1;
  bucket.hi[du] = mid;

  // Move entries whose slice along d falls in the upper half; the lower
  // ones are compacted in place. Both halves keep insertion order.
  const auto ku = static_cast<size_t>(k_);
  int kept = 0;
  for (int i = 0; i < bucket.size(); ++i) {
    const Value* p = PointOf(bucket, i);
    const RecordId rid = bucket.rids[static_cast<size_t>(i)];
    if (scales_[du].SliceOf(p[du]) <= mid) {
      if (kept != i) {
        std::copy(p, p + ku, bucket.points.begin() + kept * k_);
        bucket.rids[static_cast<size_t>(kept)] = rid;
      }
      ++kept;
    } else {
      upper.points.insert(upper.points.end(), p, p + ku);
      upper.rids.push_back(rid);
    }
  }
  bucket.points.resize(static_cast<size_t>(kept) * ku);
  bucket.rids.resize(static_cast<size_t>(kept));

  const int nb = static_cast<int>(buckets_.size());
  // Reassign directory cells in the upper box. NOTE: push_back may
  // invalidate `bucket`; capture the boxes first.
  const std::vector<int> up_lo = upper.lo;
  const std::vector<int> up_hi = upper.hi;
  buckets_.push_back(std::move(upper));

  std::vector<int> coords = up_lo;
  for (;;) {
    assert(dir_.bucket_at(coords) == b);
    dir_.set_bucket(coords, nb);
    // Advance the odometer over the box.
    int j = k_ - 1;
    for (; j >= 0; --j) {
      const auto ju = static_cast<size_t>(j);
      if (coords[ju] < up_hi[ju]) {
        ++coords[ju];
        break;
      }
      coords[ju] = up_lo[ju];
    }
    if (j < 0) break;
  }
}

int GridFile::TryAddCut(int b) {
  Bucket& bucket = buckets_[static_cast<size_t>(b)];
  // Dimensions ordered by split deficit (most deserving first).
  std::vector<int> order(static_cast<size_t>(k_));
  for (int d = 0; d < k_; ++d) order[static_cast<size_t>(d)] = d;
  std::sort(order.begin(), order.end(),
            [&](int a, int c) { return SplitDeficit(a) < SplitDeficit(c); });

  for (int d : order) {
    const auto du = static_cast<size_t>(d);
    // Respect the directory-size cap: adding a cut along d multiplies the
    // cell count by (slices_d + 1) / slices_d.
    const int64_t new_cells =
        dir_.num_cells() / scales_[du].num_slices() *
        (scales_[du].num_slices() + 1);
    if (new_cells > opts_.max_cells) continue;
    std::vector<Value> vals(static_cast<size_t>(bucket.size()));
    for (int i = 0; i < bucket.size(); ++i) {
      vals[static_cast<size_t>(i)] = PointOf(bucket, i)[du];
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front() == vals.back()) continue;  // degenerate along d
    Value cut;
    if (opts_.split_rule == GridFileOptions::SplitRule::kBuddyMidpoint) {
      // NHS84 buddy halving: midpoint of the slice interval, clamped to the
      // value range so the cut actually separates entries. Unbounded edge
      // slices fall back to the value-range midpoint.
      const int slice = bucket.lo[du];
      auto [slice_lo, slice_hi] = scales_[du].SliceBounds(slice);
      if (slice_lo == std::numeric_limits<Value>::min()) {
        slice_lo = opts_.domain_lo.empty() ? vals.front()
                                           : opts_.domain_lo[du];
      }
      if (slice_hi == std::numeric_limits<Value>::max()) {
        slice_hi = opts_.domain_hi.empty() ? vals.back() + 1
                                           : opts_.domain_hi[du];
      }
      // True buddy split: cut at the interval midpoint even when one half
      // ends up empty (the next round then splits the occupied half one
      // level deeper). Every cut is a node of the one dyadic tree over the
      // slice interval, so identically distributed dimensions materialize
      // identical (aligned) scales — the property that localizes queries on
      // correlated attributes to single cells (paper section 4).
      if (slice_hi - slice_lo < 2) continue;  // cannot halve further
      cut = slice_lo + (slice_hi - slice_lo) / 2;
    } else {
      // Median cut, adjusted upward so both sides are non-empty
      // (values >= cut go right).
      cut = vals[vals.size() / 2];
      if (cut == vals.front()) {
        cut = *std::upper_bound(vals.begin(), vals.end(), vals.front());
      }
    }
    auto slice = scales_[du].AddCut(cut);
    assert(slice.ok());
    const int s = *slice;
    assert(s == bucket.lo[du]);
    dir_.DuplicateSlice(d, s);
    // Shift every bucket's box to the new slice numbering: slice s became
    // slices s and s+1.
    for (auto& bk : buckets_) {
      if (bk.lo[du] > s) ++bk.lo[du];
      if (bk.hi[du] >= s) ++bk.hi[du];
    }
    return d;
  }
  return -1;
}

std::vector<RecordId> GridFile::PointSearch(
    const std::vector<Value>& point) const {
  std::vector<RecordId> out;
  if (static_cast<int>(point.size()) != k_) return out;
  const Bucket& bucket =
      buckets_[static_cast<size_t>(dir_.bucket_at_index(CellOf(point.data())))];
  for (int i = 0; i < bucket.size(); ++i) {
    if (std::equal(point.begin(), point.end(), PointOf(bucket, i))) {
      out.push_back(bucket.rids[static_cast<size_t>(i)]);
    }
  }
  return out;
}

std::vector<int64_t> GridFile::CellsOverlapping(
    const std::vector<Value>& lo, const std::vector<Value>& hi) const {
  std::vector<int64_t> out;
  std::vector<int> first(static_cast<size_t>(k_)), last(static_cast<size_t>(k_));
  for (int d = 0; d < k_; ++d) {
    const auto du = static_cast<size_t>(d);
    if (lo[du] > hi[du]) return out;
    auto [a, z] = scales_[du].SlicesOverlapping(lo[du], hi[du]);
    first[du] = a;
    last[du] = z;
  }
  std::vector<int> coords = first;
  for (;;) {
    out.push_back(dir_.CellIndex(coords));
    int j = k_ - 1;
    for (; j >= 0; --j) {
      const auto ju = static_cast<size_t>(j);
      if (coords[ju] < last[ju]) {
        ++coords[ju];
        break;
      }
      coords[ju] = first[ju];
    }
    if (j < 0) break;
  }
  return out;
}

std::vector<GridEntry> GridFile::EntriesInCell(int64_t cell_index) const {
  const Bucket& bucket =
      buckets_[static_cast<size_t>(dir_.bucket_at_index(cell_index))];
  std::vector<GridEntry> out;
  for (int i = 0; i < bucket.size(); ++i) {
    const Value* p = PointOf(bucket, i);
    if (CellOf(p) == cell_index) {
      out.push_back(GridEntry{std::vector<Value>(p, p + k_),
                              bucket.rids[static_cast<size_t>(i)]});
    }
  }
  return out;
}

std::vector<int64_t> GridFile::CellHistogram() const {
  std::vector<int64_t> hist(static_cast<size_t>(dir_.num_cells()), 0);
  for (const auto& bucket : buckets_) {
    for (int i = 0; i < bucket.size(); ++i) {
      ++hist[static_cast<size_t>(CellOf(PointOf(bucket, i)))];
    }
  }
  return hist;
}

std::string GridFile::ShapeString() const {
  std::ostringstream os;
  for (int d = 0; d < k_; ++d) {
    if (d > 0) os << "x";
    os << scales_[static_cast<size_t>(d)].num_slices();
  }
  return os.str();
}

Status GridFile::Validate() const {
  // Directory shape matches the scales.
  for (int d = 0; d < k_; ++d) {
    if (dir_.size(d) != scales_[static_cast<size_t>(d)].num_slices()) {
      return Status::Internal("directory size != scale slices");
    }
  }
  // Each cell maps to a bucket whose box contains it; each bucket's box
  // cells all map to it; entry points lie within their bucket's box.
  int64_t total = 0;
  for (int64_t c = 0; c < dir_.num_cells(); ++c) {
    const int b = dir_.bucket_at_index(c);
    if (b < 0 || b >= num_buckets()) return Status::Internal("bad bucket id");
    const auto coords = dir_.CellCoords(c);
    const Bucket& bk = buckets_[static_cast<size_t>(b)];
    for (int d = 0; d < k_; ++d) {
      const auto du = static_cast<size_t>(d);
      if (coords[du] < bk.lo[du] || coords[du] > bk.hi[du]) {
        return Status::Internal("cell outside its bucket's box");
      }
    }
  }
  for (const auto& bk : buckets_) {
    if (bk.points.size() != bk.rids.size() * static_cast<size_t>(k_)) {
      return Status::Internal("bucket point and record arrays disagree");
    }
    total += bk.size();
    for (int i = 0; i < bk.size(); ++i) {
      const Value* p = PointOf(bk, i);
      for (int d = 0; d < k_; ++d) {
        const auto du = static_cast<size_t>(d);
        const int slice = scales_[du].SliceOf(p[du]);
        if (slice < bk.lo[du] || slice > bk.hi[du]) {
          return Status::Internal("entry outside its bucket's box");
        }
      }
    }
  }
  if (total != size_) return Status::Internal("entry count mismatch");
  return Status::OK();
}

}  // namespace declust::grid
