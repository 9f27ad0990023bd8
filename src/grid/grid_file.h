// The grid file [NHS84]: a symmetric multi-key file structure. Buckets of
// bounded capacity are addressed through a K-dimensional directory refined
// by per-dimension linear scales.
//
// MAGIC uses the insertion phase of this structure to build its grid
// directory: bucket capacity = the fragment cardinality FC, and the split
// policy weights = the Fraction_Splits of equation 4.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/grid/grid_directory.h"
#include "src/grid/linear_scale.h"
#include "src/storage/types.h"

namespace declust::grid {

using storage::RecordId;

/// \brief One stored (point, record) pair, as returned by EntriesInCell.
struct GridEntry {
  std::vector<Value> point;
  RecordId rid;
};

/// \brief Options controlling grid-file behaviour.
struct GridFileOptions {
  /// Maximum entries per bucket before a split is attempted.
  int bucket_capacity = 64;
  /// Relative split frequency per dimension (Fraction_Splits in MAGIC).
  /// Empty means equal weights.
  std::vector<double> split_weights;
  /// Hard cap on directory cells. Once adding a cut would exceed it, the
  /// overflowing bucket simply grows (overflow chaining), which bounds
  /// directory blow-up on pathological data such as perfectly correlated
  /// attributes (all points on the diagonal).
  int64_t max_cells = 1 << 17;
  /// How a new cut point is chosen within the overflowing slice.
  enum class SplitRule {
    /// NHS84 buddy-system halving: cut at the midpoint of the slice
    /// interval. Self-aligning across dimensions (identically distributed
    /// attributes produce identical scales), so correlated data stays in
    /// one cell per slice; near-equi-depth for uniform data.
    kBuddyMidpoint,
    /// Cut at the median of the overflowing bucket's values (equi-depth
    /// even for skewed data, but scales drift apart across dimensions).
    kMedian,
  };
  SplitRule split_rule = SplitRule::kBuddyMidpoint;
  /// Known key-space bounds per dimension (inclusive lo, exclusive hi).
  /// Buddy splitting anchors its halving on these, which keeps the scales
  /// of identically distributed dimensions aligned. Empty = derive from the
  /// data seen so far (weaker alignment).
  std::vector<Value> domain_lo;
  std::vector<Value> domain_hi;
};

/// \brief A K-dimensional grid file over integer attribute values.
///
/// Invariant: every bucket owns an axis-aligned box of directory cells
/// (the buddy-system property), and every cell in that box maps to the
/// bucket.
class GridFile {
 public:
  GridFile(int num_dims, GridFileOptions options);

  int num_dims() const { return k_; }
  const LinearScale& scale(int dim) const {
    return scales_[static_cast<size_t>(dim)];
  }
  const GridDirectory& directory() const { return dir_; }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  int64_t size() const { return size_; }

  /// Inserts one point (arity must equal num_dims).
  Status Insert(const std::vector<Value>& point, RecordId rid);

  /// Record ids matching the point exactly.
  std::vector<RecordId> PointSearch(const std::vector<Value>& point) const;

  /// Linear index of the directory cell containing `point`.
  int64_t CellOfPoint(const std::vector<Value>& point) const {
    return CellOf(point.data());
  }

  /// Linear cell indices overlapping the box [lo[d], hi[d]] (inclusive).
  std::vector<int64_t> CellsOverlapping(const std::vector<Value>& lo,
                                        const std::vector<Value>& hi) const;

  /// Entries whose point lies exactly in the given cell.
  std::vector<GridEntry> EntriesInCell(int64_t cell_index) const;

  /// Number of entries in each cell (indexed by linear cell index).
  std::vector<int64_t> CellHistogram() const;

  /// "62x61"-style shape string.
  std::string ShapeString() const;

  /// Checks the buddy/ownership invariants; used by property tests.
  Status Validate() const;

 private:
  // Entry i's point is points[i*k .. i*k+k) and its record rids[i], so a
  // bucket costs two allocations however many entries it holds.
  struct Bucket {
    std::vector<Value> points;
    std::vector<RecordId> rids;
    std::vector<int> lo;  // inclusive slice box, per dimension
    std::vector<int> hi;

    int size() const { return static_cast<int>(rids.size()); }
  };

  // Linear index of the cell containing the k values at `point`.
  int64_t CellOf(const Value* point) const;
  const Value* PointOf(const Bucket& bucket, int i) const {
    return bucket.points.data() + static_cast<size_t>(i) * k_;
  }
  // Splits bucket b once (region split or new cut). Returns false when the
  // bucket is degenerate (identical points) and cannot be split.
  bool SplitBucket(int b);
  // Region split along dim d (box must span > 1 slice there).
  void RegionSplit(int b, int d);
  // Attempts to add a cut through bucket b along some dimension; returns the
  // chosen dimension or -1.
  int TryAddCut(int b);
  // Ratio used to pick the next dimension to cut (lower = more deserving).
  double SplitDeficit(int dim) const;

  int k_;
  GridFileOptions opts_;
  std::vector<LinearScale> scales_;
  GridDirectory dir_;
  std::vector<Bucket> buckets_;
  int64_t size_ = 0;
};

}  // namespace declust::grid
