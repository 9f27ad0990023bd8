// System catalog: per-node physical storage of the declustered relation.
//
// Paper: "the System Catalog manager keeps track of how many relations are
// defined, what disk each relation is declustered across, which partitioning
// strategy is used ... and the number of pages of each relation on each
// disk. For each relation, a mapping from logical page numbers to physical
// disk addresses is also maintained."
//
// Each node stores its fragment clustered on attribute B (clustered B+-tree)
// with a non-clustered B+-tree on attribute A, laid out in contiguous
// extents on the node's disk. BERD additionally stores an auxiliary-relation
// extent per node.
//
// Elastic placement (src/resize): the partitioning's "nodes" become logical
// slices that a PlacementSpec maps onto a possibly larger physical machine.
// Without a placement the mapping is the identity (slice i lives on node i)
// and every code path below is byte-identical to the fixed-membership
// catalog. Migration allocates fresh extents on the destination disk, copies
// page for page, then Relocate()s the fragment store in one instant — the
// old extents are never invalidated, so reads dispatched before the flip
// drain safely.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/decluster/berd.h"
#include "src/decluster/strategy.h"
#include "src/hw/params.h"
#include "src/storage/btree.h"
#include "src/storage/disk_layout.h"
#include "src/storage/page_layout.h"
#include "src/storage/relation.h"

namespace declust::engine {

using decluster::Predicate;
using storage::RecordId;
using storage::Value;

/// \brief Pages one operator must read at one node, in read order.
struct AccessPlan {
  /// Physical index pages (random reads: B-tree descent, then leaves).
  std::vector<hw::PageAddress> index_pages;
  /// Physical data pages read individually (non-clustered access: one
  /// random page per qualifying tuple's page).
  std::vector<hw::PageAddress> data_pages;
  /// Contiguous data-page ranges (clustered/scan access). One entry covers
  /// an arbitrarily long sequential read, so a full-table scan's plan is
  /// O(extents), not O(pages). The read path expands runs arithmetically
  /// in the same order the per-page list used, so simulated timings are
  /// unchanged.
  std::vector<hw::PageRun> data_runs;
  /// Qualifying tuples found at this node.
  int64_t tuples = 0;

  /// Data pages across both representations.
  int64_t data_page_count() const {
    int64_t n = static_cast<int64_t>(data_pages.size());
    for (const auto& run : data_runs) n += run.count;
    return n;
  }

  /// Invokes `fn(hw::PageAddress)` for every data page in read order:
  /// explicit addresses first, then runs (plans populate only one of the
  /// two, so the order matches the pre-run per-page plans exactly).
  template <typename Fn>
  void ForEachDataPage(Fn&& fn) const {
    for (const auto& page : data_pages) fn(page);
    for (const auto& run : data_runs) {
      for (int64_t i = 0; i < run.count; ++i) fn(run.At(i));
    }
  }

  /// Empties the plan but keeps the vectors' capacity, so a pooled plan
  /// object stops allocating once it has warmed to the working-set size.
  void clear() {
    index_pages.clear();
    data_pages.clear();
    data_runs.clear();
    tuples = 0;
  }
};

/// \brief Reusable scratch for plan construction, owned by the caller so a
/// catalog stays immutable after Build and concurrent replications can
/// read one catalog. Plan building is synchronous (no co_await inside), so
/// one scratch per System suffices: each call finishes with the scratch
/// before returning.
struct PlanScratch {
  std::vector<storage::BTreeEntry> entries;
  std::vector<int64_t> pages;
};

/// \brief Catalog configuration.
struct CatalogOptions {
  /// Fanout of the clustered and non-clustered B+-trees (entries per 8 KB
  /// index page: ~16-byte entries plus page overhead).
  int index_fanout = 340;
  /// Fanout of BERD auxiliary-relation B-trees.
  int aux_fanout = 512;
  /// Chained declustering (Hsiao & DeWitt): store a full backup copy of
  /// node n's fragment (data, both indexes, BERD aux) on node (n+1) mod N.
  /// Backups are placed after every primary extent so primary disk
  /// addresses are identical with and without backups.
  bool chained_backups = false;
  /// Worker threads for the catalog build's index-construction pass.
  /// 0 resolves DECLUST_JOBS (absent -> 1); 1 builds serially. Extent
  /// allocation is always serial, so disk addresses are byte-identical for
  /// any value.
  int build_jobs = 0;
};

/// \brief One node's fragment: clustered storage + both indexes + extents.
class FragmentStore {
 public:
  /// Builds the fragment's indexes and allocates its extents. `records` is
  /// a read-only view (typically over Partitioning::node_records()) — the
  /// store sorts a private copy transiently and keeps no per-tuple state,
  /// so setup memory is O(1) per store beyond the shared index content.
  FragmentStore(const storage::Relation* relation,
                std::span<const RecordId> records, storage::AttrId attr_a,
                storage::AttrId attr_b, const CatalogOptions& opts,
                const hw::HwParams& hw, storage::DiskLayout* layout);

  /// Builds the fragment's indexes into extents a serial allocation pass
  /// already reserved (sized via storage::BPlusTree::BulkLoadNodeCount, a
  /// pure function of tuple count and fanout). This is the parallel-build
  /// constructor: it touches no shared state, so slices can construct
  /// concurrently while disk addresses stay byte-identical to the serial
  /// build. status() is Internal if the built trees do not match the
  /// reserved extent sizes.
  FragmentStore(const storage::Relation* relation,
                std::span<const RecordId> records, storage::AttrId attr_a,
                storage::AttrId attr_b, const CatalogOptions& opts,
                const hw::HwParams& hw, const storage::Extent& data,
                const storage::Extent& idx_b, const storage::Extent& idx_a);

  /// Builds a chained-backup replica of `primary` on extents the serial
  /// allocation pass reserved. The backup is content-identical by
  /// construction (same records, same options), so it shares the primary's
  /// immutable index trees instead of rebuilding them.
  FragmentStore(const FragmentStore& primary, const storage::Extent& data,
                const storage::Extent& idx_b, const storage::Extent& idx_a);

  /// Whether extent allocation succeeded. A relation too large for the
  /// simulated disk used to trip a Release-mode silent-UB assert; callers
  /// (SystemCatalog::Build) now check and propagate this instead.
  const Status& status() const { return status_; }

  int64_t tuple_count() const { return tuple_count_; }
  int64_t data_pages() const { return data_extent_.num_pages; }

  /// Identity of the shared index content: a backup replica returns its
  /// primary's pointer. Lets footprint accounting count shared trees once.
  const void* index_identity() const { return clustered_b_.get(); }
  /// Resident bytes of this store's index trees (shared content counted in
  /// full — dedupe across stores with index_identity()).
  int64_t index_memory_bytes() const {
    int64_t bytes = 0;
    if (clustered_b_ != nullptr) bytes += clustered_b_->memory_bytes();
    if (nonclustered_a_ != nullptr) bytes += nonclustered_a_->memory_bytes();
    return bytes;
  }
  /// Simulated bytes of the data extent (pages * page size); 64-bit so
  /// 10M-tuple fragments do not wrap.
  int64_t data_bytes(const hw::HwParams& hw) const {
    return data_extent_.num_pages *
           static_cast<int64_t>(hw.disk_page_size_bytes);
  }

  /// Access plan for a clustered range on attribute B. Convenience wrapper
  /// for tests; hot paths use the *Into variant with a pooled plan.
  Result<AccessPlan> ClusteredAccess(Value lo, Value hi,
                                     const storage::DiskLayout& layout) const {
    AccessPlan plan;
    DECLUST_RETURN_NOT_OK(ClusteredAccessInto(lo, hi, layout, &plan));
    return plan;
  }

  /// Access plan for a (non-clustered) predicate on attribute A.
  Result<AccessPlan> NonClusteredAccess(
      Value lo, Value hi, const storage::DiskLayout& layout) const {
    AccessPlan plan;
    PlanScratch scratch;
    DECLUST_RETURN_NOT_OK(
        NonClusteredAccessInto(lo, hi, layout, &scratch, &plan));
    return plan;
  }

  /// Access plan for a full sequential scan of the fragment, counting the
  /// tuples matching [lo, hi] on `attr` (0 = A, 1 = B).
  Result<AccessPlan> ScanAccess(int attr, Value lo, Value hi,
                                const storage::DiskLayout& layout) const {
    AccessPlan plan;
    DECLUST_RETURN_NOT_OK(ScanAccessInto(attr, lo, hi, layout, &plan));
    return plan;
  }

  /// Fill-in-place variants: clear `out` and rebuild it, reusing its
  /// capacity (and `scratch`'s). The per-query planning path uses these so
  /// steady-state queries stop allocating. A non-OK Status means a page
  /// failed to resolve against its extent (a corrupt or mismatched extent,
  /// e.g. a truncated migration target) — previously an assert that
  /// compiled out in Release and dereferenced the failed Result.
  [[nodiscard]] Status ClusteredAccessInto(Value lo, Value hi,
                                           const storage::DiskLayout& layout,
                                           AccessPlan* out) const;
  [[nodiscard]] Status NonClusteredAccessInto(
      Value lo, Value hi, const storage::DiskLayout& layout,
      PlanScratch* scratch, AccessPlan* out) const;
  [[nodiscard]] Status ScanAccessInto(int attr, Value lo, Value hi,
                                      const storage::DiskLayout& layout,
                                      AccessPlan* out) const;

  /// Physical extents, for recovery's page-for-page rebuild enumeration.
  const storage::Extent& data_extent() const { return data_extent_; }
  const storage::Extent& index_b_extent() const { return index_b_extent_; }
  const storage::Extent& index_a_extent() const { return index_a_extent_; }

  /// Atomically repoints the store at freshly copied extents on another
  /// disk (the migration epoch flip). The old extents are abandoned, not
  /// freed: reads planned before the flip stay valid on the old disk.
  void Relocate(const storage::Extent& data, const storage::Extent& idx_b,
                const storage::Extent& idx_a) {
    data_extent_ = data;
    index_b_extent_ = idx_b;
    index_a_extent_ = idx_a;
  }

 private:
  /// Sorts a transient copy of `records` into clustered order and bulk-
  /// loads both index trees. Shared by the allocating and pre-allocated
  /// constructors.
  void BuildIndexes(std::span<const RecordId> records, storage::AttrId attr_a,
                    storage::AttrId attr_b, const CatalogOptions& opts);

  const storage::Relation* relation_;
  int64_t tuple_count_ = 0;
  // Immutable once built; a chained-backup replica shares its primary's
  // trees (same records, same options → identical content), so backups add
  // no index memory.
  std::shared_ptr<const storage::BPlusTree> clustered_b_;
  std::shared_ptr<const storage::BPlusTree> nonclustered_a_;
  storage::PageLayout page_layout_;
  storage::Extent data_extent_;
  storage::Extent index_b_extent_;
  storage::Extent index_a_extent_;
  Status status_ = Status::OK();
};

/// \brief Maps logical slices onto a physical machine (src/resize). The
/// partitioning's "node" i becomes slice i, stored on `owner[i]`'s disk
/// with its chained backup on `backup_owner[i]`'s disk.
struct PlacementSpec {
  /// Disks/layouts to create; may exceed the slice count never (owners are
  /// node indices below this) and may be smaller than the slice count.
  int num_physical_nodes = 0;
  std::vector<int> owner;         // slice -> physical node
  std::vector<int> backup_owner;  // slice -> physical node
};

/// \brief The catalog for one declustered relation.
class SystemCatalog {
 public:
  /// Builds per-slice fragment stores (and BERD auxiliary extents) for
  /// `partitioning` of `relation`. With a null `placement` slice i lives on
  /// node i (the fixed-membership machine, byte-identical layout).
  ///
  /// `share_disks_with` (multi-relation runs): instead of creating fresh
  /// disk layouts, the new catalog allocates its extents on the given
  /// catalog's disks, after that catalog's extents — the relations contend
  /// for the same simulated spindles. The partitioning's slice count must
  /// equal the shared catalog's node count, and `placement` must be null.
  static Result<std::unique_ptr<SystemCatalog>> Build(
      const storage::Relation* relation,
      const decluster::Partitioning* partitioning, storage::AttrId attr_a,
      storage::AttrId attr_b, const hw::HwParams& hw,
      CatalogOptions opts = CatalogOptions(),
      const PlacementSpec* placement = nullptr,
      SystemCatalog* share_disks_with = nullptr);

  /// Physical machine size (disk layouts). Equals num_slices() without a
  /// placement.
  int num_nodes() const { return static_cast<int>(layout_refs_.size()); }
  /// Logical slice count (one fragment store per slice).
  int num_slices() const { return static_cast<int>(stores_.size()); }
  const FragmentStore& store(int slice) const { return *stores_[slice]; }
  /// The chained-backup replica of `slice`'s fragment; requires
  /// has_backups().
  const FragmentStore& backup_store(int slice) const {
    return *backup_stores_[static_cast<size_t>(slice)];
  }

  /// The physical node currently serving `slice`'s primary copy.
  int OwnerOf(int slice) const {
    return owner_.empty() ? slice : owner_[static_cast<size_t>(slice)];
  }

  /// Access plan for `q` at `node` (selects the index by attribute, or a
  /// full sequential scan when `sequential_scan` is set).
  Result<AccessPlan> PlanAccess(int node, const Predicate& q,
                                bool sequential_scan = false) const {
    AccessPlan plan;
    PlanScratch scratch;
    DECLUST_RETURN_NOT_OK(
        PlanAccessInto(node, q, sequential_scan, &scratch, &plan));
    return plan;
  }

  /// Fill-in-place variant of PlanAccess: clears and rebuilds `out`,
  /// retaining its capacity (and `scratch`'s). The engine passes pooled
  /// plans here so steady-state planning is heap-silent.
  [[nodiscard]] Status PlanAccessInto(int node, const Predicate& q,
                                      bool sequential_scan,
                                      PlanScratch* scratch,
                                      AccessPlan* out) const;

  /// Access plan for a BERD auxiliary lookup at `node` (empty plan for
  /// non-BERD partitionings).
  Result<AccessPlan> PlanAuxAccess(int node, const Predicate& q) const {
    AccessPlan plan;
    DECLUST_RETURN_NOT_OK(PlanAuxAccessInto(node, q, &plan));
    return plan;
  }

  /// Fill-in-place variant of PlanAuxAccess.
  [[nodiscard]] Status PlanAuxAccessInto(int node, const Predicate& q,
                                         AccessPlan* out) const;

  /// True when chained-declustering backups were built.
  bool has_backups() const { return !backup_stores_.empty(); }

  /// Resident bytes of the catalog's index content, counting trees shared
  /// between primary and backup stores exactly once. Setup-time footprint
  /// accounting for the scale tests; O(total index nodes).
  int64_t memory_bytes() const;
  /// The node holding the backup copy of `slice`'s fragment: the chained
  /// successor (slice + 1) mod N without a placement, else the placement
  /// table (the next member after the owner, re-chained on migration).
  int BackupNodeOf(int slice) const {
    return backup_owner_.empty() ? (slice + 1) % num_slices()
                                 : backup_owner_[static_cast<size_t>(slice)];
  }

  /// Access plan for `q` against the backup copy of `failed_node`'s
  /// fragment, executed at BackupNodeOf(failed_node). Yields the same
  /// qualifying tuples as PlanAccess(failed_node, ...). Requires
  /// has_backups().
  Result<AccessPlan> PlanBackupAccess(int failed_node, const Predicate& q,
                                      bool sequential_scan = false) const {
    AccessPlan plan;
    PlanScratch scratch;
    DECLUST_RETURN_NOT_OK(PlanBackupAccessInto(failed_node, q,
                                               sequential_scan, &scratch,
                                               &plan));
    return plan;
  }

  /// Fill-in-place variant of PlanBackupAccess.
  [[nodiscard]] Status PlanBackupAccessInto(int failed_node,
                                            const Predicate& q,
                                            bool sequential_scan,
                                            PlanScratch* scratch,
                                            AccessPlan* out) const;

  /// BERD auxiliary lookup against the backup copy of `failed_node`'s aux
  /// fragment. Requires has_backups().
  Result<AccessPlan> PlanBackupAuxAccess(int failed_node,
                                         const Predicate& q) const {
    AccessPlan plan;
    DECLUST_RETURN_NOT_OK(PlanBackupAuxAccessInto(failed_node, q, &plan));
    return plan;
  }

  /// Fill-in-place variant of PlanBackupAuxAccess.
  [[nodiscard]] Status PlanBackupAuxAccessInto(int failed_node,
                                               const Predicate& q,
                                               AccessPlan* out) const;

  /// One page copy of a node rebuild: read `src` on `src_node`'s disk,
  /// ship it over the interconnect, write `dst` on the repaired node.
  struct RebuildPage {
    int src_node = 0;
    hw::PageAddress src;
    hw::PageAddress dst;
  };

  /// The full page-for-page copy plan to rebuild `node` after a disk loss
  /// (chained declustering, Hsiao & DeWitt): every slice whose primary the
  /// node serves — data, both index extents, and the BERD aux extent —
  /// restored from its backup copy, followed by every backup copy the node
  /// hosts restored from that slice's primary. Pages are listed in slice
  /// order, physically sequential within each extent. Without a placement
  /// this is exactly "the node's own fragment from BackupNodeOf(node), then
  /// the predecessor's backup from its primary". Requires has_backups().
  Result<std::vector<RebuildPage>> PlanRebuild(int node) const;

  /// One planned fragment migration: freshly allocated extents on
  /// `dst_node`'s disk plus the page-for-page copy list that fills them.
  struct MigrationJob {
    int slice = 0;
    bool backup_copy = false;  // moving the backup copy, not the primary
    int src_node = 0;
    int dst_node = 0;
    storage::Extent new_data, new_idx_b, new_idx_a, new_aux;
    bool has_aux = false;
    std::vector<RebuildPage> pages;
  };

  /// Plans moving `slice`'s primary (or, with `backup_copy`, its chained
  /// backup) to `dst_node`: allocates destination extents and enumerates
  /// the copy. `from_backup_source` reads the pages off the other replica
  /// (the fallback when the current host's disk has failed; requires
  /// has_backups()). Fails if the destination disk is out of space.
  Result<MigrationJob> PlanFragmentCopy(int slice, int dst_node,
                                        bool backup_copy,
                                        bool from_backup_source);

  /// The migration epoch flip: repoints the slice's store (and BERD aux
  /// extent) at the job's new extents and updates the placement table, all
  /// in one simulated instant. Requires a placement-built catalog.
  void CommitMigration(const MigrationJob& job);

 private:
  const storage::Relation* relation_ = nullptr;
  const decluster::Partitioning* partitioning_ = nullptr;
  const decluster::BerdPartitioning* berd_ = nullptr;  // null unless BERD
  std::vector<std::unique_ptr<FragmentStore>> stores_;
  // Disk layouts this catalog owns (empty when sharing another catalog's
  // disks) and the per-node view every code path indexes. Without sharing,
  // layout_refs_[i] points at owned_layouts_[i].
  std::vector<std::unique_ptr<storage::DiskLayout>> owned_layouts_;
  std::vector<storage::DiskLayout*> layout_refs_;
  std::vector<storage::Extent> aux_extents_;  // BERD only
  // Chained declustering: backup_stores_[s] is slice s's fragment stored on
  // BackupNodeOf(s) (empty unless opts.chained_backups).
  std::vector<std::unique_ptr<FragmentStore>> backup_stores_;
  std::vector<storage::Extent> aux_backup_extents_;  // BERD + backups only
  // Elastic placement tables; empty without a PlacementSpec (identity).
  std::vector<int> owner_;
  std::vector<int> backup_owner_;
  CatalogOptions opts_;
};

/// \brief The catalogs one System reads: the base relation's and, for
/// multi-relation open runs, one per extra relation allocated on the base
/// catalog's disks (extras[i] serves QueryInstance::relation == i + 1).
/// Immutable once built, so every replication of one strategy in a sweep
/// can share one set; a replication that migrates fragments builds its own.
struct CatalogSet {
  std::unique_ptr<SystemCatalog> base;
  std::vector<std::unique_ptr<SystemCatalog>> extras;
};

}  // namespace declust::engine
