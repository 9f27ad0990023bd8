#include "src/engine/catalog.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "src/common/thread_pool.h"

namespace declust::engine {

namespace {

// Places the `height` pages of a B-tree descent within an index extent:
// the root first, then one page per level, the last being the leaf that
// contains `leaf_index`. Intermediate levels are spread deterministically.
// Resolution can fail on a corrupt/mismatched extent; propagate instead of
// asserting (the assert compiled out in Release and dereferenced the
// failed Result).
Status DescentPages(const storage::Extent& extent, int64_t height,
                    int64_t leaf_index, const storage::DiskLayout& layout,
                    std::vector<hw::PageAddress>* out) {
  if (extent.num_pages == 0) return Status::OK();
  for (int64_t level = 0; level < height; ++level) {
    int64_t page;
    if (level == 0) {
      page = 0;  // root
    } else if (level == height - 1) {
      page = std::min(extent.num_pages - 1, 1 + leaf_index);
    } else {
      // Spread interior levels across the extent.
      page = std::min(extent.num_pages - 1,
                      1 + (leaf_index / (level + 1)) % extent.num_pages);
    }
    DECLUST_ASSIGN_OR_RETURN(auto addr, layout.Resolve(extent, page));
    out->push_back(addr);
  }
  return Status::OK();
}

}  // namespace

void FragmentStore::BuildIndexes(std::span<const RecordId> records,
                                 storage::AttrId attr_a,
                                 storage::AttrId attr_b,
                                 const CatalogOptions& opts) {
  const auto by_key = [](const storage::BTreeEntry& x,
                         const storage::BTreeEntry& y) { return x.key < y.key; };
  // Clustered order on B: (B value, record id) entries sorted on the key
  // alone. No comparison reads a row, and equal keys keep the order
  // std::sort gives when sorting the record ids by their B values.
  std::vector<storage::BTreeEntry> b_entries(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    b_entries[i] = {relation_->value(records[i], attr_b), records[i]};
  }
  std::sort(b_entries.begin(), b_entries.end(), by_key);

  // Build both indexes over positions in clustered order: once the indexes
  // are bulk-loaded, positions (not record ids) are all the store needs.
  std::vector<storage::BTreeEntry> a_entries(b_entries.size());
  for (size_t pos = 0; pos < b_entries.size(); ++pos) {
    a_entries[pos] = {relation_->value(b_entries[pos].rid, attr_a),
                      static_cast<RecordId>(pos)};
    b_entries[pos].rid = static_cast<RecordId>(pos);
  }
  std::sort(a_entries.begin(), a_entries.end(), by_key);
  clustered_b_ = std::make_shared<const storage::BPlusTree>(
      storage::BPlusTree::BulkLoad(std::move(b_entries), opts.index_fanout));
  nonclustered_a_ = std::make_shared<const storage::BPlusTree>(
      storage::BPlusTree::BulkLoad(std::move(a_entries), opts.index_fanout));
}

FragmentStore::FragmentStore(const storage::Relation* relation,
                             std::span<const RecordId> records,
                             storage::AttrId attr_a, storage::AttrId attr_b,
                             const CatalogOptions& opts,
                             const hw::HwParams& hw,
                             storage::DiskLayout* layout)
    : relation_(relation),
      tuple_count_(static_cast<int64_t>(records.size())),
      page_layout_(hw.tuples_per_page) {
  BuildIndexes(records, attr_a, attr_b, opts);

  // Allocate physical extents: data, then the two indexes. Allocation can
  // fail (simulated disk full) for relations the default geometry cannot
  // hold; record the Status instead of asserting — an assert compiles away
  // in Release and left the extents dangling at {0, 0}.
  auto data = layout->Allocate(page_layout_.PagesFor(tuple_count_));
  auto idx_b = layout->Allocate(clustered_b_->node_count());
  auto idx_a = layout->Allocate(nonclustered_a_->node_count());
  if (!data.ok() || !idx_b.ok() || !idx_a.ok()) {
    status_ = Status::OutOfRange(
        "fragment of " + std::to_string(tuple_count_) +
        " tuples does not fit the simulated disk (" +
        std::to_string(layout->capacity_pages()) + " pages; raise "
        "disk_cylinders)");
    return;
  }
  data_extent_ = *data;
  index_b_extent_ = *idx_b;
  index_a_extent_ = *idx_a;
}

FragmentStore::FragmentStore(const storage::Relation* relation,
                             std::span<const RecordId> records,
                             storage::AttrId attr_a, storage::AttrId attr_b,
                             const CatalogOptions& opts,
                             const hw::HwParams& hw,
                             const storage::Extent& data,
                             const storage::Extent& idx_b,
                             const storage::Extent& idx_a)
    : relation_(relation),
      tuple_count_(static_cast<int64_t>(records.size())),
      page_layout_(hw.tuples_per_page),
      data_extent_(data),
      index_b_extent_(idx_b),
      index_a_extent_(idx_a) {
  BuildIndexes(records, attr_a, attr_b, opts);
  // The serial allocation pass sized these extents without building the
  // trees (BulkLoadNodeCount); a mismatch here means that function drifted
  // from BulkLoad and every address after this extent would be wrong.
  if (page_layout_.PagesFor(tuple_count_) != data_extent_.num_pages ||
      clustered_b_->node_count() != index_b_extent_.num_pages ||
      nonclustered_a_->node_count() != index_a_extent_.num_pages) {
    status_ = Status::Internal(
        "preallocated extents do not match built index sizes (BulkLoad vs "
        "BulkLoadNodeCount drift)");
  }
}

FragmentStore::FragmentStore(const FragmentStore& primary,
                             const storage::Extent& data,
                             const storage::Extent& idx_b,
                             const storage::Extent& idx_a)
    : relation_(primary.relation_),
      tuple_count_(primary.tuple_count_),
      clustered_b_(primary.clustered_b_),
      nonclustered_a_(primary.nonclustered_a_),
      page_layout_(primary.page_layout_),
      data_extent_(data),
      index_b_extent_(idx_b),
      index_a_extent_(idx_a),
      status_(primary.status_) {}

Status FragmentStore::ClusteredAccessInto(Value lo, Value hi,
                                          const storage::DiskLayout& layout,
                                          AccessPlan* out) const {
  out->clear();
  // The clustered path needs only the range's shape: count plus first/last
  // positions. RangeBounds walks the leaf chain without materialising the
  // entries, so this plan is built without touching the heap.
  const auto range = clustered_b_->RangeBounds(lo, hi);
  out->tuples = range.count;
  const int64_t first_pos = range.count == 0 ? 0 : range.first.rid;
  const int64_t avg_per_leaf_b = std::max<int64_t>(
      1, clustered_b_->size() / std::max<int64_t>(1, clustered_b_->leaf_count()));
  DECLUST_RETURN_NOT_OK(DescentPages(index_b_extent_, clustered_b_->height(),
                                     first_pos / avg_per_leaf_b, layout,
                                     &out->index_pages));
  if (range.count > 0) {
    // Qualifying tuples are contiguous in clustered order: one sequential
    // run of pages, however wide the range.
    const int64_t last_pos = range.last.rid;
    const int64_t first_page = page_layout_.PageOfPosition(first_pos);
    const int64_t last_page = page_layout_.PageOfPosition(last_pos);
    DECLUST_ASSIGN_OR_RETURN(
        auto run, layout.ResolveRun(data_extent_, first_page,
                                    last_page - first_page + 1));
    out->data_runs.push_back(run);
  }
  return Status::OK();
}

Status FragmentStore::NonClusteredAccessInto(Value lo, Value hi,
                                             const storage::DiskLayout& layout,
                                             PlanScratch* scratch,
                                             AccessPlan* out) const {
  out->clear();
  std::vector<storage::BTreeEntry>& entries = scratch->entries;
  entries.clear();
  nonclustered_a_->RangeSearchInto(lo, hi, &entries);
  out->tuples = static_cast<int64_t>(entries.size());

  // Descent plus any extra leaves the range spans.
  const int64_t avg_per_leaf =
      std::max<int64_t>(1, nonclustered_a_->size() /
                               std::max<int64_t>(1, nonclustered_a_->leaf_count()));
  DECLUST_RETURN_NOT_OK(
      DescentPages(index_a_extent_, nonclustered_a_->height(),
                   (entries.empty() ? 0 : entries.front().key) / avg_per_leaf,
                   layout, &out->index_pages));
  const int64_t extra_leaves = nonclustered_a_->LeafPagesTouched(lo, hi) - 1;
  for (int64_t l = 0; l < extra_leaves; ++l) {
    DECLUST_ASSIGN_OR_RETURN(
        auto addr,
        layout.Resolve(index_a_extent_,
                       std::min<int64_t>(index_a_extent_.num_pages - 1,
                                         1 + l)));
    out->index_pages.push_back(addr);
  }

  // One random data page per distinct page of a qualifying tuple, read in
  // ascending page order.
  std::vector<int64_t>& pages = scratch->pages;
  pages.clear();
  for (const auto& e : entries) {
    pages.push_back(page_layout_.PageOfPosition(e.rid));
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  for (int64_t p : pages) {
    DECLUST_ASSIGN_OR_RETURN(auto addr, layout.Resolve(data_extent_, p));
    out->data_pages.push_back(addr);
  }
  return Status::OK();
}

Status FragmentStore::ScanAccessInto(int attr, Value lo, Value hi,
                                     const storage::DiskLayout& layout,
                                     AccessPlan* out) const {
  out->clear();
  // Every data page, physically sequential; no index pages. One run covers
  // the whole extent regardless of fragment size.
  if (data_extent_.num_pages > 0) {
    DECLUST_ASSIGN_OR_RETURN(
        auto run, layout.ResolveRun(data_extent_, 0, data_extent_.num_pages));
    out->data_runs.push_back(run);
  }
  const auto& tree = (attr == 1) ? *clustered_b_ : *nonclustered_a_;
  out->tuples = tree.RangeCount(lo, hi);
  return Status::OK();
}

Result<std::unique_ptr<SystemCatalog>> SystemCatalog::Build(
    const storage::Relation* relation,
    const decluster::Partitioning* partitioning, storage::AttrId attr_a,
    storage::AttrId attr_b, const hw::HwParams& hw, CatalogOptions opts,
    const PlacementSpec* placement, SystemCatalog* share_disks_with) {
  if (relation == nullptr || partitioning == nullptr) {
    return Status::InvalidArgument("null relation or partitioning");
  }
  auto catalog = std::unique_ptr<SystemCatalog>(new SystemCatalog());
  catalog->relation_ = relation;
  catalog->partitioning_ = partitioning;
  catalog->berd_ =
      dynamic_cast<const decluster::BerdPartitioning*>(partitioning);
  catalog->opts_ = opts;

  const int slices = partitioning->num_nodes();
  if (share_disks_with != nullptr) {
    if (placement != nullptr) {
      return Status::InvalidArgument(
          "catalog: disk sharing and elastic placement are exclusive");
    }
    if (share_disks_with->num_nodes() != slices) {
      return Status::InvalidArgument(
          "catalog: shared-disk build needs " +
          std::to_string(share_disks_with->num_nodes()) +
          " slices to match the base catalog, got " + std::to_string(slices));
    }
    catalog->layout_refs_ = share_disks_with->layout_refs_;
  }
  if (placement != nullptr) {
    if (static_cast<int>(placement->owner.size()) != slices ||
        static_cast<int>(placement->backup_owner.size()) != slices ||
        placement->num_physical_nodes < 1) {
      return Status::InvalidArgument(
          "placement tables do not match the partitioning's slice count");
    }
    catalog->owner_ = placement->owner;
    catalog->backup_owner_ = placement->backup_owner;
    for (int n = 0; n < placement->num_physical_nodes; ++n) {
      catalog->owned_layouts_.push_back(std::make_unique<storage::DiskLayout>(
          hw.disk_pages_per_cylinder, hw.disk_cylinders));
      catalog->layout_refs_.push_back(catalog->owned_layouts_.back().get());
    }
  }

  // --- Pass 1: serial extent allocation. --------------------------------
  // Allocation order matters (extent addresses): without a placement this
  // loop must interleave layout creation with per-slice allocations exactly
  // as the single-pass build always has, so addresses are byte-identical.
  // Extent sizes are pure functions of the slice's tuple count
  // (PageLayout::PagesFor, BPlusTree::BulkLoadNodeCount — both trees index
  // the same entries at the same fanout), so no tree needs to exist yet.
  struct SliceExtents {
    storage::Extent data, idx_b, idx_a;
  };
  const storage::PageLayout page_layout(hw.tuples_per_page);
  const auto& node_records = partitioning->node_records();
  const auto allocate_store = [&](int slice, storage::DiskLayout* layout,
                                  SliceExtents* out) -> Status {
    const int64_t count =
        static_cast<int64_t>(node_records[static_cast<size_t>(slice)].size());
    const int64_t index_nodes =
        storage::BPlusTree::BulkLoadNodeCount(count, opts.index_fanout);
    auto data = layout->Allocate(page_layout.PagesFor(count));
    auto idx_b = layout->Allocate(index_nodes);
    auto idx_a = layout->Allocate(index_nodes);
    if (!data.ok() || !idx_b.ok() || !idx_a.ok()) {
      return Status::OutOfRange(
          "fragment of " + std::to_string(count) +
          " tuples does not fit the simulated disk (" +
          std::to_string(layout->capacity_pages()) + " pages; raise "
          "disk_cylinders)");
    }
    *out = {*data, *idx_b, *idx_a};
    return Status::OK();
  };
  const auto allocate_aux = [&](int slice, storage::DiskLayout* layout,
                                std::vector<storage::Extent>* out) -> Status {
    const auto full = catalog->berd_->AuxCost(
        slice, std::numeric_limits<Value>::min(),
        std::numeric_limits<Value>::max());
    const int64_t aux_pages =
        std::max<int64_t>(1, full.index_pages + full.leaf_pages);
    DECLUST_ASSIGN_OR_RETURN(auto extent, layout->Allocate(aux_pages));
    out->push_back(extent);
    return Status::OK();
  };

  // Reserve the store slots up front: num_slices() (and so BackupNodeOf's
  // modulus) must be valid during pass 1, before pass 2 fills them in.
  catalog->stores_.resize(static_cast<size_t>(slices));

  std::vector<SliceExtents> primary_extents(static_cast<size_t>(slices));
  for (int slice = 0; slice < slices; ++slice) {
    storage::DiskLayout* layout;
    if (placement == nullptr && share_disks_with == nullptr) {
      catalog->owned_layouts_.push_back(std::make_unique<storage::DiskLayout>(
          hw.disk_pages_per_cylinder, hw.disk_cylinders));
      catalog->layout_refs_.push_back(catalog->owned_layouts_.back().get());
      layout = catalog->layout_refs_.back();
    } else {
      layout = catalog->layout_refs_[static_cast<size_t>(
          catalog->OwnerOf(slice))];
    }
    DECLUST_RETURN_NOT_OK(allocate_store(
        slice, layout, &primary_extents[static_cast<size_t>(slice)]));
    if (catalog->berd_ != nullptr) {
      // Auxiliary-relation pages for this slice's aux fragment.
      DECLUST_RETURN_NOT_OK(allocate_aux(slice, layout,
                                         &catalog->aux_extents_));
    }
  }
  // Chained declustering: backup copies go on disk AFTER all primary
  // extents, so primary physical addresses are unchanged by the option.
  const bool backups = opts.chained_backups && slices > 1;
  std::vector<SliceExtents> backup_extents(
      backups ? static_cast<size_t>(slices) : 0);
  if (backups) {
    for (int slice = 0; slice < slices; ++slice) {
      storage::DiskLayout* layout =
          catalog
              ->layout_refs_[static_cast<size_t>(catalog->BackupNodeOf(slice))];
      DECLUST_RETURN_NOT_OK(allocate_store(
          slice, layout, &backup_extents[static_cast<size_t>(slice)]));
      if (catalog->berd_ != nullptr) {
        DECLUST_RETURN_NOT_OK(allocate_aux(slice, layout,
                                           &catalog->aux_backup_extents_));
      }
    }
  }

  // --- Pass 2: index construction, parallel over slices. ----------------
  // Each slice sorts and bulk-loads only its own trees into extents pass 1
  // reserved — no shared mutable state, so the result is byte-identical
  // for any job count.
  const auto build_store = [&](int slice) {
    const auto& ext = primary_extents[static_cast<size_t>(slice)];
    catalog->stores_[static_cast<size_t>(slice)] =
        std::make_unique<FragmentStore>(
            relation,
            std::span<const RecordId>(
                node_records[static_cast<size_t>(slice)]),
            attr_a, attr_b, opts, hw, ext.data, ext.idx_b, ext.idx_a);
  };
  const int jobs =
      std::min(ThreadPool::ResolveJobs(opts.build_jobs), slices);
  if (jobs <= 1) {
    for (int slice = 0; slice < slices; ++slice) build_store(slice);
  } else {
    ThreadPool pool(jobs);
    for (int slice = 0; slice < slices; ++slice) {
      pool.Submit([&build_store, slice] { build_store(slice); });
    }
    pool.Wait();
  }
  for (const auto& store : catalog->stores_) {
    DECLUST_RETURN_NOT_OK(store->status());
  }

  // --- Pass 3: backup replicas share the primaries' trees (cheap). ------
  if (backups) {
    for (int slice = 0; slice < slices; ++slice) {
      const auto& ext = backup_extents[static_cast<size_t>(slice)];
      catalog->backup_stores_.push_back(std::make_unique<FragmentStore>(
          *catalog->stores_[static_cast<size_t>(slice)], ext.data, ext.idx_b,
          ext.idx_a));
      DECLUST_RETURN_NOT_OK(catalog->backup_stores_.back()->status());
    }
  }
  return catalog;
}

int64_t SystemCatalog::memory_bytes() const {
  int64_t bytes = 0;
  std::unordered_set<const void*> counted;
  const auto add = [&](const FragmentStore& store) {
    if (counted.insert(store.index_identity()).second) {
      bytes += store.index_memory_bytes();
    }
  };
  for (const auto& store : stores_) add(*store);
  for (const auto& store : backup_stores_) add(*store);
  return bytes;
}

Status SystemCatalog::PlanAccessInto(int node, const Predicate& q,
                                     bool sequential_scan,
                                     PlanScratch* scratch,
                                     AccessPlan* out) const {
  const auto& layout = *layout_refs_[static_cast<size_t>(OwnerOf(node))];
  const auto& store = *stores_[static_cast<size_t>(node)];
  if (sequential_scan) {
    return store.ScanAccessInto(q.attr, q.lo, q.hi, layout, out);
  }
  if (q.attr == 1) {
    // Attribute 0 = A (non-clustered index), 1 = B (clustered index).
    return store.ClusteredAccessInto(q.lo, q.hi, layout, out);
  }
  return store.NonClusteredAccessInto(q.lo, q.hi, layout, scratch, out);
}

Status SystemCatalog::PlanAuxAccessInto(int node, const Predicate& q,
                                        AccessPlan* out) const {
  out->clear();
  if (berd_ == nullptr) return Status::OK();
  const auto cost = berd_->AuxCost(node, q.lo, q.hi);
  const auto& layout = *layout_refs_[static_cast<size_t>(OwnerOf(node))];
  const auto& extent = aux_extents_[static_cast<size_t>(node)];
  DECLUST_RETURN_NOT_OK(
      DescentPages(extent, cost.index_pages, 0, layout, &out->index_pages));
  for (int64_t l = 1; l < cost.leaf_pages; ++l) {
    DECLUST_ASSIGN_OR_RETURN(
        auto addr,
        layout.Resolve(extent, std::min<int64_t>(extent.num_pages - 1, l)));
    out->index_pages.push_back(addr);
  }
  out->tuples = cost.entries;
  return Status::OK();
}

Status SystemCatalog::PlanBackupAccessInto(int failed_node,
                                           const Predicate& q,
                                           bool sequential_scan,
                                           PlanScratch* scratch,
                                           AccessPlan* out) const {
  if (!has_backups()) {
    return Status::FailedPrecondition(
        "backup access plan without chained backups");
  }
  const int backup = BackupNodeOf(failed_node);
  const auto& layout = *layout_refs_[static_cast<size_t>(backup)];
  const auto& store = *backup_stores_[static_cast<size_t>(failed_node)];
  if (sequential_scan) {
    return store.ScanAccessInto(q.attr, q.lo, q.hi, layout, out);
  }
  if (q.attr == 1) {
    return store.ClusteredAccessInto(q.lo, q.hi, layout, out);
  }
  return store.NonClusteredAccessInto(q.lo, q.hi, layout, scratch, out);
}

Status SystemCatalog::PlanBackupAuxAccessInto(int failed_node,
                                              const Predicate& q,
                                              AccessPlan* out) const {
  out->clear();
  if (berd_ == nullptr) return Status::OK();
  if (!has_backups()) {
    return Status::FailedPrecondition(
        "backup aux plan without chained backups");
  }
  const int backup = BackupNodeOf(failed_node);
  const auto cost = berd_->AuxCost(failed_node, q.lo, q.hi);
  const auto& layout = *layout_refs_[static_cast<size_t>(backup)];
  const auto& extent = aux_backup_extents_[static_cast<size_t>(failed_node)];
  DECLUST_RETURN_NOT_OK(
      DescentPages(extent, cost.index_pages, 0, layout, &out->index_pages));
  for (int64_t l = 1; l < cost.leaf_pages; ++l) {
    DECLUST_ASSIGN_OR_RETURN(
        auto addr,
        layout.Resolve(extent, std::min<int64_t>(extent.num_pages - 1, l)));
    out->index_pages.push_back(addr);
  }
  out->tuples = cost.entries;
  return Status::OK();
}

Result<std::vector<SystemCatalog::RebuildPage>> SystemCatalog::PlanRebuild(
    int node) const {
  if (!has_backups()) {
    return Status::FailedPrecondition(
        "rebuild plan without chained backups");
  }
  std::vector<RebuildPage> pages;

  // Pairs the i-th page of `src_extent` (on src_node's disk) with the i-th
  // page of `dst_extent` (on the repaired node's disk). Primary and backup
  // copies of one fragment are built from the same records with the same
  // options, so their extents are the same length.
  const auto copy_extent = [&](int src_node, const storage::Extent& src_extent,
                               const storage::Extent& dst_extent) -> Status {
    if (src_extent.num_pages != dst_extent.num_pages) {
      return Status::Internal("rebuild source/target extents differ in size");
    }
    const auto& src_layout = *layout_refs_[static_cast<size_t>(src_node)];
    const auto& dst_layout = *layout_refs_[static_cast<size_t>(node)];
    for (int64_t p = 0; p < src_extent.num_pages; ++p) {
      DECLUST_ASSIGN_OR_RETURN(auto src, src_layout.Resolve(src_extent, p));
      DECLUST_ASSIGN_OR_RETURN(auto dst, dst_layout.Resolve(dst_extent, p));
      pages.push_back(RebuildPage{src_node, src, dst});
    }
    return Status::OK();
  };

  // Every slice whose primary the lost disk served, restored from its
  // chained backup. Without a placement only slice == node matches.
  for (int s = 0; s < num_slices(); ++s) {
    if (OwnerOf(s) != node) continue;
    const int backup = BackupNodeOf(s);
    const auto& from = *backup_stores_[static_cast<size_t>(s)];
    const auto& to = *stores_[static_cast<size_t>(s)];
    DECLUST_RETURN_NOT_OK(
        copy_extent(backup, from.data_extent(), to.data_extent()));
    DECLUST_RETURN_NOT_OK(
        copy_extent(backup, from.index_b_extent(), to.index_b_extent()));
    DECLUST_RETURN_NOT_OK(
        copy_extent(backup, from.index_a_extent(), to.index_a_extent()));
    if (berd_ != nullptr) {
      DECLUST_RETURN_NOT_OK(
          copy_extent(backup, aux_backup_extents_[static_cast<size_t>(s)],
                      aux_extents_[static_cast<size_t>(s)]));
    }
  }
  // Every backup copy the lost disk hosted, restored from that slice's
  // primary — without these the chain would have a permanent hole. Without
  // a placement only the predecessor's backup matches.
  for (int s = 0; s < num_slices(); ++s) {
    if (BackupNodeOf(s) != node || OwnerOf(s) == node) continue;
    const int owner = OwnerOf(s);
    const auto& from = *stores_[static_cast<size_t>(s)];
    const auto& to = *backup_stores_[static_cast<size_t>(s)];
    DECLUST_RETURN_NOT_OK(
        copy_extent(owner, from.data_extent(), to.data_extent()));
    DECLUST_RETURN_NOT_OK(
        copy_extent(owner, from.index_b_extent(), to.index_b_extent()));
    DECLUST_RETURN_NOT_OK(
        copy_extent(owner, from.index_a_extent(), to.index_a_extent()));
    if (berd_ != nullptr) {
      DECLUST_RETURN_NOT_OK(
          copy_extent(owner, aux_extents_[static_cast<size_t>(s)],
                      aux_backup_extents_[static_cast<size_t>(s)]));
    }
  }
  return pages;
}

Result<SystemCatalog::MigrationJob> SystemCatalog::PlanFragmentCopy(
    int slice, int dst_node, bool backup_copy, bool from_backup_source) {
  if (slice < 0 || slice >= num_slices() || dst_node < 0 ||
      dst_node >= num_nodes()) {
    return Status::InvalidArgument("migration plan out of range");
  }
  if ((backup_copy || from_backup_source) && !has_backups()) {
    return Status::InvalidArgument(
        "migration needs chained backups for this copy");
  }
  MigrationJob job;
  job.slice = slice;
  job.backup_copy = backup_copy;
  job.dst_node = dst_node;

  // The extents being moved (sized like the source) and the replica the
  // pages are read from. A primary move normally reads the primary copy
  // itself; `from_backup_source` falls back to the chained backup when the
  // current host's disk has failed mid-migration.
  const FragmentStore& moved = backup_copy
                                   ? *backup_stores_[static_cast<size_t>(slice)]
                                   : *stores_[static_cast<size_t>(slice)];
  const bool read_backup = backup_copy ? false : from_backup_source;
  const FragmentStore& from = read_backup
                                  ? *backup_stores_[static_cast<size_t>(slice)]
                                  : *stores_[static_cast<size_t>(slice)];
  job.src_node = read_backup ? BackupNodeOf(slice) : OwnerOf(slice);

  storage::DiskLayout& dst_layout = *layout_refs_[static_cast<size_t>(dst_node)];
  DECLUST_ASSIGN_OR_RETURN(
      job.new_data, dst_layout.Allocate(moved.data_extent().num_pages));
  DECLUST_ASSIGN_OR_RETURN(
      job.new_idx_b, dst_layout.Allocate(moved.index_b_extent().num_pages));
  DECLUST_ASSIGN_OR_RETURN(
      job.new_idx_a, dst_layout.Allocate(moved.index_a_extent().num_pages));
  job.has_aux = berd_ != nullptr;
  if (job.has_aux) {
    const auto& aux = backup_copy ? aux_backup_extents_[static_cast<size_t>(
                                        slice)]
                                  : aux_extents_[static_cast<size_t>(slice)];
    DECLUST_ASSIGN_OR_RETURN(job.new_aux,
                             dst_layout.Allocate(aux.num_pages));
  }

  const auto copy_extent = [&](const storage::Extent& src_extent,
                               const storage::Extent& dst_extent) -> Status {
    if (src_extent.num_pages != dst_extent.num_pages) {
      return Status::Internal("migration source/target extents differ in size");
    }
    const auto& src_layout = *layout_refs_[static_cast<size_t>(job.src_node)];
    for (int64_t p = 0; p < src_extent.num_pages; ++p) {
      DECLUST_ASSIGN_OR_RETURN(auto src, src_layout.Resolve(src_extent, p));
      DECLUST_ASSIGN_OR_RETURN(auto dst, dst_layout.Resolve(dst_extent, p));
      job.pages.push_back(RebuildPage{job.src_node, src, dst});
    }
    return Status::OK();
  };
  DECLUST_RETURN_NOT_OK(copy_extent(from.data_extent(), job.new_data));
  DECLUST_RETURN_NOT_OK(copy_extent(from.index_b_extent(), job.new_idx_b));
  DECLUST_RETURN_NOT_OK(copy_extent(from.index_a_extent(), job.new_idx_a));
  if (job.has_aux) {
    DECLUST_RETURN_NOT_OK(copy_extent(
        read_backup ? aux_backup_extents_[static_cast<size_t>(slice)]
                    : aux_extents_[static_cast<size_t>(slice)],
        job.new_aux));
  }
  return job;
}

void SystemCatalog::CommitMigration(const MigrationJob& job) {
  assert(!owner_.empty() && "CommitMigration needs a placement-built catalog");
  const size_t s = static_cast<size_t>(job.slice);
  if (job.backup_copy) {
    backup_stores_[s]->Relocate(job.new_data, job.new_idx_b, job.new_idx_a);
    if (job.has_aux) aux_backup_extents_[s] = job.new_aux;
    backup_owner_[s] = job.dst_node;
  } else {
    stores_[s]->Relocate(job.new_data, job.new_idx_b, job.new_idx_a);
    if (job.has_aux) aux_extents_[s] = job.new_aux;
    owner_[s] = job.dst_node;
  }
}

}  // namespace declust::engine
