#include "src/decluster/magic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace declust::decluster {

Result<std::unique_ptr<MagicPartitioning>> MagicPartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs,
    const workload::Workload& workload, int num_nodes, MagicOptions options) {
  const int k = static_cast<int>(schema_attrs.size());
  if (k < 1) return Status::InvalidArgument("no partitioning attributes");
  if (num_nodes < 1) return Status::InvalidArgument("num_nodes < 1");
  if (relation.cardinality() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  for (storage::AttrId a : schema_attrs) {
    if (a < 0 || a >= relation.schema().num_attributes()) {
      return Status::OutOfRange("partitioning attribute out of range");
    }
  }

  auto part = std::unique_ptr<MagicPartitioning>(new MagicPartitioning());
  part->options_ = options;

  // Planning: equations 1-4.
  DECLUST_ASSIGN_OR_RETURN(
      part->plan_, ComputeMagicPlan(workload, relation.cardinality(),
                                    options.cost_model, k));

  // Grid-file construction: bucket capacity FC, split policy from
  // Fraction_Splits.
  grid::GridFileOptions gopts;
  gopts.bucket_capacity =
      static_cast<int>(std::max<int64_t>(2, part->plan_.fragment_cardinality));
  gopts.split_weights = part->plan_.fraction_splits;
  gopts.max_cells = std::max<int64_t>(
      4096, options.max_grid_cells_factor * relation.cardinality() /
                std::max<int64_t>(1, part->plan_.fragment_cardinality));
  // Anchor the buddy splits on the actual attribute domains so that
  // identically distributed attributes get aligned scales.
  for (storage::AttrId a : schema_attrs) {
    DECLUST_ASSIGN_OR_RETURN(auto range, relation.AttrRange(a));
    gopts.domain_lo.push_back(range.first);
    gopts.domain_hi.push_back(range.second + 1);
  }
  part->domain_lo_ = gopts.domain_lo;
  part->domain_hi_ = gopts.domain_hi;
  part->grid_ = std::make_unique<grid::GridFile>(k, gopts);

  const int64_t n = relation.cardinality();
  std::vector<Value> point(static_cast<size_t>(k));
  auto load_point = [&](RecordId rid) {
    for (int d = 0; d < k; ++d) {
      point[static_cast<size_t>(d)] =
          relation.value(rid, schema_attrs[static_cast<size_t>(d)]);
    }
  };
  for (int64_t i = 0; i < n; ++i) {
    const auto rid = static_cast<RecordId>(i);
    load_point(rid);
    DECLUST_RETURN_NOT_OK(part->grid_->Insert(point, rid));
  }

  // Each tuple's cell in the finished directory, computed once: it gives
  // the cell weights (tuples per cell) now and the tuple's home below.
  std::vector<int64_t> tuple_cell(static_cast<size_t>(n));
  part->cell_weights_.assign(
      static_cast<size_t>(part->grid_->directory().num_cells()), 0);
  for (int64_t i = 0; i < n; ++i) {
    load_point(static_cast<RecordId>(i));
    const int64_t cell = part->grid_->CellOfPoint(point);
    tuple_cell[static_cast<size_t>(i)] = cell;
    ++part->cell_weights_[static_cast<size_t>(cell)];
  }

  // Assignment of directory entries to processors.
  const std::vector<int>& dims = part->grid_->directory().dims();
  DECLUST_ASSIGN_OR_RETURN(
      part->cell_nodes_, TiledAssignment(dims, num_nodes, part->plan_.mi));

  // Correlation-aware rebalancing (section 4). Slice swaps trade load
  // balance against query locality (a swap can scatter the group of cells
  // one query visits). [Gha90]'s exact heuristic is unavailable, so we try
  // three candidates — no rebalance, swaps restricted to the coarsest
  // dimension (which moves correlated cell groups atomically), and
  // unrestricted swaps — and keep the one with the best bottleneck
  // throughput proxy: 1 / (max-load fraction x I/O per average query).
  if (options.rebalance) {
    int coarse_dim = 0;
    for (int d = 1; d < k; ++d) {
      if (dims[static_cast<size_t>(d)] <
          dims[static_cast<size_t>(coarse_dim)]) {
        coarse_dim = d;
      }
    }
    std::vector<int> best_assignment = part->cell_nodes_;
    RebalanceResult best_result;  // zero swaps = "no rebalance" candidate
    double best_score = part->ScoreAssignment(best_assignment, num_nodes,
                                              workload, schema_attrs.size());
    for (int restrict_dim : {coarse_dim, -1}) {
      std::vector<int> candidate = part->cell_nodes_;
      RebalanceResult r = HillClimbRebalance(
          dims, part->cell_weights_, num_nodes, &candidate,
          options.max_rebalance_swaps, restrict_dim);
      const double score = part->ScoreAssignment(candidate, num_nodes,
                                                 workload,
                                                 schema_attrs.size());
      if (score < best_score) {
        best_score = score;
        best_assignment = std::move(candidate);
        best_result = r;
      }
    }
    part->cell_nodes_ = std::move(best_assignment);
    part->rebalance_result_ = best_result;
  }

  // Final tuple placement follows the directory.
  std::vector<int> home(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    home[static_cast<size_t>(i)] = part->cell_nodes_[static_cast<size_t>(
        tuple_cell[static_cast<size_t>(i)])];
  }
  part->SetAssignment(num_nodes, std::move(home));
  return part;
}

int MagicPartitioning::NodesForPredicate(
    const Predicate& q, const std::vector<int>& cell_nodes) const {
  const int k = grid_->num_dims();
  std::vector<Value> lo(static_cast<size_t>(k),
                        std::numeric_limits<Value>::min());
  std::vector<Value> hi(static_cast<size_t>(k),
                        std::numeric_limits<Value>::max());
  lo[static_cast<size_t>(q.attr)] = q.lo;
  hi[static_cast<size_t>(q.attr)] = q.hi;
  std::vector<int> nodes;
  for (int64_t cell : grid_->CellsOverlapping(lo, hi)) {
    if (cell_weights_[static_cast<size_t>(cell)] == 0) continue;
    nodes.push_back(cell_nodes[static_cast<size_t>(cell)]);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return static_cast<int>(nodes.size());
}

double MagicPartitioning::ScoreAssignment(
    const std::vector<int>& cell_nodes, int num_nodes,
    const workload::Workload& workload, int k) const {
  // Load balance: the bottleneck processor's share of the tuples.
  std::vector<int64_t> loads(static_cast<size_t>(num_nodes), 0);
  int64_t total = 0;
  for (size_t c = 0; c < cell_nodes.size(); ++c) {
    loads[static_cast<size_t>(cell_nodes[c])] += cell_weights_[c];
    total += cell_weights_[c];
  }
  int64_t max_load = 0;
  for (int64_t l : loads) max_load = std::max(max_load, l);
  const double max_frac =
      total > 0 ? static_cast<double>(max_load) / static_cast<double>(total)
                : 1.0;

  // I/O pages per average query: ~2 index pages per contacted processor
  // plus the data pages of the result, sampled deterministically across
  // the domain.
  double avg_io = 0;
  double freq_total = 0;
  constexpr int kSamples = 16;
  for (const auto& cls : workload.classes) {
    if (cls.attr < 0 || cls.attr >= k || cls.frequency <= 0) continue;
    const auto au = static_cast<size_t>(cls.attr);
    const Value dlo = domain_lo_[au];
    const Value dhi = domain_hi_[au];
    const Value width = std::max<Value>(1, cls.exact ? 1 : cls.tuples);
    double procs = 0;
    for (int s = 0; s < kSamples; ++s) {
      const Value lo =
          dlo + (dhi - dlo - width) * s / kSamples;
      procs += NodesForPredicate({cls.attr, lo, lo + width - 1}, cell_nodes);
    }
    procs /= kSamples;
    const double data_pages =
        std::max(1.0, static_cast<double>(cls.tuples) / 36.0);
    avg_io += cls.frequency * (procs * 2.0 + data_pages);
    freq_total += cls.frequency;
  }
  if (freq_total > 0) avg_io /= freq_total;
  return max_frac * std::max(avg_io, 1.0);
}

void MagicPartitioning::SitesForInto(const Predicate& q,
                                     PlanSites* out) const {
  const int k = grid_->num_dims();
  std::vector<Value> lo(static_cast<size_t>(k),
                        std::numeric_limits<Value>::min());
  std::vector<Value> hi(static_cast<size_t>(k),
                        std::numeric_limits<Value>::max());
  lo[static_cast<size_t>(q.attr)] = q.lo;
  hi[static_cast<size_t>(q.attr)] = q.hi;

  out->clear();
  std::vector<int>& nodes = out->data_nodes;
  for (int64_t cell : grid_->CellsOverlapping(lo, hi)) {
    // The optimizer skips empty fragments: the grid directory records the
    // cardinality of every fragment, so a processor holding only empty
    // entries of the predicate's region is never contacted (section 4).
    if (cell_weights_[static_cast<size_t>(cell)] == 0) continue;
    nodes.push_back(cell_nodes_[static_cast<size_t>(cell)]);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
}

double MagicPartitioning::PlanningCpuMs(const Predicate& q) const {
  // The simulated optimizer probes the directory the way a grid file is
  // actually searched: binary search of each linear scale, then one visit
  // per cell the predicate's box overlaps. (Equation 1's planning model
  // conservatively assumes a linear scan of half the directory; that model
  // is used for sizing M, not for the simulated per-query cost.)
  const int k = grid_->num_dims();
  double entries = 0;
  double scale_probes = 0;
  double box = 1;
  for (int d = 0; d < k; ++d) {
    const int slices = grid_->scale(d).num_slices();
    scale_probes += std::ceil(std::log2(static_cast<double>(slices) + 1));
    if (d == q.attr) {
      auto [first, last] = grid_->scale(d).SlicesOverlapping(q.lo, q.hi);
      box *= static_cast<double>(last - first + 1);
    } else {
      box *= static_cast<double>(slices);
    }
  }
  entries = scale_probes + box;
  return entries * options_.cost_model.dir_entry_search_ms;
}

}  // namespace declust::decluster
