// Hill-climbing slice-swap rebalancer (paper section 4).
//
// Under highly correlated partitioning attribute values the tuples
// concentrate near the grid diagonal, so an assignment that equalizes
// *entries* per processor badly skews *tuples* per processor. The paper's
// heuristic: find the processors with the most and the fewest tuples, then
// swap the assignment of the pair of slices (rows or columns) that narrows
// that gap the most; repeat (hill climbing). Swapping two slices of a
// dimension permutes assignments within every line, so the set of distinct
// processors in each slice of every dimension is unchanged.
#pragma once

#include <cstdint>
#include <vector>

namespace declust::decluster {

struct RebalanceResult {
  int swaps = 0;
  int64_t spread_before = 0;  // max - min tuples per processor
  int64_t spread_after = 0;
};

/// Improves `assignment` (cell -> processor, row-major over `dims`) in
/// place, using `cell_weights` (tuples per cell).
///
/// `restrict_to_dim` (optional) limits swaps to slices of one dimension.
/// MAGIC restricts to the coarsest dimension: under attribute correlation
/// the non-empty cells of one coarse slice form a group that a query on
/// that attribute visits together, and swapping whole coarse slices moves
/// such groups atomically — per-query processor counts stay small, which
/// fine-dimension swaps would destroy.
RebalanceResult HillClimbRebalance(const std::vector<int>& dims,
                                   const std::vector<int64_t>& cell_weights,
                                   int num_nodes, std::vector<int>* assignment,
                                   int max_swaps = 10'000,
                                   int restrict_to_dim = -1);

}  // namespace declust::decluster
