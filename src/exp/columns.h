// Metric column groups. Every per-point metric of a sweep is registered
// once, in one ordered table of groups: base, faults, components, recovery,
// resize, open and control. A column names its SweepPoint field, its CSV
// header, its manifest digest token and how a point folds its
// replications; a group says when the sweep reports it and carries its
// text block. Aggregation, the digest key, the CSV and the text report are
// loops over this table, so a new run mode is one group here plus the code
// in RunSweepPointRep that fills its fields.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "src/exp/experiment.h"

namespace declust::exp {

/// How AggregatePoint folds a column across a point's replications. An
/// integer field rounds the folded value to the nearest integer.
enum class Fold {
  kMean,
  /// Mean over the replications with a value >= 0; -1 when none has one (a
  /// phase boundary never reached, an idle window's p99).
  kMeanReached,
  /// Max across replications: a bound one replication breached must not be
  /// averaged away.
  kMax,
  /// 95% confidence half-width of the `of` column across replications.
  kCi95,
  /// Replication 0's value.
  kRep0,
};

/// The SweepPoint field behind a column.
using Slot = std::variant<const double*, const int64_t*, const int*>;

/// \brief One scalar metric column.
struct Column {
  const char* csv;  ///< CSV header; nullptr = not in the CSV
  /// Digest text before the value: "|key=" opens a token, "/" continues
  /// the previous one; nullptr = not in the digest.
  const char* digest;
  Fold fold;
  Slot (*at)(const SweepPoint&);
  Slot (*of)(const SweepPoint&) = nullptr;  ///< kCi95's sample column
  /// The CSV prints an empty field for a negative (never measured) value.
  bool csv_blank_if_negative = false;
  /// Digested after the group's other scalar columns.
  bool digest_last = false;
};

/// \brief A per-phase column: one value per reporting phase, folded
/// element-wise by mean. A group's phase columns follow its scalar columns
/// in both the CSV and the digest.
struct PhaseColumn {
  /// CSV header pattern ('#' = phase). Every row pads to the sweep's
  /// longest vector with 0, and a column's phases are adjacent.
  const char* csv;
  /// Digest pattern ('#' = phase). The digest interleaves a group's phase
  /// columns phase by phase.
  const char* digest;
  const std::vector<double>* (*at)(const SweepPoint&);
};

/// \brief A run mode's columns, registered once.
struct ColumnGroup {
  /// True when the sweep reports the group: its CSV columns, its digest
  /// tokens and its text block.
  bool (*armed)(const SweepResult&);
  /// Digested even when not armed (the fault counters, all zero in a
  /// failure-free run).
  bool always_digested;
  std::vector<Column> columns;
  std::vector<PhaseColumn> phases = {};
  /// Text block printed under the throughput table; nullptr = none.
  void (*report)(std::ostream&, const SweepResult&) = nullptr;
  /// Blocks print in ascending order. It is not the column order: each
  /// block kept its place when its mode was added.
  int report_order = 0;
};

/// The groups in column order.
const std::vector<ColumnGroup>& ColumnGroups();

/// Folds one point's replications (in rep order, so the floating-point
/// result is identical for any job count) column by column.
/// `num_reps` >= 1.
SweepPoint AggregatePoint(const SweepPoint* reps, int num_reps);

/// Canonical rendering of one aggregated point, digested into the run
/// manifest so a CSV artifact can be matched to the manifest that produced
/// it. %.17g round-trips doubles exactly.
std::string PointDigestKey(const SweepResult& result,
                           const std::string& strategy, const SweepPoint& p);

/// A PhaseColumn pattern with its '#' replaced by `phase`.
std::string PhaseName(const char* pattern, size_t phase);

/// The level a point ran at, as reports print it: "MPL 16", or
/// "40.0 q/s offered" for an open-system run.
std::string LevelLabel(const ExperimentConfig& config, const SweepPoint& p);

}  // namespace declust::exp
