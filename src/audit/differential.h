// Differential harness: digest comparison across run variants.
//
// A sweep point's aggregated metrics are digested (FNV-1a over the
// canonical %.17g row rendering, the same digest the run manifest records).
// The differential check re-runs one sweep point under variants that must
// not change results — serial vs parallel workers, audit off vs on, and an
// armed-but-inactive fault plan (chained backups built, no event ever
// fires) — and asserts every variant reproduces its reference digest
// bit-for-bit: the baseline, or, for a variant that legitimately changes
// results, a twin run of that same variant. src/exp/runner owns the execution (RunAuditDifferential);
// this header owns the report so the comparison logic is testable without
// running simulations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace declust::audit {

/// \brief One executed variant of the differential check.
struct VariantDigest {
  std::string label;    ///< e.g. "jobs=1", "jobs=4", "fault-plan-inactive"
  uint64_t digest = 0;  ///< FNV-1a of the point's canonical result row
  /// Index of the earlier variant whose digest this one must reproduce: 0
  /// is the baseline. A variant naming its own index is a new reference
  /// that is compared against nothing itself.
  size_t reference = 0;
};

/// \brief Digest comparison of every variant against its reference.
struct DifferentialReport {
  /// The sweep point that was re-run, e.g. "range/mpl=4".
  std::string point;
  std::vector<VariantDigest> variants;

  /// Variants whose digest differs from their reference's; empty when
  /// consistent.
  std::vector<std::string> Mismatches() const;
  bool ok() const { return variants.size() <= 1 || Mismatches().empty(); }
  /// e.g. "differential range/mpl=4: 4 variants, all digests match".
  std::string Summary() const;
};

}  // namespace declust::audit
