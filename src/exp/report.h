// Plain-text reporting of sweep results in the shape of the paper's
// figures (throughput vs multiprogramming level, one column per strategy).
#pragma once

#include <iosfwd>
#include <string>

#include "src/exp/experiment.h"

namespace declust::exp {

/// Prints a figure-style table: one row per MPL (offered load for open
/// runs), one throughput column per strategy, plus per-strategy notes (grid
/// shape, avg processors), then the text block of every armed column group
/// (components, open, faults, recovery, resize, control; see columns.h).
void PrintThroughputTable(std::ostream& os, const SweepResult& result);

/// Prints the same data as CSV: figure, strategy and correlation, then the
/// columns of every armed column group in table order (columns.h).
void PrintCsv(std::ostream& os, const SweepResult& result);

/// One-line comparison of two strategies at the highest MPL, e.g.
/// "MAGIC/BERD throughput ratio at MPL 64: 1.45".
std::string RatioSummary(const SweepResult& result, const std::string& a,
                         const std::string& b);

/// Gnuplot-ready data blocks (one block per strategy, blank-line
/// separated; columns: mpl, throughput, ci95, mean_response, p95). Plot
/// with `plot 'file' index 0 using 1:2 with linespoints title 'range', ...`.
void PrintGnuplotData(std::ostream& os, const SweepResult& result);

}  // namespace declust::exp
