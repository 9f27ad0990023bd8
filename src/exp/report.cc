#include "src/exp/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <variant>
#include <vector>

#include "src/exp/columns.h"

namespace declust::exp {

void PrintThroughputTable(std::ostream& os, const SweepResult& result) {
  os << "== " << result.config.name << " ==\n";
  os << "workload: QA/QB mix over " << result.config.cardinality
     << " tuples, " << result.config.num_processors << " processors, "
     << (result.config.correlation >= 0.5 ? "HIGH" : "LOW")
     << " attribute correlation\n";
  for (const auto& curve : result.curves) {
    if (!curve.note.empty()) {
      os << "  " << curve.strategy << ": " << curve.note;
      if (!curve.points.empty()) {
        os << ", avg processors/query "
           << std::fixed << std::setprecision(2)
           << curve.points.back().avg_processors_used;
      }
      os << "\n";
    }
  }

  // Open sweeps are indexed by offered load (q/s), closed sweeps by MPL;
  // the closed header/rows stay byte-identical to the pre-open format.
  const bool open = !result.config.open.empty();
  os << std::setw(6) << (open ? "load" : "MPL");
  for (const auto& curve : result.curves) {
    os << std::setw(12) << (curve.strategy + " q/s");
  }
  for (const auto& curve : result.curves) {
    os << std::setw(14) << (curve.strategy + " ms");
  }
  os << "\n";

  const size_t rows =
      result.curves.empty() ? 0 : result.curves[0].points.size();
  for (size_t r = 0; r < rows; ++r) {
    if (open) {
      os << std::setw(6) << std::fixed << std::setprecision(0)
         << result.curves[0].points[r].offered_qps;
    } else {
      os << std::setw(6) << result.curves[0].points[r].mpl;
    }
    os << std::fixed << std::setprecision(1);
    for (const auto& curve : result.curves) {
      os << std::setw(12) << curve.points[r].throughput_qps;
    }
    for (const auto& curve : result.curves) {
      os << std::setw(14) << curve.points[r].mean_response_ms;
    }
    os << "\n";
  }

  // Each armed group's text block; none is armed in a plain closed sweep,
  // whose table stays the figure alone.
  std::vector<const ColumnGroup*> blocks;
  for (const ColumnGroup& group : ColumnGroups()) {
    if (group.report != nullptr && group.armed(result)) {
      blocks.push_back(&group);
    }
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const ColumnGroup* x, const ColumnGroup* y) {
              return x->report_order < y->report_order;
            });
  for (const ColumnGroup* group : blocks) group->report(os, result);
}

void PrintCsv(std::ostream& os, const SweepResult& result) {
  // A group's columns exist only when it is armed, so a plain failure-free
  // CSV keeps the pre-fault format. Phase columns pad every row to the
  // sweep's longest vector.
  struct Armed {
    const ColumnGroup* group;
    std::vector<size_t> phases;  // per PhaseColumn
  };
  std::vector<Armed> armed;
  for (const ColumnGroup& group : ColumnGroups()) {
    if (!group.armed(result)) continue;
    Armed a{&group, std::vector<size_t>(group.phases.size(), 0)};
    for (size_t c = 0; c < group.phases.size(); ++c) {
      for (const auto& curve : result.curves) {
        for (const auto& p : curve.points) {
          a.phases[c] = std::max(a.phases[c], group.phases[c].at(p)->size());
        }
      }
    }
    armed.push_back(std::move(a));
  }
  os << "figure,strategy,correlation";
  for (const Armed& a : armed) {
    for (const Column& c : a.group->columns) {
      if (c.csv != nullptr) os << ',' << c.csv;
    }
    for (size_t c = 0; c < a.phases.size(); ++c) {
      for (size_t ph = 0; ph < a.phases[c]; ++ph) {
        os << ',' << PhaseName(a.group->phases[c].csv, ph);
      }
    }
  }
  os << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << result.config.name << "," << curve.strategy << ","
         << result.config.correlation;
      for (const Armed& a : armed) {
        for (const Column& c : a.group->columns) {
          if (c.csv == nullptr) continue;
          os << ',';
          std::visit(
              [&](auto* v) {
                // A never-measured value prints as a well-defined blank,
                // never the -1 sentinel or a fabricated quantile.
                if (!c.csv_blank_if_negative || *v >= 0) os << *v;
              },
              c.at(p));
        }
        for (size_t c = 0; c < a.phases.size(); ++c) {
          const std::vector<double>& v = *a.group->phases[c].at(p);
          for (size_t ph = 0; ph < a.phases[c]; ++ph) {
            os << ',' << (ph < v.size() ? v[ph] : 0.0);
          }
        }
      }
      os << "\n";
    }
  }
}

void PrintGnuplotData(std::ostream& os, const SweepResult& result) {
  os << "# " << result.config.name << " (correlation "
     << result.config.correlation << ")\n";
  // Open sweeps plot against offered load; closed sweeps against MPL.
  const bool open = !result.config.open.empty();
  os << "# columns: " << (open ? "offered_qps" : "mpl")
     << " throughput_qps ci95 mean_response_ms p95_ms\n";
  for (const auto& curve : result.curves) {
    os << "# strategy: " << curve.strategy << "\n";
    for (const auto& p : curve.points) {
      if (open) {
        os << p.offered_qps;
      } else {
        os << p.mpl;
      }
      os << " " << p.throughput_qps << " " << p.throughput_ci95
         << " " << p.mean_response_ms << " " << p.p95_response_ms << "\n";
    }
    os << "\n\n";
  }
}

std::string RatioSummary(const SweepResult& result, const std::string& a,
                         const std::string& b) {
  const StrategyCurve* ca = nullptr;
  const StrategyCurve* cb = nullptr;
  for (const auto& curve : result.curves) {
    if (curve.strategy == a) ca = &curve;
    if (curve.strategy == b) cb = &curve;
  }
  std::ostringstream os;
  if (ca == nullptr || cb == nullptr || ca->points.empty() ||
      cb->points.empty() || cb->points.back().throughput_qps <= 0) {
    os << a << "/" << b << " ratio unavailable";
    return os.str();
  }
  os << std::fixed << std::setprecision(2);
  os << a << "/" << b << " throughput ratio at MPL "
     << ca->points.back().mpl << ": "
     << ca->points.back().throughput_qps / cb->points.back().throughput_qps;
  return os.str();
}

}  // namespace declust::exp
