#include "src/exp/columns.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "src/common/stats.h"

namespace declust::exp {
namespace {

// --- Text blocks, printed under the throughput table when armed ----------

/// Component breakdown at the top level.
void ComponentsReport(std::ostream& os, const SweepResult& result) {
  os << "components (mean ms/query @ top MPL):\n";
  for (const auto& curve : result.curves) {
    if (curve.points.empty()) continue;
    const SweepPoint& p = curve.points.back();
    os << "  " << curve.strategy << ": disk wait " << std::fixed
       << std::setprecision(1) << p.comp_disk_wait_ms << ", disk service "
       << p.comp_disk_service_ms << ", cpu " << p.comp_cpu_ms << ", network "
       << p.comp_network_ms << ", queue " << p.comp_queue_ms
       << ", unattributed " << p.comp_unattributed_ms << "\n";
  }
}

/// Open-system summary at the top offered load: arrivals vs completions and
/// the shed count make saturation visible (throughput flattens while
/// arrivals keep climbing). p99 of an idle window prints as a blank.
void OpenReport(std::ostream& os, const SweepResult& result) {
  os << "open system: " << result.config.open << "\n";
  for (const auto& curve : result.curves) {
    if (curve.points.empty()) continue;
    const SweepPoint& p = curve.points.back();
    os << "  " << curve.strategy << " @ " << LevelLabel(result.config, p)
       << ": arrivals " << p.arrivals << ", shed " << p.shed << ", p99 ";
    if (p.p99_response_ms >= 0) {
      os << std::fixed << std::setprecision(1) << p.p99_response_ms << " ms";
    } else {
      os << "-";
    }
    os << "\n";
  }
}

/// Fault-handling counters at the top level.
void FaultsReport(std::ostream& os, const SweepResult& result) {
  os << "faults: " << result.config.faults << "\n";
  for (const auto& curve : result.curves) {
    if (curve.points.empty()) continue;
    const SweepPoint& p = curve.points.back();
    os << "  " << curve.strategy << " @ " << LevelLabel(result.config, p)
       << ": imbalance " << std::fixed << std::setprecision(2)
       << p.disk_imbalance << ", io_errors " << p.io_errors << ", retries "
       << p.retries << ", failovers " << p.failovers << ", timeouts "
       << p.timeouts << ", failed " << p.failed_queries << "\n";
  }
}

/// Per-phase throughput / mean response rows of one point.
void PrintPhases(std::ostream& os, const std::vector<std::string>& names,
                 const double* qps, const double* resp_ms) {
  for (size_t ph = 0; ph < names.size(); ++ph) {
    os << "    " << std::setw(10) << names[ph] << ": " << std::fixed
       << std::setprecision(1) << std::setw(8) << qps[ph] << " q/s, "
       << std::setw(8) << resp_ms[ph] << " ms mean response\n";
  }
}

/// Per point: the fail -> degraded -> rebuilding -> restored boundary
/// timestamps, rebuild accounting and per-phase columns.
void RecoveryReport(std::ostream& os, const SweepResult& result) {
  static const std::vector<std::string> kPhases = {"normal", "degraded",
                                                   "rebuilding", "restored"};
  os << "recovery: " << result.config.recovery << "\n";
  const auto print_ms = [&os](double v) {
    if (v < 0) {
      os << "never";
    } else {
      os << std::fixed << std::setprecision(1) << v << "ms";
    }
  };
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result.config, p)
         << ": fail ";
      print_ms(p.fail_ms);
      os << ", rebuild start ";
      print_ms(p.rebuild_start_ms);
      os << ", restored ";
      print_ms(p.restored_ms);
      os << ", pages " << p.rebuild_pages << ", rebuilds "
         << p.rebuilds_completed << " ok / " << p.rebuilds_aborted
         << " aborted\n";
      PrintPhases(os, kPhases, p.phase_qps, p.phase_resp_ms);
    }
  }
}

/// Per point: migration accounting and the steady / migrating phases around
/// each membership event (2K+1 phases for K events).
void ResizeReport(std::ostream& os, const SweepResult& result) {
  os << "resize: " << result.config.resize << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result.config, p)
         << ": " << p.migrations << " migrations (" << p.migrations_aborted
         << " aborted), " << p.pages_migrated << " pages, "
         << p.migration_redirects << " redirects, " << p.rebalance_moves
         << " rebalance moves, " << p.final_members << " final members\n";
      std::vector<std::string> names;
      for (size_t ph = 0; ph < p.resize_phase_qps.size(); ++ph) {
        names.push_back((ph % 2 == 0 ? "steady" : "migrate") +
                        std::to_string(ph / 2));
      }
      PrintPhases(os, names, p.resize_phase_qps.data(),
                  p.resize_phase_resp_ms.data());
    }
  }
}

/// Per point: the controller's counters, then rep 0's decision timeline in
/// simulated-time order with the observation that triggered each action
/// and the state it left behind.
void ControlReport(std::ostream& os, const SweepResult& result) {
  os << "control: " << result.config.control << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result.config, p)
         << ": " << p.ctl_windows << " windows (" << p.ctl_slo_violations
         << " over SLO), scale +" << p.ctl_scale_outs << "/-"
         << p.ctl_scale_ins << " to " << p.ctl_final_members
         << " members, pause/resume " << p.ctl_pauses << "/"
         << p.ctl_resumes << ", cap -" << p.ctl_tightens << "/+"
         << p.ctl_relaxes << " (" << p.ctl_shed
         << " controller sheds), " << p.ctl_migrations
         << " migrations / " << p.ctl_pages_migrated << " pages (peak "
         << p.ctl_peak_concurrent << " concurrent, "
         << p.ctl_budget_throttled << " budget-throttled, max budget delay "
         << std::fixed << std::setprecision(1) << p.ctl_budget_max_delay_ms
         << " ms)\n";
      for (const auto& d : p.ctl_decisions) {
        os << "    " << std::fixed << std::setprecision(0) << std::setw(8)
           << d.at_ms << " ms  " << std::setw(10) << std::left << d.kind
           << std::right << " observed " << std::fixed
           << std::setprecision(1) << std::setw(8) << d.observed_ms
           << " ms -> " << d.members << " members";
        if (d.cap >= 0) os << ", cap " << d.cap;
        os << "\n";
      }
      if (p.ctl_decisions.empty()) {
        os << "    (no actuations: the SLO held without intervention)\n";
      }
    }
  }
}

// --- The table ------------------------------------------------------------

// The SweepPoint field behind a column; `f` may index an array.
#define DECLUST_FIELD(f) [](const SweepPoint& p) -> Slot { return &p.f; }
#define DECLUST_PHASES(f) [](const SweepPoint& p) { return &p.f; }

std::vector<ColumnGroup> MakeGroups() {
  using F = Fold;
  return {
      // base
      {[](const SweepResult&) { return true; },
       false,
       {
           {"mpl", "|mpl=", F::kRep0, DECLUST_FIELD(mpl)},
           {"throughput_qps", "|qps=", F::kMean,
            DECLUST_FIELD(throughput_qps)},
           {"throughput_ci95", nullptr, F::kCi95,
            DECLUST_FIELD(throughput_ci95), DECLUST_FIELD(throughput_qps)},
           {"mean_response_ms", "|resp=", F::kMean,
            DECLUST_FIELD(mean_response_ms)},
           {"mean_response_ci95", nullptr, F::kCi95,
            DECLUST_FIELD(mean_response_ci95),
            DECLUST_FIELD(mean_response_ms)},
           {"p95_response_ms", "|p95=", F::kMean,
            DECLUST_FIELD(p95_response_ms)},
           {"avg_processors", "|procs=", F::kMean,
            DECLUST_FIELD(avg_processors_used)},
           {"disk_utilization", "|disk=", F::kMean,
            DECLUST_FIELD(disk_utilization)},
           {"cpu_utilization", "|cpu=", F::kMean,
            DECLUST_FIELD(cpu_utilization)},
           {"completed", "|done=", F::kMean, DECLUST_FIELD(completed)},
       }},
      // faults
      {[](const SweepResult& r) { return !r.config.faults.empty(); },
       true,
       {
           {"disk_imbalance", "|imb=", F::kMean,
            DECLUST_FIELD(disk_imbalance)},
           {"io_errors", "|f=", F::kMean, DECLUST_FIELD(io_errors)},
           {"retries", "/", F::kMean, DECLUST_FIELD(retries)},
           {"timeouts", "/", F::kMean, DECLUST_FIELD(timeouts)},
           {"failovers", "/", F::kMean, DECLUST_FIELD(failovers)},
           {"failed_queries", "/", F::kMean, DECLUST_FIELD(failed_queries)},
       },
       {},
       FaultsReport,
       3},
      // components
      {[](const SweepResult& r) { return r.has_components; },
       false,
       {
           {"disk_wait_ms", nullptr, F::kMean,
            DECLUST_FIELD(comp_disk_wait_ms)},
           {"disk_service_ms", nullptr, F::kMean,
            DECLUST_FIELD(comp_disk_service_ms)},
           {"cpu_ms", nullptr, F::kMean, DECLUST_FIELD(comp_cpu_ms)},
           {"network_ms", nullptr, F::kMean, DECLUST_FIELD(comp_network_ms)},
           {"queue_ms", nullptr, F::kMean, DECLUST_FIELD(comp_queue_ms)},
           {"unattributed_ms", nullptr, F::kMean,
            DECLUST_FIELD(comp_unattributed_ms)},
       },
       {},
       ComponentsReport,
       1},
      // recovery
      {[](const SweepResult& r) { return !r.config.recovery.empty(); },
       false,
       {
           {"fail_ms", "|rec=", F::kMeanReached, DECLUST_FIELD(fail_ms)},
           {"rebuild_start_ms", "/", F::kMeanReached,
            DECLUST_FIELD(rebuild_start_ms)},
           {"restored_ms", "/", F::kMeanReached, DECLUST_FIELD(restored_ms)},
           {"rebuild_pages", "|pages=", F::kMean,
            DECLUST_FIELD(rebuild_pages), nullptr, false, true},
           {"normal_qps", "|pq=", F::kMean, DECLUST_FIELD(phase_qps[0])},
           {"degraded_qps", "/", F::kMean, DECLUST_FIELD(phase_qps[1])},
           {"rebuilding_qps", "/", F::kMean, DECLUST_FIELD(phase_qps[2])},
           {"restored_qps", "/", F::kMean, DECLUST_FIELD(phase_qps[3])},
           {"normal_resp_ms", "|pr=", F::kMean,
            DECLUST_FIELD(phase_resp_ms[0])},
           {"degraded_resp_ms", "/", F::kMean,
            DECLUST_FIELD(phase_resp_ms[1])},
           {"rebuilding_resp_ms", "/", F::kMean,
            DECLUST_FIELD(phase_resp_ms[2])},
           {"restored_resp_ms", "/", F::kMean,
            DECLUST_FIELD(phase_resp_ms[3])},
           {nullptr, "|rb=", F::kMean, DECLUST_FIELD(rebuilds_completed),
            nullptr, false, true},
           {nullptr, "/", F::kMean, DECLUST_FIELD(rebuilds_aborted), nullptr,
            false, true},
       },
       {},
       RecoveryReport,
       4},
      // resize
      {[](const SweepResult& r) { return !r.config.resize.empty(); },
       false,
       {
           {"migrations", "|rz=", F::kMean, DECLUST_FIELD(migrations)},
           {"migrations_aborted", "/", F::kMean,
            DECLUST_FIELD(migrations_aborted)},
           {"pages_migrated", "/", F::kMean, DECLUST_FIELD(pages_migrated)},
           {"migration_redirects", "/", F::kMean,
            DECLUST_FIELD(migration_redirects)},
           {"rebalance_moves", "/", F::kMean, DECLUST_FIELD(rebalance_moves)},
           {"final_members", "|mem=", F::kMean, DECLUST_FIELD(final_members)},
       },
       {
           {"rz_phase#_qps", "|z#=", DECLUST_PHASES(resize_phase_qps)},
           {"rz_phase#_resp_ms", "/", DECLUST_PHASES(resize_phase_resp_ms)},
       },
       ResizeReport,
       5},
      // open
      {[](const SweepResult& r) { return !r.config.open.empty(); },
       false,
       {
           {"offered_qps", "|open=", F::kMean, DECLUST_FIELD(offered_qps)},
           {"arrivals", "|arr=", F::kMean, DECLUST_FIELD(arrivals)},
           {"shed", "|shed=", F::kMean, DECLUST_FIELD(shed)},
           {"p99_response_ms", "|p99=", F::kMeanReached,
            DECLUST_FIELD(p99_response_ms), nullptr, true},
       },
       {},
       OpenReport,
       2},
      // control. The decision timeline (ctl_decisions) is no column:
      // AggregatePoint keeps rep 0's, and only the text block prints it.
      {[](const SweepResult& r) { return !r.config.control.empty(); },
       false,
       {
           {"ctl_windows", "|ctl=", F::kMean, DECLUST_FIELD(ctl_windows)},
           {"ctl_slo_violations", "/", F::kMean,
            DECLUST_FIELD(ctl_slo_violations)},
           {"ctl_scale_outs", "|act=", F::kMean,
            DECLUST_FIELD(ctl_scale_outs)},
           {"ctl_scale_ins", "/", F::kMean, DECLUST_FIELD(ctl_scale_ins)},
           {"ctl_pauses", "/", F::kMean, DECLUST_FIELD(ctl_pauses)},
           {"ctl_resumes", "/", F::kMean, DECLUST_FIELD(ctl_resumes)},
           {"ctl_tightens", "/", F::kMean, DECLUST_FIELD(ctl_tightens)},
           {"ctl_relaxes", "/", F::kMean, DECLUST_FIELD(ctl_relaxes)},
           {"ctl_shed", "|cshed=", F::kMean, DECLUST_FIELD(ctl_shed)},
           {"ctl_migrations", "|cmig=", F::kMean,
            DECLUST_FIELD(ctl_migrations)},
           {"ctl_pages_migrated", "/", F::kMean,
            DECLUST_FIELD(ctl_pages_migrated)},
           {"ctl_final_members", "/", F::kMean,
            DECLUST_FIELD(ctl_final_members)},
           {"ctl_peak_concurrent", "/", F::kMax,
            DECLUST_FIELD(ctl_peak_concurrent)},
           {"ctl_budget_throttled", "|bud=", F::kMean,
            DECLUST_FIELD(ctl_budget_throttled)},
           {"ctl_budget_max_delay_ms", "/", F::kMax,
            DECLUST_FIELD(ctl_budget_max_delay_ms)},
       },
       {},
       ControlReport,
       6},
  };
}

#undef DECLUST_FIELD
#undef DECLUST_PHASES

// --- Slot access ----------------------------------------------------------

double Read(const Slot& slot) {
  return std::visit([](auto* v) { return static_cast<double>(*v); }, slot);
}

/// Writes a field of `point`, which must be non-const (the accessors only
/// hand out const pointers).
void Store(SweepPoint* point, Slot (*at)(const SweepPoint&), double value) {
  std::visit(
      [value](auto* v) {
        using T = std::remove_const_t<std::remove_pointer_t<decltype(v)>>;
        T& field = *const_cast<T*>(v);
        if constexpr (std::is_same_v<T, double>) {
          field = value;
        } else {
          field = static_cast<T>(std::llround(value));
        }
      },
      at(*point));
}

/// %.17g round-trips a double exactly.
std::string DigestValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string DigestValue(const Slot& slot) {
  if (const double* const* d = std::get_if<const double*>(&slot)) {
    return DigestValue(**d);
  }
  return std::visit([](auto* v) { return std::to_string(*v); }, slot);
}

}  // namespace

const std::vector<ColumnGroup>& ColumnGroups() {
  static const std::vector<ColumnGroup> groups = MakeGroups();
  return groups;
}

SweepPoint AggregatePoint(const SweepPoint* reps, int num_reps) {
  // Starting from rep 0 covers the kRep0 columns and the decision timeline.
  SweepPoint point = reps[0];
  for (const ColumnGroup& group : ColumnGroups()) {
    for (const Column& c : group.columns) {
      if (c.fold == Fold::kRep0) continue;
      Accumulator acc;
      for (int r = 0; r < num_reps; ++r) {
        const double v = Read((c.fold == Fold::kCi95 ? c.of : c.at)(reps[r]));
        if (c.fold != Fold::kMeanReached || v >= 0) acc.Add(v);
      }
      double folded = acc.mean();
      if (c.fold == Fold::kMeanReached && acc.empty()) folded = -1;
      if (c.fold == Fold::kMax) folded = std::max(0.0, acc.max());
      if (c.fold == Fold::kCi95) folded = acc.ConfidenceHalfWidth95();
      Store(&point, c.at, folded);
    }
    for (const PhaseColumn& c : group.phases) {
      std::vector<Accumulator> acc;
      for (int r = 0; r < num_reps; ++r) {
        const std::vector<double>& v = *c.at(reps[r]);
        if (acc.size() < v.size()) acc.resize(v.size());
        for (size_t i = 0; i < v.size(); ++i) acc[i].Add(v[i]);
      }
      auto& out = const_cast<std::vector<double>&>(*c.at(point));
      out.clear();
      for (const Accumulator& a : acc) out.push_back(a.mean());
    }
  }
  return point;
}

std::string PointDigestKey(const SweepResult& result,
                           const std::string& strategy, const SweepPoint& p) {
  std::string key = strategy;
  for (const ColumnGroup& group : ColumnGroups()) {
    if (!group.always_digested && !group.armed(result)) continue;
    for (const bool last : {false, true}) {
      for (const Column& c : group.columns) {
        if (c.digest == nullptr || c.digest_last != last) continue;
        key += c.digest;
        key += DigestValue(c.at(p));
      }
    }
    const size_t phases =
        group.phases.empty() ? 0 : group.phases.front().at(p)->size();
    for (size_t i = 0; i < phases; ++i) {
      for (const PhaseColumn& c : group.phases) {
        key += PhaseName(c.digest, i);
        key += DigestValue((*c.at(p))[i]);
      }
    }
  }
  return key;
}

std::string PhaseName(const char* pattern, size_t phase) {
  std::string name = pattern;
  const size_t at = name.find('#');
  if (at != std::string::npos) name.replace(at, 1, std::to_string(phase));
  return name;
}

std::string LevelLabel(const ExperimentConfig& config, const SweepPoint& p) {
  if (config.open.empty()) return "MPL " + std::to_string(p.mpl);
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << p.offered_qps << " q/s offered";
  return os.str();
}

}  // namespace declust::exp
