// Benchmark driver: runs one workload in one mode, serially, and prints one
// JSON object as the last line of standard output. perfbench/run.py calls
// it; see perfbench/README.md.
//
//   perfbench <mode> --workload NAME --seed N --out DIR
//
// Modes (each is one process, so each reads its own peak memory):
//   iterate  one timed setup, then the untraced sweeps, then VmHWM
//   audit    the sweeps once more with RunnerOptions::audit armed
//   trace    one traced iteration — spans around every layer call, kept in
//            memory and written to DIR/trace_<workload>.json at exit — then
//            the untraced sweeps, which every traced point must reproduce
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/traced.h"
#include "perfbench/workloads.h"
#include "src/common/parse.h"
#include "src/obs/manifest.h"

namespace perfbench {
namespace {

using declust::Result;
using declust::Status;
namespace exp = declust::exp;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = kReferenceSeed;
  std::string out = ".";
};

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) {
    return Status::InvalidArgument("expected a mode and flag/value pairs");
  }
  Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      DECLUST_ASSIGN_OR_RETURN(const int64_t seed,
                               declust::ParseInt64(value, 0));
      args.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  return args;
}

/// One exp::RunThroughputSweep call and what the correctness gate reads.
struct SweepCall {
  Status status;
  std::string manifest;
  exp::SweepResult result;
  double wall_s = 0;
};

SweepCall RunSweep(const exp::ExperimentConfig& config,
                   const std::string& manifest, bool audit) {
  exp::RunnerOptions options;
  options.jobs = 1;
  options.audit = audit;
  options.manifest_path = manifest;
  SweepCall call{Status::OK(), manifest, {}, 0};
  const auto t0 = Clock::now();
  auto res = exp::RunThroughputSweep(config, options);
  call.wall_s = SecondsSince(t0);
  if (res.ok()) {
    call.result = std::move(res).ValueOrDie();
  } else {
    call.status = res.status();
  }
  return call;
}

std::string CallJson(const SweepCall& call) {
  std::ostringstream os;
  int points = 0;
  int64_t pages = 0;
  std::ostringstream top;
  for (const exp::StrategyCurve& curve : call.result.curves) {
    points += static_cast<int>(curve.points.size());
    for (const exp::SweepPoint& p : curve.points) {
      pages += p.pages_migrated + p.ctl_pages_migrated;
    }
    if (!curve.points.empty()) {
      top << (top.tellp() > 0 ? ", " : "") << Quote(curve.strategy) << ": "
          << Num(curve.points.back().throughput_qps);
    }
  }
  os << "{\"status\": " << Quote(call.status.ToString())
     << ", \"wall_s\": " << Num(call.wall_s)
     << ", \"manifest\": " << Quote(call.manifest)
     << ", \"points\": " << points << ", \"top_qps\": {" << top.str()
     << "}, \"pages_migrated\": " << pages << "}";
  return os.str();
}

/// Runs every sweep of the workload untraced; returns the summed wall time.
double UntracedSweeps(const WorkloadSpec& spec, const Args& args,
                      const std::string& tag, bool audit,
                      std::vector<SweepCall>* calls) {
  double wall = 0;
  for (size_t i = 0; i < spec.sweeps.size(); ++i) {
    const std::string manifest = args.out + "/" + spec.name + "-" + tag +
                                 "-" + std::to_string(i) + ".json";
    calls->push_back(RunSweep(spec.sweeps[i], manifest, audit));
    wall += calls->back().wall_s;
  }
  return wall;
}

/// The timed set-up: for every sweep, its inputs and one catalog build per
/// strategy; freeing the inputs is not timed. `index_bytes` (nullable)
/// receives the largest catalog's index.
Result<double> Setup(const WorkloadSpec& spec, SpanLog* log,
                     int64_t* index_bytes) {
  double seconds = 0;
  for (const exp::ExperimentConfig& config : spec.sweeps) {
    const auto t0 = Clock::now();
    ScopedSpan root(log, "setup", -1);
    DECLUST_ASSIGN_OR_RETURN(const SweepInputs inputs,
                             BuildInputs(config, log, root.id()));
    for (size_t s = 0; s < config.strategies.size(); ++s) {
      ScopedSpan span(log, "engine.catalog." + config.strategies[s],
                      root.id());
      DECLUST_ASSIGN_OR_RETURN(const int64_t bytes,
                               BuildCatalog(config, inputs, s));
      if (index_bytes != nullptr) {
        *index_bytes = std::max(*index_bytes, bytes);
      }
    }
    seconds += SecondsSince(t0);
  }
  return seconds;
}

double Median(std::vector<double> v) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string JoinCalls(const std::vector<SweepCall>& calls) {
  std::string s = "[";
  for (size_t i = 0; i < calls.size(); ++i) {
    s += (i ? ", " : "") + CallJson(calls[i]);
  }
  return s + "]";
}

/// Peak resident set of this process (kB), from /proc/self/status.
int64_t VmHwmKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

int Iterate(const WorkloadSpec& spec, const Args& args) {
  auto setup = Setup(spec, nullptr, nullptr);
  if (!setup.ok()) {
    std::cerr << "setup failed: " << setup.status().ToString() << "\n";
    return 1;
  }
  std::vector<SweepCall> calls;
  const double sweep_s = UntracedSweeps(spec, args, "iterate", false, &calls);
  std::cout << "{\"setup_s\": " << Num(*setup)
            << ", \"sweep_wall_s\": " << Num(sweep_s)
            << ", \"vmhwm_kb\": " << VmHwmKb() << ", \"build\": {\"describe\": "
            << Quote(declust::obs::BuildVersion())
            << ", \"compiler\": " << Quote(PERFBENCH_COMPILER)
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << "}, \"calls\": " << JoinCalls(calls) << "}\n";
  return 0;
}

int Audit(const WorkloadSpec& spec, const Args& args) {
  std::vector<SweepCall> calls;
  UntracedSweeps(spec, args, "audit", true, &calls);
  int64_t checks = 0, violations = 0, mismatches = 0;
  std::vector<std::string> messages;
  for (const SweepCall& call : calls) {
    const exp::SweepResult& r = call.result;
    checks += r.audit_checks + r.oracle_checks;
    violations += r.audit_violations;
    mismatches += r.oracle_mismatches;
    messages.insert(messages.end(), r.audit_messages.begin(),
                    r.audit_messages.end());
  }
  std::cout << "{\"audit_checks\": " << checks
            << ", \"audit_violations\": " << violations
            << ", \"oracle_mismatches\": " << mismatches
            << ", \"messages\": [";
  for (size_t i = 0; i < messages.size(); ++i) {
    std::cout << (i ? ", " : "") << Quote(messages[i]);
  }
  std::cout << "], \"calls\": " << JoinCalls(calls) << "}\n";
  return 0;
}

/// Simulated counts of a traced iteration.
struct LayerCounts {
  int64_t events = 0, peak_pending = 0, completed = 0;
  /// Hardware counters are read only from closed-loop points, which the
  /// driver builds itself; open points run inside RunSweepPointRep.
  bool hw_observed = false;
  int64_t disk_ios = 0, disk_sequential = 0, cpu_ops = 0, net_packets = 0;
  double disk_util_sum = 0, cpu_util_sum = 0;
  int64_t points = 0, index_bytes = 0;
  int64_t arrivals = 0, shed = 0, migrations = 0, pages_migrated = 0;
  int64_t decisions = 0, control_shed = 0, budget_throttled = 0;
};

/// Reads an integer field of RunSweepPointRep's metrics JSON.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const size_t at = json.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size() + 4));
}

void AddRep(const exp::RepMetrics& m, LayerCounts* c) {
  ++c->points;
  c->completed += m.completed;
  c->disk_util_sum += m.disk_utilization;
  c->cpu_util_sum += m.cpu_utilization;
  c->arrivals += m.arrivals;
  c->shed += m.shed;
  c->migrations += m.migrations + m.ctl_migrations;
  c->pages_migrated += m.pages_migrated + m.ctl_pages_migrated;
  c->decisions += static_cast<int64_t>(m.ctl_decisions.size());
  c->control_shed += m.ctl_shed;
  c->budget_throttled += m.ctl_budget_throttled;
}

/// The traced counterpart of one exp::RunThroughputSweep call: inputs,
/// then every (strategy, level, rep) point. Closed-loop points are built
/// from public calls so catalog build and run are separate spans; open
/// points are one exp::RunSweepPointRep span each. Appends each point's
/// metrics to `reps` in sweep order.
Status TracedSweep(const exp::ExperimentConfig& config, SpanLog* log,
                   LayerCounts* counts, std::vector<exp::RepMetrics>* reps) {
  ScopedSpan root(log, "sweep", -1);
  DECLUST_ASSIGN_OR_RETURN(const SweepInputs inputs,
                           BuildInputs(config, log, root.id()));
  const bool open = !config.open.empty();
  const size_t levels = open ? config.offered_loads.size() : config.mpls.size();
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    for (size_t l = 0; l < levels; ++l) {
      const int level = open ? static_cast<int>(l) : config.mpls[l];
      for (int rep = 0; rep < config.repeats; ++rep) {
        ScopedSpan point(log, "exp.point", root.id());
        exp::RepMetrics m;
        if (open) {
          std::string metrics_json;
          DECLUST_ASSIGN_OR_RETURN(
              m, exp::RunSweepPointRep(config, inputs.relation,
                                       *inputs.parts[s], inputs.mix, level,
                                       rep, nullptr, &metrics_json));
          counts->events += JsonInt(metrics_json, "events_dispatched");
          counts->peak_pending =
              std::max(counts->peak_pending,
                       JsonInt(metrics_json, "peak_pending_events"));
        } else {
          DECLUST_ASSIGN_OR_RETURN(
              const PointCounts pc,
              RunClosedPoint(config, inputs, s, level, rep, log, point.id()));
          m = pc.rep;
          counts->events += pc.events;
          counts->peak_pending =
              std::max(counts->peak_pending, pc.peak_pending);
          counts->hw_observed = true;
          counts->disk_ios += pc.disk_ios;
          counts->disk_sequential += pc.disk_sequential;
          counts->cpu_ops += pc.cpu_ops;
          counts->net_packets += pc.net_packets;
        }
        AddRep(m, counts);
        reps->push_back(std::move(m));
      }
    }
  }
  return Status::OK();
}

/// Host-time layer metrics of a traced iteration, from its spans.
std::map<std::string, double> SpanMetrics(const SpanLog& log) {
  std::map<std::string, double> ms;
  std::vector<double> points;
  for (const Span& span : log.spans()) {
    const double span_ms = span.seconds() * 1e3;
    if (span.name == "workload.relation") ms["workload.relation_ms"] += span_ms;
    if (span.name.rfind("decluster.", 0) == 0) ms[span.name + "_ms"] += span_ms;
    if (span.name.rfind("engine.catalog.", 0) == 0) {
      ms["engine.catalog_ms." + span.name.substr(15)] += span_ms;
    }
    if (span.name == "sim.run") ms["sim.run_ms"] += span_ms;
    if (span.name == "exp.point") points.push_back(span_ms);
    if (span.parent == -1) ms["trace.wall_s"] += span.seconds();
  }
  // An open point is one RunSweepPointRep span: all of it is the run.
  if (ms.count("sim.run_ms") == 0) {
    for (double p : points) ms["sim.run_ms"] += p;
  }
  std::sort(points.begin(), points.end());
  const size_t n = points.size();
  ms["exp.points"] = static_cast<double>(n);
  ms["exp.point_ms.p50"] = Median(points);
  // The highest percentile with at least ten samples above it; -1 when the
  // run has too few points for one.
  ms["exp.point_ms.tail"] = n > 10 ? points[n - 11] : -1;
  ms["exp.point_ms.tail_pct"] =
      n > 10 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)
             : -1;
  return ms;
}

/// True when a traced point reproduces the runner's. Every workload runs
/// one replication per point, so the runner's aggregate is the replication
/// itself.
bool SamePoint(const exp::RepMetrics& traced, const exp::SweepPoint& runner) {
  return traced.completed == runner.completed &&
         traced.throughput_qps == runner.throughput_qps &&
         traced.p95_response_ms == runner.p95_response_ms;
}

int Trace(const WorkloadSpec& spec, const Args& args) {
  SpanLog log;
  LayerCounts counts;
  std::vector<exp::RepMetrics> traced;
  auto setup = Setup(spec, &log, &counts.index_bytes);
  Status st = setup.status();
  for (size_t i = 0; st.ok() && i < spec.sweeps.size(); ++i) {
    st = TracedSweep(spec.sweeps[i], &log, &counts, &traced);
  }
  if (!st.ok()) {
    std::cerr << "traced run failed: " << st.ToString() << "\n";
    return 1;
  }
  std::map<std::string, double> m = SpanMetrics(log);

  // The untraced sweeps, outside the traced interval: every traced point
  // must match the runner's, and their digests join the gate's.
  std::vector<SweepCall> calls;
  UntracedSweeps(spec, args, "trace", false, &calls);
  int64_t mismatched = 0;
  size_t next = 0;
  for (const SweepCall& call : calls) {
    for (const exp::StrategyCurve& curve : call.result.curves) {
      for (const exp::SweepPoint& p : curve.points) {
        if (next >= traced.size() || !SamePoint(traced[next++], p)) {
          ++mismatched;
        }
      }
    }
  }

  const double run_s = m["sim.run_ms"] / 1e3;
  const double n = static_cast<double>(std::max<int64_t>(counts.points, 1));
  m["sim.events"] = static_cast<double>(counts.events);
  m["sim.events_per_s"] =
      run_s > 0 ? static_cast<double>(counts.events) / run_s : -1;
  m["sim.peak_pending"] = static_cast<double>(counts.peak_pending);
  m["engine.completed"] = static_cast<double>(counts.completed);
  m["engine.index_bytes"] = static_cast<double>(counts.index_bytes);
  // Every workload runs the paper's model, which has no buffer pool
  // (SystemConfig::buffer_pool_pages == 0): no lookups, so no hit ratio.
  m["engine.buffer_lookups"] = 0;
  m["engine.buffer_hit_ratio"] = -1;
  const auto hw = [&](int64_t count) {
    return counts.hw_observed ? static_cast<double>(count) : -1.0;
  };
  m["hw.disk_ios"] = hw(counts.disk_ios);
  m["hw.disk_seq_ratio"] =
      counts.disk_ios > 0 ? static_cast<double>(counts.disk_sequential) /
                                static_cast<double>(counts.disk_ios)
                          : -1;
  m["hw.cpu_ops"] = hw(counts.cpu_ops);
  m["hw.net_packets"] = hw(counts.net_packets);
  m["hw.disk_util"] = counts.disk_util_sum / n;
  m["hw.cpu_util"] = counts.cpu_util_sum / n;
  m["workload.open_arrivals"] = static_cast<double>(counts.arrivals);
  m["workload.open_shed"] = static_cast<double>(counts.shed);
  m["resize.migrations"] = static_cast<double>(counts.migrations);
  m["resize.pages_migrated"] = static_cast<double>(counts.pages_migrated);
  m["control.decisions"] = static_cast<double>(counts.decisions);
  m["control.shed"] = static_cast<double>(counts.control_shed);
  m["control.budget_throttled"] =
      static_cast<double>(counts.budget_throttled);

  const std::string trace_path = args.out + "/trace_" + spec.name + ".json";
  std::ofstream trace(trace_path);
  log.WriteJson(trace);
  trace.close();
  if (!trace) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 1;
  }

  std::cout << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    std::cout << (first ? "" : ", ") << Quote(name) << ": " << Num(value);
    first = false;
  }
  std::cout << "}, \"traced_points\": " << traced.size()
            << ", \"traced_mismatched\": " << mismatched
            << ", \"calls\": " << JoinCalls(calls) << "}\n";
  return 0;
}

int Main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::cerr << "usage: perfbench <iterate|audit|trace> --workload NAME "
                 "--seed N --out DIR\n"
              << args.status().ToString() << "\n";
    return 2;
  }
  auto spec = MakeWorkload(args->workload, args->seed);
  if (!spec.ok()) {
    std::cerr << spec.status().ToString() << "\n";
    return 2;
  }
  if (args->mode == "iterate") return Iterate(*spec, *args);
  if (args->mode == "audit") return Audit(*spec, *args);
  if (args->mode == "trace") return Trace(*spec, *args);
  std::cerr << "unknown mode " << args->mode << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
