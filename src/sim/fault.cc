#include "src/sim/fault.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string_view>

#include "src/common/parse.h"

namespace declust::sim {

namespace {

Result<FaultEvent> ParseEvent(std::string_view item) {
  FaultEvent ev;
  const auto colon = item.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("faults: missing ':' in event '" +
                                   std::string(item) + "'");
  }
  const std::string_view kind = Trim(item.substr(0, colon));
  if (kind == "disk") {
    ev.kind = FaultKind::kDiskFail;
  } else if (kind == "io") {
    ev.kind = FaultKind::kIoError;
  } else if (kind == "slow") {
    ev.kind = FaultKind::kSlowNode;
  } else if (kind == "crash") {
    ev.kind = FaultKind::kCrash;
  } else {
    return Status::InvalidArgument(
        "faults: unknown kind '" + std::string(kind) +
        "' (expected disk|io|slow|crash)");
  }

  std::string_view rest = Trim(item.substr(colon + 1));
  const auto at = rest.find('@');
  if (at == std::string_view::npos) {
    return Status::InvalidArgument("faults: missing '@t=' in event '" +
                                   std::string(item) + "'");
  }
  std::string_view target = Trim(rest.substr(0, at));
  if (target.substr(0, 4) != "node") {
    return Status::InvalidArgument("faults: target must be 'nodeN', got '" +
                                   std::string(target) + "'");
  }
  auto node = ParseInt(target.substr(4), 0, 1 << 20);
  if (!node.ok()) {
    return Status::InvalidArgument("faults: bad node index in '" +
                                   std::string(target) + "'");
  }
  ev.node = *node;

  // Options: first must be t=TIME, then kind-specific key=value pairs.
  std::string_view opts = rest.substr(at + 1);
  bool have_t = false;
  std::vector<std::string_view> seen_keys;
  while (!opts.empty()) {
    const auto comma = opts.find(',');
    std::string_view kv = Trim(opts.substr(0, comma));
    opts = comma == std::string_view::npos ? std::string_view()
                                          : opts.substr(comma + 1);
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("faults: expected key=value, got '" +
                                     std::string(kv) + "'");
    }
    const std::string_view key = Trim(kv.substr(0, eq));
    const std::string_view val = Trim(kv.substr(eq + 1));
    // A repeated key is almost certainly a typo'd spec; last-wins would
    // silently run a different fault than the user wrote.
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      return Status::InvalidArgument("faults: duplicate key '" +
                                     std::string(key) + "' in event '" +
                                     std::string(item) + "'");
    }
    seen_keys.push_back(key);
    if (key == "t") {
      DECLUST_ASSIGN_OR_RETURN(ev.at_ms, ParseTimeMs(val, "t", "faults"));
      have_t = true;
    } else if (key == "rate" && ev.kind == FaultKind::kIoError) {
      auto rate = ParseDouble(val, 0.0, 1.0);
      if (!rate.ok()) {
        return Status::InvalidArgument("faults: rate must be in [0,1], got '" +
                                       std::string(val) + "'");
      }
      ev.rate = *rate;
    } else if (key == "x" && ev.kind == FaultKind::kSlowNode) {
      auto factor =
          ParseDouble(val, 1.0, std::numeric_limits<double>::max());
      if (!factor.ok()) {
        return Status::InvalidArgument(
            "faults: slow factor must be >= 1, got '" + std::string(val) +
            "'");
      }
      ev.factor = *factor;
    } else if (key == "for" && (ev.kind == FaultKind::kIoError ||
                                ev.kind == FaultKind::kSlowNode)) {
      DECLUST_ASSIGN_OR_RETURN(ev.duration_ms,
                               ParseTimeMs(val, "for", "faults"));
    } else if (key == "down" && ev.kind == FaultKind::kCrash) {
      DECLUST_ASSIGN_OR_RETURN(ev.duration_ms,
                               ParseTimeMs(val, "down", "faults"));
    } else {
      return Status::InvalidArgument("faults: unknown option '" +
                                     std::string(key) + "' for kind '" +
                                     std::string(kind) + "'");
    }
  }
  if (!have_t) {
    return Status::InvalidArgument("faults: event '" + std::string(item) +
                                   "' has no t=");
  }
  return ev;
}

std::string FormatMs(double ms) {
  char buf[64];
  if (ms == static_cast<double>(static_cast<int64_t>(ms)) &&
      static_cast<int64_t>(ms) % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(ms) / 1000);
  } else {
    std::snprintf(buf, sizeof(buf), "%gms", ms);
  }
  return buf;
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view item = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                         : rest.substr(semi + 1);
    if (item.empty()) continue;
    DECLUST_ASSIGN_OR_RETURN(FaultEvent ev, ParseEvent(item));
    plan.events_.push_back(ev);
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.node < b.node;
                   });
  return plan;
}

int FaultPlan::max_node() const {
  int max = -1;
  for (const FaultEvent& ev : events_) max = std::max(max, ev.node);
  return max;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& ev : events_) {
    if (!out.empty()) out += ";";
    switch (ev.kind) {
      case FaultKind::kDiskFail:
        out += "disk";
        break;
      case FaultKind::kIoError:
        out += "io";
        break;
      case FaultKind::kSlowNode:
        out += "slow";
        break;
      case FaultKind::kCrash:
        out += "crash";
        break;
    }
    out += ":node" + std::to_string(ev.node) + "@t=" + FormatMs(ev.at_ms);
    const bool finite = ev.duration_ms !=
                        std::numeric_limits<double>::infinity();
    if (ev.kind == FaultKind::kIoError) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",rate=%g", ev.rate);
      out += buf;
      if (finite) out += ",for=" + FormatMs(ev.duration_ms);
    } else if (ev.kind == FaultKind::kSlowNode) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",x=%g", ev.factor);
      out += buf;
      if (finite) out += ",for=" + FormatMs(ev.duration_ms);
    } else if (ev.kind == FaultKind::kCrash && finite) {
      out += ",down=" + FormatMs(ev.duration_ms);
    }
  }
  return out;
}

FaultInjector::FaultInjector(const FaultPlan* plan, uint64_t seed,
                             int num_nodes) {
  nodes_.resize(static_cast<size_t>(std::max(num_nodes, 0)));
  const RandomStream root(seed ^ 0xFA17FA17FA17FA17ULL);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].rng = root.Fork(static_cast<uint64_t>(n));
  }
  if (plan == nullptr) return;
  for (const FaultEvent& ev : plan->events()) {
    if (ev.node < 0 || ev.node >= static_cast<int>(nodes_.size())) continue;
    NodeFaults& nf = nodes_[static_cast<size_t>(ev.node)];
    switch (ev.kind) {
      case FaultKind::kDiskFail:
        nf.disk_fail_at_ms = std::min(nf.disk_fail_at_ms, ev.at_ms);
        break;
      case FaultKind::kIoError:
        nf.io_errors.push_back(ev);
        break;
      case FaultKind::kSlowNode:
        nf.slows.push_back(ev);
        break;
      case FaultKind::kCrash:
        nf.crashes.push_back(ev);
        break;
    }
  }
}

bool FaultInjector::NodeUp(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return true;
  for (const FaultEvent& ev :
       nodes_[static_cast<size_t>(node)].crashes) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      return false;
    }
  }
  return true;
}

bool FaultInjector::DiskAvailable(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return true;
  if (now_ms >= nodes_[static_cast<size_t>(node)].disk_fail_at_ms) {
    return false;
  }
  return NodeUp(node, now_ms);
}

double FaultInjector::DiskFailAtMs(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return nodes_[static_cast<size_t>(node)].disk_fail_at_ms;
}

void FaultInjector::MarkRepaired(int node, double now_ms) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return;
  NodeFaults& nf = nodes_[static_cast<size_t>(node)];
  nf.disk_fail_at_ms = std::numeric_limits<double>::infinity();
  for (FaultEvent& ev : nf.crashes) {
    // Truncate the window the repair interrupts; windows that have not
    // opened yet are untouched (the node can crash again later).
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      ev.duration_ms = now_ms - ev.at_ms;
    }
  }
  repairs_.push_back(Repair{now_ms, node});
}

double FaultInjector::SlowFactor(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return 1.0;
  double factor = 1.0;
  for (const FaultEvent& ev : nodes_[static_cast<size_t>(node)].slows) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      factor *= ev.factor;
    }
  }
  return factor;
}

bool FaultInjector::MaybeInjectIoError(int node, double now_ms) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return false;
  NodeFaults& nf = nodes_[static_cast<size_t>(node)];
  double rate = 0.0;
  for (const FaultEvent& ev : nf.io_errors) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      rate = std::max(rate, ev.rate);
    }
  }
  // Only consume randomness while a window is active: the per-node decision
  // sequence then depends solely on how many of this node's I/Os complete
  // inside windows, which is deterministic for a given seed.
  if (rate <= 0.0) return false;
  if (!nf.rng.Bernoulli(rate)) return false;
  trace_.push_back(Injection{now_ms, node});
  return true;
}

}  // namespace declust::sim
