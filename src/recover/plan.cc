#include "src/recover/plan.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/common/parse.h"

namespace declust::recover {

namespace {

Result<RepairEvent> ParseEvent(std::string_view item) {
  RepairEvent ev;
  const auto colon = item.find(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument("recovery: missing ':' in event '" +
                                   std::string(item) + "'");
  }
  const std::string_view kind = Trim(item.substr(0, colon));
  if (kind != "repair") {
    return Status::InvalidArgument("recovery: unknown kind '" +
                                   std::string(kind) +
                                   "' (expected repair)");
  }

  std::string_view rest = Trim(item.substr(colon + 1));
  const auto at = rest.find('@');
  if (at == std::string_view::npos) {
    return Status::InvalidArgument("recovery: missing '@t=' in event '" +
                                   std::string(item) + "'");
  }
  std::string_view target = Trim(rest.substr(0, at));
  if (target.substr(0, 4) != "node") {
    return Status::InvalidArgument("recovery: target must be 'nodeN', got '" +
                                   std::string(target) + "'");
  }
  auto node = ParseInt(target.substr(4), 0, 1 << 20);
  if (!node.ok()) {
    return Status::InvalidArgument("recovery: bad node index in '" +
                                   std::string(target) + "'");
  }
  ev.node = *node;

  // Options: first must be t=TIME, then optional rate=/batch= pairs.
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
      return Status::InvalidArgument("recovery: expected key=value, got '" +
                                     std::string(kv) + "'");
    }
    const std::string_view key = Trim(kv.substr(0, eq));
    const std::string_view val = Trim(kv.substr(eq + 1));
    // A repeated key is almost certainly a typo'd spec; last-wins would
    // silently run a different repair than the user wrote.
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      return Status::InvalidArgument("recovery: duplicate key '" +
                                     std::string(key) + "' in event '" +
                                     std::string(item) + "'");
    }
    seen_keys.push_back(key);
    if (key == "t") {
      DECLUST_ASSIGN_OR_RETURN(ev.at_ms, ParseTimeMs(val, "t", "recovery"));
      have_t = true;
    } else if (key == "rate") {
      auto rate = ParseDouble(val, 0.0, 1e9);
      if (!rate.ok()) {
        return Status::InvalidArgument("recovery: bad rate value '" +
                                       std::string(val) + "'");
      }
      ev.rate_mb_per_sec = *rate;
    } else if (key == "batch") {
      auto batch = ParseInt(val, 1, 1 << 20);
      if (!batch.ok()) {
        return Status::InvalidArgument(
            "recovery: batch must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      ev.batch_pages = *batch;
    } else {
      return Status::InvalidArgument("recovery: unknown option '" +
                                     std::string(key) + "' for repair");
    }
  }
  if (!have_t) {
    return Status::InvalidArgument("recovery: event '" + std::string(item) +
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

Result<RecoveryPlan> RecoveryPlan::Parse(std::string_view spec) {
  RecoveryPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view item = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                         : rest.substr(semi + 1);
    if (item.empty()) continue;
    DECLUST_ASSIGN_OR_RETURN(RepairEvent ev, ParseEvent(item));
    plan.events_.push_back(ev);
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const RepairEvent& a, const RepairEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.node < b.node;
                   });
  return plan;
}

int RecoveryPlan::max_node() const {
  int max = -1;
  for (const RepairEvent& ev : events_) max = std::max(max, ev.node);
  return max;
}

Status RecoveryPlan::ValidateAgainst(const sim::FaultPlan& faults) const {
  for (size_t i = 0; i < events_.size(); ++i) {
    const RepairEvent& ev = events_[i];
    for (size_t j = 0; j < i; ++j) {
      if (events_[j].node == ev.node) {
        return Status::InvalidArgument(
            "recovery: node " + std::to_string(ev.node) +
            " is repaired more than once");
      }
    }
    double fail_at = std::numeric_limits<double>::infinity();
    for (const sim::FaultEvent& f : faults.events()) {
      if (f.kind == sim::FaultKind::kDiskFail && f.node == ev.node) {
        fail_at = std::min(fail_at, f.at_ms);
      }
    }
    if (!(fail_at <= ev.at_ms)) {
      return Status::InvalidArgument(
          "recovery: repair of node " + std::to_string(ev.node) + " at " +
          FormatMs(ev.at_ms) +
          " has no preceding disk failure in the fault plan");
    }
  }
  return Status::OK();
}

std::string RecoveryPlan::ToString() const {
  std::string out;
  for (const RepairEvent& ev : events_) {
    if (!out.empty()) out += ";";
    out += "repair:node" + std::to_string(ev.node) + "@t=" +
           FormatMs(ev.at_ms);
    if (ev.rate_mb_per_sec > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), ",rate=%g", ev.rate_mb_per_sec);
      out += buf;
    }
    if (ev.batch_pages != 8) {
      out += ",batch=" + std::to_string(ev.batch_pages);
    }
  }
  return out;
}

}  // namespace declust::recover
