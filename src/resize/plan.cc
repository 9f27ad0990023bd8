#include "src/resize/plan.h"

#include <algorithm>
#include <cstdio>

#include "src/common/parse.h"

namespace declust::resize {

namespace {

/// `nodeA` or `nodeA-B` (inclusive, A <= B).
Status ParseNodeRange(std::string_view target, ResizeEvent* ev) {
  if (target.substr(0, 4) != "node") {
    return Status::InvalidArgument(
        "resize: target must be 'nodeA' or 'nodeA-B', got '" +
        std::string(target) + "'");
  }
  std::string_view range = target.substr(4);
  const auto dash = range.find('-');
  const std::string_view lo_s =
      dash == std::string_view::npos ? range : range.substr(0, dash);
  const std::string_view hi_s =
      dash == std::string_view::npos ? range : range.substr(dash + 1);
  auto lo = ParseInt(lo_s, 0, 1 << 20);
  auto hi = ParseInt(hi_s, 0, 1 << 20);
  if (!lo.ok() || !hi.ok() || *lo > *hi) {
    return Status::InvalidArgument("resize: bad node range in '" +
                                   std::string(target) + "'");
  }
  ev->lo = *lo;
  ev->hi = *hi;
  return Status::OK();
}

Result<ResizeEvent> ParseEvent(std::string_view item, std::string_view kind,
                               std::string_view rest) {
  ResizeEvent ev;
  ev.kind = kind == "add"      ? ResizeEvent::Kind::kAdd
            : kind == "remove" ? ResizeEvent::Kind::kRemove
                               : ResizeEvent::Kind::kRebalance;
  const auto at = rest.find('@');
  if (at == std::string_view::npos) {
    return Status::InvalidArgument("resize: missing '@t=' in event '" +
                                   std::string(item) + "'");
  }
  const std::string_view target = Trim(rest.substr(0, at));
  if (ev.kind == ResizeEvent::Kind::kRebalance) {
    if (target != "auto") {
      return Status::InvalidArgument(
          "resize: rebalance target must be 'auto', got '" +
          std::string(target) + "'");
    }
  } else {
    DECLUST_RETURN_NOT_OK(ParseNodeRange(target, &ev));
  }

  // Options: first must be t=TIME, then optional key=value pairs.
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
      return Status::InvalidArgument("resize: expected key=value, got '" +
                                     std::string(kv) + "'");
    }
    const std::string_view key = Trim(kv.substr(0, eq));
    const std::string_view val = Trim(kv.substr(eq + 1));
    // A repeated key is almost certainly a typo'd spec; last-wins would
    // silently run a different resize than the user wrote.
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      return Status::InvalidArgument("resize: duplicate key '" +
                                     std::string(key) + "' in event '" +
                                     std::string(item) + "'");
    }
    seen_keys.push_back(key);
    const bool rebalance = ev.kind == ResizeEvent::Kind::kRebalance;
    if (key == "t") {
      DECLUST_ASSIGN_OR_RETURN(ev.at_ms, ParseTimeMs(val, "t", "resize"));
      have_t = true;
    } else if (key == "rate") {
      auto rate = ParseDouble(val, 0.0, 1e9);
      if (!rate.ok()) {
        return Status::InvalidArgument("resize: bad rate value '" +
                                       std::string(val) + "'");
      }
      ev.rate_mb_per_sec = *rate;
    } else if (key == "batch") {
      auto batch = ParseInt(val, 1, 1 << 20);
      if (!batch.ok()) {
        return Status::InvalidArgument(
            "resize: batch must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      ev.batch_pages = *batch;
    } else if (rebalance && key == "every") {
      DECLUST_ASSIGN_OR_RETURN(ev.every_ms,
                               ParseTimeMs(val, "every", "resize"));
      if (ev.every_ms <= 0.0) {
        return Status::InvalidArgument("resize: every must be > 0");
      }
    } else if (rebalance && key == "threshold") {
      auto thr = ParseDouble(val, 1.0, 1e6);
      if (!thr.ok()) {
        return Status::InvalidArgument("resize: bad threshold value '" +
                                       std::string(val) + "'");
      }
      ev.threshold = *thr;
    } else if (rebalance && key == "settle") {
      auto settle = ParseInt(val, 1, 1 << 20);
      if (!settle.ok()) {
        return Status::InvalidArgument(
            "resize: settle must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      ev.settle = *settle;
    } else if (rebalance && key == "max_moves") {
      auto moves = ParseInt(val, 1, 1 << 20);
      if (!moves.ok()) {
        return Status::InvalidArgument(
            "resize: max_moves must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      ev.max_moves = *moves;
    } else {
      return Status::InvalidArgument("resize: unknown option '" +
                                     std::string(key) + "' for " +
                                     std::string(kind));
    }
  }
  if (!have_t) {
    return Status::InvalidArgument("resize: event '" + std::string(item) +
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

Result<ResizePlan> ResizePlan::Parse(std::string_view spec) {
  ResizePlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view item = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                         : rest.substr(semi + 1);
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("resize: missing ':' in item '" +
                                     std::string(item) + "'");
    }
    const std::string_view kind = Trim(item.substr(0, colon));
    const std::string_view body = Trim(item.substr(colon + 1));
    if (kind == "slices") {
      if (plan.slices_override_ != 0) {
        return Status::InvalidArgument("resize: duplicate 'slices:' item");
      }
      auto n = ParseInt(body, 2, 1 << 12);
      if (!n.ok()) {
        return Status::InvalidArgument(
            "resize: slices must be an integer in [2, 4096], got '" +
            std::string(body) + "'");
      }
      plan.slices_override_ = *n;
    } else if (kind == "add" || kind == "remove" || kind == "rebalance") {
      DECLUST_ASSIGN_OR_RETURN(ResizeEvent ev, ParseEvent(item, kind, body));
      plan.events_.push_back(ev);
    } else {
      return Status::InvalidArgument(
          "resize: unknown kind '" + std::string(kind) +
          "' (expected add, remove, rebalance or slices)");
    }
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const ResizeEvent& a, const ResizeEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.lo < b.lo;
                   });
  return plan;
}

Status ResizePlan::Validate(int initial_nodes, double horizon_ms) const {
  if (initial_nodes < 2) {
    return Status::InvalidArgument(
        "resize: needs at least 2 initial nodes, got " +
        std::to_string(initial_nodes));
  }
  int rebalances = 0;
  std::vector<char> member(static_cast<size_t>(NumPhysicalNodes(initial_nodes)),
                           0);
  for (int n = 0; n < initial_nodes && n < static_cast<int>(member.size());
       ++n) {
    member[static_cast<size_t>(n)] = 1;
  }
  int count = std::min(initial_nodes, static_cast<int>(member.size()));
  for (const ResizeEvent& ev : events_) {
    if (ev.kind == ResizeEvent::Kind::kRebalance) {
      if (++rebalances > 1) {
        return Status::InvalidArgument(
            "resize: at most one rebalance:auto item");
      }
      // Hysteresis vs run horizon: the first possible trigger is after
      // `settle` consecutive `every` checks starting at t; a window that
      // ends past the horizon means the rebalance silently never fires.
      if (horizon_ms > 0.0 &&
          ev.at_ms + static_cast<double>(ev.settle) * ev.every_ms >
              horizon_ms) {
        return Status::InvalidArgument(
            "resize: rebalance:auto at " + FormatMs(ev.at_ms) +
            " can never trigger: settle=" + std::to_string(ev.settle) +
            " x every=" + FormatMs(ev.every_ms) + " exceeds the " +
            FormatMs(horizon_ms) + " run horizon");
      }
      continue;
    }
    for (int n = ev.lo; n <= ev.hi; ++n) {
      // NumPhysicalNodes() only grows for adds, so a remove can target an
      // index the machine never reaches.
      if (n >= static_cast<int>(member.size())) {
        return Status::InvalidArgument(
            "resize: remove of node " + std::to_string(n) + " at " +
            FormatMs(ev.at_ms) + " but it is not a member");
      }
      char& m = member[static_cast<size_t>(n)];
      if (ev.kind == ResizeEvent::Kind::kAdd) {
        if (m) {
          return Status::InvalidArgument(
              "resize: add of node " + std::to_string(n) + " at " +
              FormatMs(ev.at_ms) + " but it is already a member");
        }
        m = 1;
        ++count;
      } else {
        if (!m) {
          return Status::InvalidArgument(
              "resize: remove of node " + std::to_string(n) + " at " +
              FormatMs(ev.at_ms) + " but it is not a member");
        }
        m = 0;
        if (--count < 2) {
          return Status::InvalidArgument(
              "resize: membership would drop below 2 nodes at " +
              FormatMs(ev.at_ms));
        }
      }
    }
  }
  if (slices_override_ != 0 &&
      slices_override_ < NumPhysicalNodes(initial_nodes)) {
    return Status::InvalidArgument(
        "resize: slices:" + std::to_string(slices_override_) +
        " is below the " + std::to_string(NumPhysicalNodes(initial_nodes)) +
        " physical nodes the plan reaches");
  }
  return Status::OK();
}

int ResizePlan::NumPhysicalNodes(int initial_nodes) const {
  int max_index = initial_nodes - 1;
  for (const ResizeEvent& ev : events_) {
    if (ev.kind == ResizeEvent::Kind::kAdd) {
      max_index = std::max(max_index, ev.hi);
    }
  }
  return max_index + 1;
}

int ResizePlan::NumSlices(int initial_nodes) const {
  return std::max(NumPhysicalNodes(initial_nodes), slices_override_);
}

int ResizePlan::NumMembershipEvents() const {
  int k = 0;
  for (const ResizeEvent& ev : events_) {
    if (ev.kind != ResizeEvent::Kind::kRebalance) ++k;
  }
  return k;
}

std::string ResizePlan::ToString() const {
  std::string out;
  if (slices_override_ != 0) {
    out += "slices:" + std::to_string(slices_override_);
  }
  for (const ResizeEvent& ev : events_) {
    if (!out.empty()) out += ";";
    char buf[32];
    switch (ev.kind) {
      case ResizeEvent::Kind::kAdd:
      case ResizeEvent::Kind::kRemove:
        out += ev.kind == ResizeEvent::Kind::kAdd ? "add:node" : "remove:node";
        out += std::to_string(ev.lo);
        if (ev.hi != ev.lo) {
          out += '-';
          out += std::to_string(ev.hi);
        }
        out += "@t=" + FormatMs(ev.at_ms);
        break;
      case ResizeEvent::Kind::kRebalance:
        out += "rebalance:auto@t=" + FormatMs(ev.at_ms);
        if (ev.every_ms != 2000.0) out += ",every=" + FormatMs(ev.every_ms);
        if (ev.threshold != 1.5) {
          std::snprintf(buf, sizeof(buf), ",threshold=%g", ev.threshold);
          out += buf;
        }
        if (ev.settle != 2) out += ",settle=" + std::to_string(ev.settle);
        if (ev.max_moves != 4) {
          out += ",max_moves=" + std::to_string(ev.max_moves);
        }
        break;
    }
    if (ev.rate_mb_per_sec > 0.0) {
      std::snprintf(buf, sizeof(buf), ",rate=%g", ev.rate_mb_per_sec);
      out += buf;
    }
    if (ev.batch_pages != 8) {
      out += ",batch=" + std::to_string(ev.batch_pages);
    }
  }
  return out;
}

}  // namespace declust::resize
