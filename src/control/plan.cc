#include "src/control/plan.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/parse.h"

namespace declust::control {

namespace {

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

/// Splits `body` into tokens separated by `,` or whitespace and hands each
/// non-empty token to `fn` (Status-returning). Duplicate keys across the
/// whole item are rejected by the caller via `seen_keys`.
template <typename Fn>
Status ForEachToken(std::string_view body, Fn&& fn) {
  while (!body.empty()) {
    const auto sep = body.find_first_of(", \t");
    const std::string_view tok = Trim(body.substr(0, sep));
    body = sep == std::string_view::npos ? std::string_view()
                                         : body.substr(sep + 1);
    if (tok.empty()) continue;
    DECLUST_RETURN_NOT_OK(fn(tok));
  }
  return Status::OK();
}

/// Splits `tok` as key=value; rejects repeats of the same key.
Status SplitKeyValue(std::string_view tok, std::string_view item,
                     std::vector<std::string_view>* seen_keys,
                     std::string_view* key, std::string_view* val) {
  const auto eq = tok.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("control: expected key=value, got '" +
                                   std::string(tok) + "'");
  }
  *key = Trim(tok.substr(0, eq));
  *val = Trim(tok.substr(eq + 1));
  if (std::find(seen_keys->begin(), seen_keys->end(), *key) !=
      seen_keys->end()) {
    return Status::InvalidArgument("control: duplicate key '" +
                                   std::string(*key) + "' in item '" +
                                   std::string(item) + "'");
  }
  seen_keys->push_back(*key);
  return Status::OK();
}

/// The slo objective head: `pQQ<BOUND` with QQ one of 50, 95, 99.
Status ParseSloHead(std::string_view tok, SloTarget* slo) {
  const auto lt = tok.find('<');
  if (tok.empty() || tok.front() != 'p' || lt == std::string_view::npos) {
    return Status::InvalidArgument(
        "control: slo objective must be 'p50<..', 'p95<..' or 'p99<..', "
        "got '" +
        std::string(tok) + "'");
  }
  const std::string_view q = tok.substr(1, lt - 1);
  if (q == "50") {
    slo->quantile = 50;
  } else if (q == "95") {
    slo->quantile = 95;
  } else if (q == "99") {
    slo->quantile = 99;
  } else {
    return Status::InvalidArgument(
        "control: slo quantile must be one of 50, 95, 99, got 'p" +
        std::string(q) + "'");
  }
  DECLUST_ASSIGN_OR_RETURN(slo->bound_ms,
                           ParseTimeMs(tok.substr(lt + 1), "slo bound",
                                       "control"));
  if (slo->bound_ms <= 0.0) {
    return Status::InvalidArgument("control: slo bound must be > 0");
  }
  return Status::OK();
}

Status ParseSlo(std::string_view item, std::string_view body,
                SloTarget* slo) {
  bool have_head = false;
  std::vector<std::string_view> seen_keys;
  return ForEachToken(body, [&](std::string_view tok) -> Status {
    if (!have_head) {
      have_head = true;
      return ParseSloHead(tok, slo);
    }
    std::string_view key, val;
    DECLUST_RETURN_NOT_OK(SplitKeyValue(tok, item, &seen_keys, &key, &val));
    if (key == "every") {
      DECLUST_ASSIGN_OR_RETURN(slo->every_ms,
                               ParseTimeMs(val, "every", "control"));
      if (slo->every_ms <= 0.0) {
        return Status::InvalidArgument("control: every must be > 0");
      }
    } else if (key == "settle") {
      auto settle = ParseInt(val, 1, 1 << 20);
      if (!settle.ok()) {
        return Status::InvalidArgument(
            "control: settle must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      slo->settle = *settle;
    } else if (key == "cooldown") {
      DECLUST_ASSIGN_OR_RETURN(slo->cooldown_ms,
                               ParseTimeMs(val, "cooldown", "control"));
    } else if (key == "low") {
      auto low = ParseDouble(val, 0.0, 1.0);
      if (!low.ok() || *low >= 1.0) {
        return Status::InvalidArgument(
            "control: low must be in [0, 1), got '" + std::string(val) +
            "'");
      }
      slo->low = *low;
    } else {
      return Status::InvalidArgument("control: unknown option '" +
                                     std::string(key) + "' for slo");
    }
    return Status::OK();
  });
}

Status ParseScale(std::string_view item, std::string_view body,
                  ScaleBounds* scale) {
  bool have_min = false;
  bool have_max = false;
  std::vector<std::string_view> seen_keys;
  DECLUST_RETURN_NOT_OK(ForEachToken(body, [&](std::string_view tok) {
    std::string_view key, val;
    DECLUST_RETURN_NOT_OK(SplitKeyValue(tok, item, &seen_keys, &key, &val));
    if (key == "min") {
      auto v = ParseInt(val, 2, 1 << 12);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: min must be an integer in [2, 4096], got '" +
            std::string(val) + "'");
      }
      scale->min_nodes = *v;
      have_min = true;
    } else if (key == "max") {
      auto v = ParseInt(val, 2, 1 << 12);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: max must be an integer in [2, 4096], got '" +
            std::string(val) + "'");
      }
      scale->max_nodes = *v;
      have_max = true;
    } else if (key == "step") {
      auto v = ParseInt(val, 1, 1 << 12);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: step must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      scale->step = *v;
    } else if (key == "rate") {
      auto v = ParseDouble(val, 0.0, 1e9);
      if (!v.ok()) {
        return Status::InvalidArgument("control: bad rate value '" +
                                       std::string(val) + "'");
      }
      scale->rate_mb_per_sec = *v;
    } else if (key == "batch") {
      auto v = ParseInt(val, 1, 1 << 20);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: batch must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      scale->batch_pages = *v;
    } else {
      return Status::InvalidArgument("control: unknown option '" +
                                     std::string(key) + "' for scale");
    }
    return Status::OK();
  }));
  if (!have_min || !have_max) {
    return Status::InvalidArgument("control: scale needs min= and max=");
  }
  if (scale->max_nodes < scale->min_nodes) {
    return Status::InvalidArgument("control: scale max must be >= min");
  }
  return Status::OK();
}

Status ParseBudget(std::string_view item, std::string_view body,
                   ContentionBudget* budget) {
  std::vector<std::string_view> seen_keys;
  return ForEachToken(body, [&](std::string_view tok) {
    std::string_view key, val;
    DECLUST_RETURN_NOT_OK(SplitKeyValue(tok, item, &seen_keys, &key, &val));
    if (key == "frac") {
      auto v = ParseDouble(val, 0.0, 1.0);
      if (!v.ok() || *v <= 0.0) {
        return Status::InvalidArgument(
            "control: frac must be in (0, 1], got '" + std::string(val) +
            "'");
      }
      budget->frac = *v;
    } else if (key == "concurrent") {
      auto v = ParseInt(val, 1, 1 << 10);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: concurrent must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      budget->concurrent = *v;
    } else {
      return Status::InvalidArgument("control: unknown option '" +
                                     std::string(key) + "' for budget");
    }
    return Status::OK();
  });
}

Status ParseDegrade(std::string_view item, std::string_view body,
                    DegradePolicy* degrade) {
  bool have_floor = false;
  std::vector<std::string_view> seen_keys;
  DECLUST_RETURN_NOT_OK(ForEachToken(body, [&](std::string_view tok) {
    std::string_view key, val;
    DECLUST_RETURN_NOT_OK(SplitKeyValue(tok, item, &seen_keys, &key, &val));
    if (key == "floor") {
      auto v = ParseInt(val, 1, 1 << 20);
      if (!v.ok()) {
        return Status::InvalidArgument(
            "control: floor must be an integer >= 1, got '" +
            std::string(val) + "'");
      }
      degrade->floor = *v;
      have_floor = true;
    } else if (key == "factor") {
      auto v = ParseDouble(val, 0.0, 1.0);
      if (!v.ok() || *v <= 0.0 || *v >= 1.0) {
        return Status::InvalidArgument(
            "control: factor must be in (0, 1), got '" + std::string(val) +
            "'");
      }
      degrade->factor = *v;
    } else {
      return Status::InvalidArgument("control: unknown option '" +
                                     std::string(key) + "' for degrade");
    }
    return Status::OK();
  }));
  if (!have_floor) {
    return Status::InvalidArgument("control: degrade needs floor=");
  }
  return Status::OK();
}

}  // namespace

Result<ControlPlan> ControlPlan::Parse(std::string_view spec) {
  ControlPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view item = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                         : rest.substr(semi + 1);
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("control: missing ':' in item '" +
                                     std::string(item) + "'");
    }
    const std::string_view kind = Trim(item.substr(0, colon));
    const std::string_view body = Trim(item.substr(colon + 1));
    if (kind == "slo") {
      if (plan.have_slo_) {
        return Status::InvalidArgument("control: duplicate 'slo:' item");
      }
      DECLUST_RETURN_NOT_OK(ParseSlo(item, body, &plan.slo_));
      plan.have_slo_ = true;
    } else if (kind == "scale") {
      if (plan.have_scale_) {
        return Status::InvalidArgument("control: duplicate 'scale:' item");
      }
      DECLUST_RETURN_NOT_OK(ParseScale(item, body, &plan.scale_));
      plan.have_scale_ = true;
    } else if (kind == "budget") {
      if (plan.have_budget_) {
        return Status::InvalidArgument("control: duplicate 'budget:' item");
      }
      DECLUST_RETURN_NOT_OK(ParseBudget(item, body, &plan.budget_));
      plan.have_budget_ = true;
    } else if (kind == "degrade") {
      if (plan.have_degrade_) {
        return Status::InvalidArgument("control: duplicate 'degrade:' item");
      }
      DECLUST_RETURN_NOT_OK(ParseDegrade(item, body, &plan.degrade_));
      plan.have_degrade_ = true;
    } else {
      return Status::InvalidArgument(
          "control: unknown kind '" + std::string(kind) +
          "' (expected slo, scale, budget or degrade)");
    }
  }
  if (!plan.have_slo_ && (plan.have_scale_ || plan.have_budget_ ||
                          plan.have_degrade_)) {
    return Status::InvalidArgument(
        "control: a control plan needs exactly one slo: item");
  }
  return plan;
}

Status ControlPlan::Validate(int initial_nodes, double horizon_ms) const {
  if (empty()) return Status::OK();
  if (initial_nodes < 2) {
    return Status::InvalidArgument(
        "control: needs at least 2 initial nodes, got " +
        std::to_string(initial_nodes));
  }
  if (have_scale_) {
    if (initial_nodes < scale_.min_nodes || initial_nodes > scale_.max_nodes) {
      return Status::InvalidArgument(
          "control: scale bounds [" + std::to_string(scale_.min_nodes) +
          ", " + std::to_string(scale_.max_nodes) +
          "] do not bracket the initial " + std::to_string(initial_nodes) +
          " nodes");
    }
  }
  // Mirror of the resize-plan rule: a controller whose `settle * every`
  // observation window ends past the run horizon can never act — reject it
  // instead of silently running open-loop.
  if (horizon_ms > 0.0 &&
      static_cast<double>(slo_.settle) * slo_.every_ms > horizon_ms) {
    return Status::InvalidArgument(
        "control: slo can never act: settle=" + std::to_string(slo_.settle) +
        " x every=" + FormatMs(slo_.every_ms) + " exceeds the " +
        FormatMs(horizon_ms) + " run horizon");
  }
  return Status::OK();
}

int ControlPlan::NumPhysicalNodes(int initial_nodes) const {
  if (!have_scale_) return initial_nodes;
  return std::max(initial_nodes, scale_.max_nodes);
}

int ControlPlan::NumSlices(int initial_nodes) const {
  return NumPhysicalNodes(initial_nodes);
}

std::string ControlPlan::ToString() const {
  if (empty()) return "";
  char buf[64];
  std::string out = "slo:p" + std::to_string(slo_.quantile) + "<";
  out += FormatMs(slo_.bound_ms);
  if (slo_.every_ms != 5000.0) out += ",every=" + FormatMs(slo_.every_ms);
  if (slo_.settle != 3) out += ",settle=" + std::to_string(slo_.settle);
  if (slo_.cooldown_ms >= 0.0) {
    out += ",cooldown=" + FormatMs(slo_.cooldown_ms);
  }
  if (slo_.low != 0.5) {
    std::snprintf(buf, sizeof(buf), ",low=%g", slo_.low);
    out += buf;
  }
  if (have_scale_) {
    out += ";scale:min=" + std::to_string(scale_.min_nodes) +
           ",max=" + std::to_string(scale_.max_nodes);
    if (scale_.step != 1) out += ",step=" + std::to_string(scale_.step);
    if (scale_.rate_mb_per_sec > 0.0) {
      std::snprintf(buf, sizeof(buf), ",rate=%g", scale_.rate_mb_per_sec);
      out += buf;
    }
    if (scale_.batch_pages != 8) {
      out += ",batch=" + std::to_string(scale_.batch_pages);
    }
  }
  if (have_budget_) {
    std::snprintf(buf, sizeof(buf), ";budget:frac=%g", budget_.frac);
    out += buf;
    if (budget_.concurrent != 2) {
      out += ",concurrent=" + std::to_string(budget_.concurrent);
    }
  }
  if (have_degrade_) {
    out += ";degrade:floor=" + std::to_string(degrade_.floor);
    if (degrade_.factor != 0.5) {
      std::snprintf(buf, sizeof(buf), ",factor=%g", degrade_.factor);
      out += buf;
    }
  }
  return out;
}

}  // namespace declust::control
