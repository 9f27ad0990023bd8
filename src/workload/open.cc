#include "src/workload/open.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/common/parse.h"

namespace declust::workload {

namespace {

/// Splits `body` at '@' and parses the mandatory-or-defaulted `t=T` suffix.
/// When `require_at` is false a missing '@' means t=0.
Result<double> ParseAtTime(std::string_view item, std::string_view tail,
                           bool found) {
  if (!found) return 0.0;
  const auto eq = tail.find('=');
  if (eq == std::string_view::npos || Trim(tail.substr(0, eq)) != "t") {
    return Status::InvalidArgument("open: expected 't=TIME' after '@' in '" +
                                   std::string(item) + "'");
  }
  return ParseTimeMs(Trim(tail.substr(eq + 1)), "t", "open");
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

std::string FormatG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Result<OpenPlan> OpenPlan::Parse(std::string_view spec) {
  OpenPlan plan;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const auto semi = rest.find(';');
    const std::string_view item = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                         : rest.substr(semi + 1);
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("open: missing ':' in item '" +
                                     std::string(item) + "'");
    }
    const std::string_view kind = Trim(item.substr(0, colon));
    const std::string_view body = Trim(item.substr(colon + 1));
    const auto at = body.find('@');
    const std::string_view head =
        Trim(at == std::string_view::npos ? body : body.substr(0, at));
    const std::string_view at_tail =
        at == std::string_view::npos ? std::string_view() : body.substr(at + 1);

    if (kind == "rate") {
      RatePoint rp;
      auto r = ParseDouble(head, 0.0, 1e9);
      if (!r.ok()) {
        return Status::InvalidArgument("open: bad rate value '" +
                                       std::string(head) + "'");
      }
      rp.per_sec = *r;
      DECLUST_ASSIGN_OR_RETURN(
          rp.at_ms, ParseAtTime(item, at_tail, at != std::string_view::npos));
      // A non-monotone (or duplicated) schedule would silently reorder the
      // load curve; reject it instead of sorting.
      if (!plan.rates_.empty() && rp.at_ms <= plan.rates_.back().at_ms) {
        return Status::InvalidArgument(
            "open: rate schedule must be strictly increasing in t ('" +
            std::string(item) + "' at " + FormatMs(rp.at_ms) +
            " does not follow " + FormatMs(plan.rates_.back().at_ms) + ")");
      }
      plan.rates_.push_back(rp);
    } else if (kind == "burst") {
      BurstPoint bp;
      auto n = ParseInt(head, 1, 1 << 20);
      if (!n.ok()) {
        return Status::InvalidArgument(
            "open: burst count must be an integer >= 1, got '" +
            std::string(head) + "'");
      }
      bp.count = *n;
      if (at == std::string_view::npos) {
        return Status::InvalidArgument("open: missing '@t=' in burst '" +
                                       std::string(item) + "'");
      }
      DECLUST_ASSIGN_OR_RETURN(bp.at_ms, ParseAtTime(item, at_tail, true));
      plan.bursts_.push_back(bp);
    } else if (kind == "zipf") {
      if (plan.have_zipf_) {
        return Status::InvalidArgument("open: duplicate 'zipf:' item");
      }
      auto s = ParseDouble(body, 0.0, 8.0);
      if (!s.ok()) {
        return Status::InvalidArgument(
            "open: zipf skew must be in [0, 8], got '" + std::string(body) +
            "'");
      }
      plan.zipf_s_ = *s;
      plan.have_zipf_ = true;
    } else if (kind == "tail" || kind == "relation") {
      const bool is_tail = kind == "tail";
      OpenRelationSpec rel;
      bool have_card = false, have_p = false, have_x = false;
      std::string_view opts = body;
      std::vector<std::string_view> seen_keys;
      while (!opts.empty()) {
        const auto comma = opts.find(',');
        std::string_view kv = Trim(opts.substr(0, comma));
        opts = comma == std::string_view::npos ? std::string_view()
                                              : opts.substr(comma + 1);
        const auto eq = kv.find('=');
        if (eq == std::string_view::npos) {
          return Status::InvalidArgument("open: expected key=value, got '" +
                                         std::string(kv) + "'");
        }
        const std::string_view key = Trim(kv.substr(0, eq));
        const std::string_view val = Trim(kv.substr(eq + 1));
        // A repeated key is almost certainly a typo'd spec; last-wins would
        // silently run a different workload than the user wrote.
        if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
            seen_keys.end()) {
          return Status::InvalidArgument("open: duplicate key '" +
                                         std::string(key) + "' in item '" +
                                         std::string(item) + "'");
        }
        seen_keys.push_back(key);
        if (is_tail && key == "p") {
          auto p = ParseDouble(val, 0.0, 0.999999);
          if (!p.ok()) {
            return Status::InvalidArgument(
                "open: tail p must be in [0, 1), got '" + std::string(val) +
                "'");
          }
          plan.tail_p_ = *p;
          have_p = true;
        } else if (is_tail && key == "x") {
          auto x = ParseDouble(val, 1.0, 1e6);
          if (!x.ok()) {
            return Status::InvalidArgument(
                "open: tail x must be >= 1, got '" + std::string(val) + "'");
          }
          plan.tail_x_ = *x;
          have_x = true;
        } else if (!is_tail && key == "card") {
          auto card = ParseInt64(val, 2, int64_t{1} << 34);
          if (!card.ok()) {
            return Status::InvalidArgument(
                "open: relation card must be an integer >= 2, got '" +
                std::string(val) + "'");
          }
          rel.cardinality = *card;
          have_card = true;
        } else if (!is_tail && key == "weight") {
          auto w = ParseDouble(val, 1e-9, 1e9);
          if (!w.ok()) {
            return Status::InvalidArgument(
                "open: relation weight must be > 0, got '" + std::string(val) +
                "'");
          }
          rel.weight = *w;
        } else if (!is_tail && key == "corr") {
          auto c = ParseDouble(val, -1.0, 1.0);
          if (!c.ok()) {
            return Status::InvalidArgument(
                "open: relation corr must be in [-1, 1], got '" +
                std::string(val) + "'");
          }
          rel.correlation = *c;
        } else {
          return Status::InvalidArgument("open: unknown option '" +
                                         std::string(key) + "' for " +
                                         std::string(kind));
        }
      }
      if (is_tail) {
        if (plan.have_tail_) {
          return Status::InvalidArgument("open: duplicate 'tail:' item");
        }
        if (!have_p || !have_x) {
          return Status::InvalidArgument(
              "open: tail needs both p= and x= ('" + std::string(item) + "')");
        }
        plan.have_tail_ = true;
      } else {
        if (!have_card) {
          return Status::InvalidArgument("open: relation needs card= ('" +
                                         std::string(item) + "')");
        }
        plan.extra_relations_.push_back(rel);
      }
    } else if (kind == "cap") {
      if (plan.have_cap_) {
        return Status::InvalidArgument("open: duplicate 'cap:' item");
      }
      auto cap = ParseInt(body, 1, 1 << 22);
      if (!cap.ok()) {
        return Status::InvalidArgument(
            "open: cap must be an integer >= 1, got '" + std::string(body) +
            "'");
      }
      plan.max_in_flight_ = *cap;
      plan.have_cap_ = true;
    } else {
      return Status::InvalidArgument(
          "open: unknown kind '" + std::string(kind) +
          "' (expected rate, burst, zipf, tail, relation or cap)");
    }
  }
  std::stable_sort(plan.bursts_.begin(), plan.bursts_.end(),
                   [](const BurstPoint& a, const BurstPoint& b) {
                     return a.at_ms < b.at_ms;
                   });
  return plan;
}

double OpenPlan::RateAt(double t_ms) const {
  double rate = 0.0;
  for (const RatePoint& rp : rates_) {
    if (rp.at_ms > t_ms) break;
    rate = rp.per_sec;
  }
  return rate;
}

double OpenPlan::NextBoundaryAfter(double t_ms) const {
  double next = std::numeric_limits<double>::infinity();
  for (const RatePoint& rp : rates_) {
    if (rp.at_ms > t_ms) {
      next = std::min(next, rp.at_ms);
      break;  // rates_ is sorted
    }
  }
  for (const BurstPoint& bp : bursts_) {
    if (bp.at_ms > t_ms) {
      next = std::min(next, bp.at_ms);
      break;  // bursts_ is sorted
    }
  }
  return next;
}

Status OpenPlan::Validate() const {
  if (rates_.empty() && bursts_.empty()) {
    return Status::InvalidArgument(
        "open: plan needs at least one rate: or burst: item");
  }
  if (extra_relations_.size() > 15) {
    return Status::InvalidArgument(
        "open: at most 15 extra relations (got " +
        std::to_string(extra_relations_.size()) + ")");
  }
  return Status::OK();
}

void OpenPlan::OverrideConstantRate(double per_sec) {
  rates_.clear();
  rates_.push_back(RatePoint{0.0, per_sec});
}

std::string OpenPlan::ToString() const {
  std::string out;
  auto append = [&out](const std::string& item) {
    if (!out.empty()) out += ";";
    out += item;
  };
  for (const RatePoint& rp : rates_) {
    append("rate:" + FormatG(rp.per_sec) + "@t=" + FormatMs(rp.at_ms));
  }
  for (const BurstPoint& bp : bursts_) {
    append("burst:" + std::to_string(bp.count) + "@t=" + FormatMs(bp.at_ms));
  }
  if (have_zipf_) append("zipf:" + FormatG(zipf_s_));
  if (have_tail_) {
    append("tail:p=" + FormatG(tail_p_) + ",x=" + FormatG(tail_x_));
  }
  for (const OpenRelationSpec& rel : extra_relations_) {
    std::string item = "relation:card=" + std::to_string(rel.cardinality);
    if (rel.weight != 1.0) item += ",weight=" + FormatG(rel.weight);
    if (rel.correlation != 0.0) item += ",corr=" + FormatG(rel.correlation);
    append(item);
  }
  if (have_cap_) append("cap:" + std::to_string(max_in_flight_));
  return out;
}

ZipfSampler::ZipfSampler(int64_t n, double s) : n_(n < 1 ? 1 : n), s_(s) {
  if (s_ > 0.0) {
    h_x1_ = H(1.5) - 1.0;
    h_n_ = H(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - Hinv(H(2.5) - std::pow(2.0, -s_));
  }
}

double ZipfSampler::H(double x) const {
  if (s_ == 1.0) return std::log(x);
  return (std::pow(x, 1.0 - s_) - 1.0) / (1.0 - s_);
}

double ZipfSampler::Hinv(double x) const {
  if (s_ == 1.0) return std::exp(x);
  return std::pow(1.0 + x * (1.0 - s_), 1.0 / (1.0 - s_));
}

int64_t ZipfSampler::Next(RandomStream& rng) const {
  if (s_ == 0.0 || n_ == 1) return rng.UniformInt(1, n_);
  // Rejection inversion over the continuous envelope; expected iterations
  // are < 2 for every s.
  for (;;) {
    const double u = h_n_ + rng.NextDouble() * (h_x1_ - h_n_);
    const double x = Hinv(u);
    int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    if (static_cast<double>(k) - x <= threshold_) return k;
    if (u >= H(static_cast<double>(k) + 0.5) -
                 std::pow(static_cast<double>(k), -s_)) {
      return k;
    }
  }
}

OpenQueryGenerator::OpenQueryGenerator(const Workload* workload,
                                       const OpenPlan* plan,
                                       std::vector<int64_t> domains,
                                       std::vector<double> weights,
                                       RandomStream rng)
    : workload_(workload),
      plan_(plan),
      domains_(std::move(domains)),
      relation_pick_(rng.Fork(0)),
      skew_(rng.Fork(1)) {
  cumulative_weight_.reserve(weights.size());
  for (double w : weights) {
    total_weight_ += w;
    cumulative_weight_.push_back(total_weight_);
  }
  generators_.reserve(domains_.size());
  zipf_.reserve(domains_.size());
  for (size_t r = 0; r < domains_.size(); ++r) {
    generators_.emplace_back(workload_, domains_[r],
                             rng.Fork(2 + static_cast<uint64_t>(r)),
                             QueryGenerator::StreamMode::kPerClassStreams);
    zipf_.emplace_back(domains_[r], plan_->zipf_s());
  }
}

QueryInstance OpenQueryGenerator::Next() {
  size_t rel = 0;
  if (cumulative_weight_.size() > 1) {
    const double u = relation_pick_.NextDouble() * total_weight_;
    while (rel + 1 < cumulative_weight_.size() &&
           u >= cumulative_weight_[rel]) {
      ++rel;
    }
  }
  QueryInstance q = generators_[rel].Next();
  q.relation = static_cast<int>(rel);
  const int64_t domain = domains_[rel];
  const QueryClassSpec& cls = workload_->classes[static_cast<size_t>(
      q.class_index)];

  // Heavy tail: occasionally inflate a range predicate's width. Exact-match
  // classes keep their point shape (the planner's exact path depends on it).
  if (plan_->tail_p() > 0.0 && !cls.exact &&
      skew_.NextDouble() < plan_->tail_p()) {
    int64_t width = q.hi - q.lo + 1;
    width = static_cast<int64_t>(
        std::llround(static_cast<double>(width) * plan_->tail_x()));
    if (width > domain) width = domain;
    if (width < 1) width = 1;
    if (q.lo + width - 1 >= domain) q.lo = domain - width;
    q.hi = q.lo + width - 1;
  }

  // Zipf placement: re-place the window so rank-1 positions (the low end of
  // the domain) are the hottest. Width is preserved.
  if (plan_->zipf_s() > 0.0) {
    const int64_t width = q.hi - q.lo + 1;
    if (width < domain) {
      const int64_t rank = zipf_[rel].Next(skew_);
      int64_t lo = rank - 1;
      if (lo > domain - width) lo = domain - width;
      q.lo = lo;
      q.hi = lo + width - 1;
    }
  }
  return q;
}

}  // namespace declust::workload
