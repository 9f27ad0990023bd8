#include "src/audit/differential.h"

#include <cinttypes>
#include <cstdio>

namespace declust::audit {

std::vector<std::string> DifferentialReport::Mismatches() const {
  std::vector<std::string> out;
  for (size_t i = 1; i < variants.size(); ++i) {
    const size_t ref = variants[i].reference;
    if (ref == i || variants[i].digest == variants[ref].digest) continue;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s: digest %016" PRIx64 " != %s %s %016" PRIx64,
                  variants[i].label.c_str(), variants[i].digest,
                  variants[ref].label.c_str(),
                  ref == 0 ? "baseline" : "reference", variants[ref].digest);
    out.emplace_back(buf);
  }
  return out;
}

std::string DifferentialReport::Summary() const {
  const size_t bad = Mismatches().size();
  char buf[160];
  if (bad == 0) {
    std::snprintf(buf, sizeof(buf),
                  "differential %s: %zu variants, all digests match",
                  point.c_str(), variants.size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "differential %s: %zu of %zu variants diverge from their "
                  "reference",
                  point.c_str(), bad, variants.size());
  }
  return std::string(buf);
}

}  // namespace declust::audit
