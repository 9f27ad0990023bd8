#include "perfbench/traced.h"

#include <iomanip>
#include <ostream>

namespace perfbench {

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(std::string name, int parent) {
  const double now = Now();
  spans_.push_back(Span{std::move(name), now, now, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<size_t>(id)].end_s = Now(); }

void SpanLog::WriteJson(std::ostream& os) const {
  os << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << s.name
       << "\", \"start_s\": " << std::setprecision(9) << s.start_s
       << ", \"end_s\": " << s.end_s << ", \"parent\": " << s.parent << "}";
  }
  os << "\n]\n";
}

}  // namespace perfbench
