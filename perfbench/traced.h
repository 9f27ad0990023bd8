// Host-time spans around the layer calls the benchmark makes. Spans are
// kept in memory and written out once, when the traced run ends, so the
// run pays one clock read per boundary and no I/O.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/// \brief One span: a layer call, its host interval, and its cause.
struct Span {
  std::string name;
  double start_s = 0;  ///< host seconds since the log was created
  double end_s = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double seconds() const { return end_s - start_s; }
};

/// \brief In-memory span log (steady_clock).
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its index.
  int Begin(std::string name, int parent = -1);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a JSON array of {name, start_s, end_s, parent}.
  void WriteJson(std::ostream& os) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// \brief Opens a span on construction and closes it on destruction; does
/// nothing when the log is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name), parent)
                                      : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
