// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own calls into each layer (and
// from intervals the program reports back), kept in memory, and written
// once at the end as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "query.compile".
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  ///< Index of the causing span; -1 for a request root.
  /// The client request the span serves.
  std::uint64_t request = 0;
};

class Trace {
 public:
  /// Records a span and returns its index (for children to name).
  int add(std::string name, double start_s, double end_s, int parent,
          std::uint64_t request);

  /// Sets the end of a span opened before its children were known.
  void close(int span, double end_s) { spans_[span].end_s = end_s; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time summed per span name: each span's duration minus the
  /// part of it its children cover.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_name() const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace servebench
