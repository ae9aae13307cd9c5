#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <utility>

namespace servebench {

int Trace::add(std::string name, double start_s, double end_s, int parent,
               std::uint64_t request) {
  spans_.push_back({std::move(name), start_s, end_s, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Trace::self_seconds_by_name() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_s, s.end_s);

  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, reach = s.start_s;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, s.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, s.end_s));
    }
    self[s.name] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

bool Trace::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.request
        << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace servebench
