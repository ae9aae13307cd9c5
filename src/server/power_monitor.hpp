// server::PowerMonitor — rolling-average power over discrete energy events.
//
// The energy-cap policy needs "the rolling average power of the stream so
// far" (sched::policy_in_force). Queries deliver energy in lumps at
// completion — each its settled bill — so the monitor keeps a sliding
// window of (timestamp, joules) events; average power is the static floor
// (package idle) plus windowed busy joules over the window length.
// Timestamps are caller-supplied seconds on the service clock —
// deterministic under test.
#pragma once

#include <deque>
#include <mutex>
#include <utility>

namespace eidb::server {

class PowerMonitor {
 public:
  /// `window_s`: averaging horizon. `floor_w`: static power always drawn
  /// (shallow-idle package power), added to the busy average.
  PowerMonitor(double window_s, double floor_w);

  /// Records `joules` of busy energy delivered at time `now_s`. Thread-safe.
  void add(double now_s, double joules);

  /// Floor + busy joules in [now_s - window, now_s] over the window.
  [[nodiscard]] double avg_power_w(double now_s) const;

  /// Busy joules currently inside the window.
  [[nodiscard]] double busy_j_in_window(double now_s) const;

  /// Total busy joules ever recorded.
  [[nodiscard]] double total_busy_j() const;

  [[nodiscard]] double window_s() const noexcept { return window_s_; }
  [[nodiscard]] double floor_w() const noexcept { return floor_w_; }

 private:
  /// Drops events older than the window. Caller holds mu_.
  void prune(double now_s) const;

  double window_s_;
  double floor_w_;
  mutable std::mutex mu_;
  mutable std::deque<std::pair<double, double>> events_;  ///< (t, joules).
  mutable double windowed_j_ = 0;
  double total_j_ = 0;
};

}  // namespace eidb::server
