// server::RequestQueue — the admitted-but-not-yet-dispatched stage.
//
// A plain FIFO of admitted queries guarded by a condition variable. Policy
// decisions do NOT live here: admission happens before push (the
// AdmissionController), P-state choice happens at compile time (the plan
// governor, sched::Governor::decide), and grouping happens at pop (the
// BatchCoalescer). Keeping the queue dumb lets each policy reuse the same
// structure.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>

#include "query/request.hpp"
#include "server/session.hpp"

namespace eidb::server {

/// One admitted query waiting for dispatch.
struct PendingQuery {
  query::QueryRequest request;
  std::shared_ptr<Session> session;
  double admit_s = 0;  ///< Service-clock time of admission.
  std::promise<query::QueryResponse> promise;
};

class RequestQueue {
 public:
  /// Enqueues `q`. Returns false (leaving `q` untouched) once closed.
  bool push(PendingQuery&& q);

  /// Blocks until an item arrives or the queue is closed *and* drained;
  /// nullopt means no more items will ever come.
  [[nodiscard]] std::optional<PendingQuery> pop();

  /// Like pop() but gives up after `timeout_s` (nullopt on timeout or on
  /// closed-and-drained).
  [[nodiscard]] std::optional<PendingQuery> pop_for(double timeout_s);

  /// Closes the queue: pushes fail, pops drain what remains then return
  /// nullopt. Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingQuery> items_;
  bool closed_ = false;
};

}  // namespace eidb::server
