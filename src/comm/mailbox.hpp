#pragma once
// Point-to-point message transport between worker threads.
//
// This layer plays the role NCCL P2P plays in the paper: each rank owns a
// mailbox; sends deposit a (src, tag, payload) message into the destination
// mailbox; receives match on (src, tag). Matching follows MPI semantics:
// messages between the same (src, dst, tag) triple are delivered in send
// order; different tags are independent.
//
// Storage note: both the message queue and the posted-receive list are
// slot vectors rather than deques. Entries append at the tail; a match can
// vacate any slot (the hole is skipped by later scans); the head index
// walks past leading holes, and once it reaches the tail the vector is
// cleared with its capacity retained. After warm-up the same storage is
// reused forever, so steady-state traffic performs zero heap allocations —
// libstdc++'s deque, by contrast, allocates and frees a map node every few
// pushes no matter how steady the traffic is.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sync.hpp"
#include "tensor/tensor.hpp"

namespace hanayo::comm {

/// Tag namespace: callers encode (kind, micro-batch, stage) into a tag with
/// `make_tag`; the transport treats tags as opaque.
using Tag = int64_t;

struct Message {
  int src = -1;
  Tag tag = 0;
  tensor::Tensor payload;
};

/// Completion handle shared between the poster of an operation and the
/// transport. `wait()` blocks until the operation completed.
class RequestState {
 public:
  void complete();
  void wait();
  bool test();

  /// Re-arm a retired handle for reuse (see the request pool in
  /// communicator.cpp). Only valid once no waiter can still observe it.
  void reset();

 private:
  sync::Mutex<sync::Rank::CommRequest> mu_;
  sync::CondVar cv_;
  bool done_ = false;
};

using Request = std::shared_ptr<RequestState>;

/// One rank's inbox. Thread-safe.
class Mailbox {
 public:
  Mailbox();

  /// Deposit a message (called by the sender's thread).
  void put(Message msg);

  /// Blocking receive matching (src, tag).
  tensor::Tensor get(int src, Tag tag);

  /// Non-blocking receive: registers `out` + `req`; when a matching message
  /// arrives (or if one is already queued) the payload is moved into *out and
  /// req is completed.
  void get_async(int src, Tag tag, tensor::Tensor* out, Request req);

  /// Number of queued (unmatched) messages; for tests and diagnostics.
  size_t pending() const;

 private:
  struct PendingRecv {
    int src;
    Tag tag;
    tensor::Tensor* out;  // nullptr marks a vacated slot
    Request req;
  };

  // Advance the head indexes past vacated slots and release the vectors
  // back to empty (capacity kept) once fully drained. Callers hold mu_.
  void compact_queue();
  void compact_recvs();

  mutable sync::Mutex<sync::Rank::Mailbox> mu_;
  sync::CondVar cv_;
  std::vector<Message> queue_;  // src < 0 marks a vacated slot
  size_t queue_head_ = 0;
  size_t queue_live_ = 0;  // engaged entries (pending() in O(1))
  std::vector<PendingRecv> recvs_;
  size_t recvs_head_ = 0;
};

/// All mailboxes of a job plus shared counters. One `World` == one training
/// job spanning `nranks` worker threads.
class World {
 public:
  explicit World(int nranks);

  int size() const { return static_cast<int>(boxes_.size()); }
  Mailbox& box(int rank) { return *boxes_[static_cast<size_t>(rank)]; }

  /// Process-wide barrier across all ranks.
  void barrier();

 private:
  std::vector<std::unique_ptr<Mailbox>> boxes_;

  sync::Mutex<sync::Rank::WorldBarrier> barrier_mu_;
  sync::CondVar barrier_cv_;
  int barrier_count_ = 0;
  uint64_t barrier_epoch_ = 0;
};

}  // namespace hanayo::comm
