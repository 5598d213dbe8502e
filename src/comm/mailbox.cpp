#include "comm/mailbox.hpp"

#include <stdexcept>

namespace hanayo::comm {

void RequestState::complete() {
  {
    std::lock_guard lk(mu_);
    done_ = true;
  }
  cv_.notify_all();
}

void RequestState::wait() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return done_; });
}

bool RequestState::test() {
  std::lock_guard lk(mu_);
  return done_;
}

void RequestState::reset() {
  std::lock_guard lk(mu_);
  done_ = false;
}

// Which side of a send/receive race arrives first decides whether a message
// waits in queue_ or a receive waits in recvs_, so the first time either
// vector is needed is a matter of timing. Starting both with a few slots
// keeps that first growth from landing in a random steady-state pass.
Mailbox::Mailbox() {
  constexpr size_t kInitialSlots = 16;
  queue_.reserve(kInitialSlots);
  recvs_.reserve(kInitialSlots);
}

void Mailbox::compact_queue() {
  while (queue_head_ < queue_.size() && queue_[queue_head_].src < 0) {
    ++queue_head_;
  }
  if (queue_head_ == queue_.size()) {
    queue_.clear();  // capacity retained; next push reuses the storage
    queue_head_ = 0;
  }
}

void Mailbox::compact_recvs() {
  while (recvs_head_ < recvs_.size() && recvs_[recvs_head_].out == nullptr) {
    ++recvs_head_;
  }
  if (recvs_head_ == recvs_.size()) {
    recvs_.clear();
    recvs_head_ = 0;
  }
}

void Mailbox::put(Message msg) {
  Request matched;
  {
    std::lock_guard lk(mu_);
    // Try to satisfy an already-posted irecv (FIFO across posts with the
    // same signature, per MPI ordering: scan oldest-first from the head).
    for (size_t i = recvs_head_; i < recvs_.size(); ++i) {
      PendingRecv& r = recvs_[i];
      if (r.out != nullptr && r.src == msg.src && r.tag == msg.tag) {
        *r.out = std::move(msg.payload);
        r.out = nullptr;  // vacate the slot
        matched = std::move(r.req);
        compact_recvs();
        break;
      }
    }
    if (!matched) {
      queue_.push_back(std::move(msg));
      ++queue_live_;
    }
  }
  if (matched) {
    matched->complete();
  } else {
    cv_.notify_all();
  }
}

tensor::Tensor Mailbox::get(int src, Tag tag) {
  std::unique_lock lk(mu_);
  for (;;) {
    for (size_t i = queue_head_; i < queue_.size(); ++i) {
      Message& m = queue_[i];
      if (m.src >= 0 && m.src == src && m.tag == tag) {
        tensor::Tensor payload = std::move(m.payload);
        m.src = -1;  // vacate the slot
        --queue_live_;
        compact_queue();
        return payload;
      }
    }
    cv_.wait(lk);
  }
}

void Mailbox::get_async(int src, Tag tag, tensor::Tensor* out, Request req) {
  bool matched = false;
  {
    std::lock_guard lk(mu_);
    for (size_t i = queue_head_; i < queue_.size(); ++i) {
      Message& m = queue_[i];
      if (m.src >= 0 && m.src == src && m.tag == tag) {
        *out = std::move(m.payload);
        m.src = -1;
        --queue_live_;
        compact_queue();
        matched = true;
        break;
      }
    }
    if (!matched) {
      recvs_.push_back(PendingRecv{src, tag, out, std::move(req)});
    }
  }
  if (matched) req->complete();
}

size_t Mailbox::pending() const {
  std::lock_guard lk(mu_);
  return queue_live_;
}

World::World(int nranks) {
  if (nranks <= 0) throw std::invalid_argument("World: nranks must be positive");
  boxes_.reserve(static_cast<size_t>(nranks));
  for (int i = 0; i < nranks; ++i) boxes_.push_back(std::make_unique<Mailbox>());
}

void World::barrier() {
  std::unique_lock lk(barrier_mu_);
  const uint64_t epoch = barrier_epoch_;
  if (++barrier_count_ == size()) {
    barrier_count_ = 0;
    ++barrier_epoch_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lk, [&] { return barrier_epoch_ != epoch; });
  }
}

}  // namespace hanayo::comm
