// A Transport decorator owned by the benchmark: it counts every frame and
// payload byte that enters send() and leaves recv() of the backend it
// wraps and, when timing is on, the wall time spent inside each call.
//
// Everything that decides how the exchange runs — local_delivery,
// zero_alloc_delivery, pair_slot, stats — is forwarded unchanged, so the
// trainer's zero-allocation steady state and the race checker see the
// inner backend. Counters are relaxed atomics (send/recv run on pool
// workers) and the hot path allocates nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "checks.h"
#include "transport/transport.h"

namespace perfbench {

class TimingTransport final : public adaqp::transport::Transport {
 public:
  /// `timed` arms the two clock reads per call; counting is always on.
  TimingTransport(std::unique_ptr<adaqp::transport::Transport> inner,
                  bool timed);

  const char* name() const override { return inner_->name(); }
  void send(const adaqp::transport::FrameTag& tag,
            std::span<const std::uint8_t> payload) override;
  std::span<const std::uint8_t> recv(
      const adaqp::transport::FrameTag& tag,
      std::span<const std::uint8_t> local) override;
  bool local_delivery(const adaqp::transport::FrameTag& tag) const override {
    return inner_->local_delivery(tag);
  }
  bool zero_alloc_delivery() const override {
    return inner_->zero_alloc_delivery();
  }
  const void* pair_slot(std::uint32_t channel, std::uint8_t direction, int src,
                        int dst) override {
    return inner_->pair_slot(channel, direction, src, dst);
  }
  adaqp::transport::TransportStats stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

  struct Counts {
    FrameCounts frames;
    std::uint64_t framed_bytes = 0;  ///< header + payload of wire frames
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;       ///< includes time blocked for bytes
  };
  Counts counts() const;

 private:
  std::unique_ptr<adaqp::transport::Transport> inner_;
  const bool timed_;
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> bytes_delivered_{0};
  std::atomic<std::uint64_t> framed_bytes_{0};
  std::atomic<std::uint64_t> send_ns_{0};
  std::atomic<std::uint64_t> recv_ns_{0};
};

}  // namespace perfbench
