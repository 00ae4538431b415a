#include "timing_transport.h"

#include <chrono>

#include "transport/frame.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
constexpr auto kRelaxed = std::memory_order_relaxed;

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

TimingTransport::TimingTransport(
    std::unique_ptr<adaqp::transport::Transport> inner, bool timed)
    : inner_(std::move(inner)), timed_(timed) {}

void TimingTransport::send(const adaqp::transport::FrameTag& tag,
                           std::span<const std::uint8_t> payload) {
  const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
  inner_->send(tag, payload);
  if (timed_) send_ns_.fetch_add(ns_since(t0), kRelaxed);
  frames_sent_.fetch_add(1, kRelaxed);
  bytes_sent_.fetch_add(payload.size(), kRelaxed);
  if (!inner_->local_delivery(tag))
    framed_bytes_.fetch_add(adaqp::transport::kHeaderBytes + payload.size(),
                            kRelaxed);
}

std::span<const std::uint8_t> TimingTransport::recv(
    const adaqp::transport::FrameTag& tag,
    std::span<const std::uint8_t> local) {
  const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
  const std::span<const std::uint8_t> out = inner_->recv(tag, local);
  if (timed_) recv_ns_.fetch_add(ns_since(t0), kRelaxed);
  frames_delivered_.fetch_add(1, kRelaxed);
  bytes_delivered_.fetch_add(out.size(), kRelaxed);
  return out;
}

TimingTransport::Counts TimingTransport::counts() const {
  Counts c;
  c.frames.frames_sent = frames_sent_.load(kRelaxed);
  c.frames.bytes_sent = bytes_sent_.load(kRelaxed);
  c.frames.frames_delivered = frames_delivered_.load(kRelaxed);
  c.frames.bytes_delivered = bytes_delivered_.load(kRelaxed);
  c.framed_bytes = framed_bytes_.load(kRelaxed);
  c.send_ns = send_ns_.load(kRelaxed);
  c.recv_ns = recv_ns_.load(kRelaxed);
  return c;
}

}  // namespace perfbench
