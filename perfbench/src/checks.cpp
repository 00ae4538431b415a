#include "checks.h"

#include <cmath>
#include <sstream>

namespace perfbench {

std::uint64_t codec_block_bytes(std::size_t rows, std::size_t dim, int bits) {
  const std::uint64_t payload =
      bits == 32 ? dim * 4 : (dim * static_cast<std::uint64_t>(bits) + 7) / 8;
  return 12 + rows * (1 + 8 + payload);
}

std::uint64_t epoch_message_bytes(const adaqp::DistGraph& dist,
                                  std::span<const std::size_t> layer_in_dims,
                                  int bits) {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < layer_in_dims.size(); ++l) {
    // Forward pairs d->p carry send_local[p]; backward pairs p->d carry the
    // same rows back (recv_local on the other side), so both directions of
    // a layer cost the same.
    const int directions = l == 0 ? 1 : 2;
    for (const adaqp::DeviceGraph& dev : dist.devices)
      for (std::size_t p = 0; p < dev.send_local.size(); ++p) {
        const std::size_t rows = dev.send_local[p].size();
        if (rows == 0 || static_cast<int>(p) == dev.device) continue;
        total += directions * codec_block_bytes(rows, layer_in_dims[l], bits);
      }
  }
  return total;
}

MessageTotals message_totals(const adaqp::DistGraph& dist,
                             std::span<const std::size_t> layer_in_dims) {
  return {epoch_message_bytes(dist, layer_in_dims, 2),
          epoch_message_bytes(dist, layer_in_dims, 8),
          epoch_message_bytes(dist, layer_in_dims, 32)};
}

CheckResult check_message_bytes(MessageRule rule, std::uint64_t observed,
                                const MessageTotals& t) {
  std::ostringstream why;
  switch (rule) {
    case MessageRule::kExact32:
      if (observed == t.all32) return std::nullopt;
      why << "message bytes " << observed << " != all-32-bit total " << t.all32;
      break;
    case MessageRule::kQuantized:
      if (observed >= t.all2 && observed <= t.all8) return std::nullopt;
      why << "message bytes " << observed << " outside [all-2-bit " << t.all2
          << ", all-8-bit " << t.all8 << "]";
      break;
    case MessageRule::kAtMostBcast:
      if (observed <= t.all32) return std::nullopt;
      why << "message bytes " << observed << " > broadcast-every-epoch total "
          << t.all32;
      break;
  }
  return why.str();
}

CheckResult check_eval_match(std::pair<double, double> distributed,
                             std::pair<double, double> single_device) {
  if (distributed == single_device) return std::nullopt;
  std::ostringstream why;
  why.precision(17);
  why << "distributed evaluate (" << distributed.first << ", "
      << distributed.second << ") != 1M-1D evaluate (" << single_device.first
      << ", " << single_device.second << ")";
  return why.str();
}

CheckResult check_conservation(const FrameCounts& c, bool expect_traffic) {
  std::ostringstream why;
  if (c.frames_sent != c.frames_delivered || c.bytes_sent != c.bytes_delivered) {
    why << "transport sent " << c.frames_sent << " frames / " << c.bytes_sent
        << " B but delivered " << c.frames_delivered << " frames / "
        << c.bytes_delivered << " B";
    return why.str();
  }
  if (expect_traffic && c.frames_sent == 0) return "transport carried no frames";
  return std::nullopt;
}

CheckResult check_training(double first_loss, double final_loss,
                           double best_val, double target) {
  std::ostringstream why;
  why.precision(6);
  if (!std::isfinite(final_loss) || !(final_loss < first_loss)) {
    why << "final training loss " << final_loss
        << " is not finite and below the first epoch's " << first_loss;
    return why.str();
  }
  if (!(best_val >= target)) {
    why << "validation accuracy " << best_val << " never reached target "
        << target;
    return why.str();
  }
  return std::nullopt;
}

}  // namespace perfbench
