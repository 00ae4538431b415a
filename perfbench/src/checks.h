// Output checks of the benchmark. Every expected value is computed here
// from inputs (the DistGraph's send maps, the layer widths, the codec's
// block layout) or is a property the output must have; none is a stored
// copy of an earlier run's output.
//
// Each check returns std::nullopt when it passes and a one-line reason
// when it fails, so main.cpp can report every failure and the
// self-tests can feed each check a perturbed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "dist/dist_graph.h"

namespace perfbench {

using CheckResult = std::optional<std::string>;

/// Bytes of one codec block of `rows` rows of width `dim`, every row at
/// `bits`, by the layout documented in src/quant/message_codec.h: a
/// 12-byte header (magic, row count, dim), then per row a 1-byte width
/// tag, the (zero point, scale) float pair and the packed payload of
/// ceil(dim * bits / 8) bytes (dim * 4 bytes at 32 bits).
std::uint64_t codec_block_bytes(std::size_t rows, std::size_t dim, int bits);

/// Training-path message bytes of one epoch if every halo row travels at
/// `bits`: one block per non-empty directed device pair for the forward
/// exchange of every layer input, and one per pair for the backward
/// exchange of the gradient of every layer input but the first (the
/// features need no gradient). `layer_in_dims[l]` is layer l's input width.
std::uint64_t epoch_message_bytes(const adaqp::DistGraph& dist,
                                  std::span<const std::size_t> layer_in_dims,
                                  int bits);

/// How a workload's steady-epoch message bytes must relate to the totals.
enum class MessageRule {
  kExact32,       ///< every row at 32 bits, every epoch (Vanilla)
  kQuantized,     ///< between the all-2-bit and all-8-bit totals (AdaQP)
  kAtMostBcast,   ///< at most the broadcast-every-epoch total (SANCUS)
};

struct MessageTotals {
  std::uint64_t all2 = 0;
  std::uint64_t all8 = 0;
  std::uint64_t all32 = 0;  ///< also the broadcast-every-epoch total
};

MessageTotals message_totals(const adaqp::DistGraph& dist,
                             std::span<const std::size_t> layer_in_dims);

CheckResult check_message_bytes(MessageRule rule, std::uint64_t observed,
                                const MessageTotals& totals);

/// The distributed model's (val, test) evaluation must equal that of a
/// 1M-1D trainer holding the same parameters, exactly.
CheckResult check_eval_match(std::pair<double, double> distributed,
                             std::pair<double, double> single_device);

/// Frame and payload-byte conservation of the transport: everything sent
/// was delivered, and something was sent at all when `expect_traffic`.
struct FrameCounts {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_delivered = 0;
};
CheckResult check_conservation(const FrameCounts& counts, bool expect_traffic);

/// Training made progress: the final loss is finite and below the first
/// epoch's, and the best validation accuracy reached `target`.
CheckResult check_training(double first_loss, double final_loss,
                           double best_val, double target);

}  // namespace perfbench
