// Self-tests of the benchmark's own code: the order statistics with their
// sample counts, and every output check fed both a good input and a
// perturbed one (a byte total off by one, a mismatched evaluation, an
// unbalanced frame count). Exit code 0 when every test passes.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "checks.h"
#include "dist/dist_graph.h"
#include "graph/graph.h"
#include "stats.h"
#include "timing_transport.h"
#include "transport/loopback.h"

namespace {

int g_failed = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failed;
  }
}
#define EXPECT(cond) expect(static_cast<bool>(cond), #cond, __LINE__)

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_stats() {
  using namespace perfbench;
  EXPECT(median(one_to(1)) == 1.0);
  EXPECT(median(one_to(5)) == 3.0);
  EXPECT(median(one_to(100)) == 50.5);
  EXPECT(throws([] { median({}); }));

  // Nearest rank: 100 samples -> p90 is the 90th smallest, 10 beyond it.
  EXPECT(percentile_rank(100, 0.9) == 90);
  EXPECT(percentile(one_to(100), 0.9) == 90.0);
  EXPECT(samples_beyond(100, 0.9) == 10);
  // 99 samples leave only 9 beyond p90 — too few for a tail figure.
  EXPECT(samples_beyond(99, 0.9) == 9);
  EXPECT(percentile(one_to(10), 0.9) == 9.0);
  EXPECT(samples_beyond(10, 0.9) == 1);
  EXPECT(percentile(one_to(7), 0.5) == 4.0);
  EXPECT(percentile(one_to(3), 1.0) == 3.0);
  EXPECT(percentile_rank(1, 0.01) == 1);
  EXPECT(throws([] { percentile(one_to(3), 0.0); }));
  EXPECT(throws([] { percentile(one_to(3), 1.5); }));
  EXPECT(throws([] { percentile({}, 0.5); }));
  EXPECT(mean(one_to(4)) == 2.5);
}

// Two devices, a path 0-1-2-3 split {0,1} | {2,3}: one halo row each way.
adaqp::DistGraph two_device_path() {
  const adaqp::Graph g = adaqp::build_graph(
      4, std::vector<std::pair<adaqp::NodeId, adaqp::NodeId>>{
             {0, 1}, {1, 2}, {2, 3}});
  adaqp::PartitionResult part;
  part.num_parts = 2;
  part.part_of = {0, 0, 1, 1};
  return adaqp::build_dist_graph(g, part);
}

void test_message_totals() {
  using namespace perfbench;
  // Block layout: 12-byte header, per row 1 tag + 8 meta + payload.
  EXPECT(codec_block_bytes(1, 8, 32) == 12 + 1 + 8 + 32);
  EXPECT(codec_block_bytes(2, 8, 2) == 12 + 2 * (1 + 8 + 2));
  EXPECT(codec_block_bytes(1, 5, 4) == 12 + 1 + 8 + 3);  // 20 bits -> 3 B
  EXPECT(codec_block_bytes(0, 64, 8) == 12);

  const adaqp::DistGraph dist = two_device_path();
  const std::vector<std::size_t> dims{8, 16};
  // Layer 0: forward only (2 pairs); layer 1: forward + backward (4 blocks).
  const std::uint64_t want32 =
      2 * codec_block_bytes(1, 8, 32) + 4 * codec_block_bytes(1, 16, 32);
  const MessageTotals t = message_totals(dist, dims);
  EXPECT(t.all32 == want32);
  EXPECT(t.all2 < t.all8 && t.all8 < t.all32);

  EXPECT(!check_message_bytes(MessageRule::kExact32, t.all32, t));
  EXPECT(check_message_bytes(MessageRule::kExact32, t.all32 + 1, t));
  EXPECT(check_message_bytes(MessageRule::kExact32, t.all32 - 1, t));
  EXPECT(!check_message_bytes(MessageRule::kQuantized, t.all2, t));
  EXPECT(!check_message_bytes(MessageRule::kQuantized, t.all8, t));
  EXPECT(check_message_bytes(MessageRule::kQuantized, t.all2 - 1, t));
  EXPECT(check_message_bytes(MessageRule::kQuantized, t.all8 + 1, t));
  EXPECT(!check_message_bytes(MessageRule::kAtMostBcast, 0, t));
  EXPECT(!check_message_bytes(MessageRule::kAtMostBcast, t.all32, t));
  EXPECT(check_message_bytes(MessageRule::kAtMostBcast, t.all32 + 1, t));
}

void test_eval_match() {
  using perfbench::check_eval_match;
  EXPECT(!check_eval_match({0.75, 0.5}, {0.75, 0.5}));
  EXPECT(check_eval_match({0.75, 0.5}, {0.75, 0.5000001}));
  EXPECT(check_eval_match({0.75, 0.5}, {0.7500001, 0.5}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT(check_eval_match({nan, 0.5}, {nan, 0.5}));
}

void test_conservation() {
  using perfbench::check_conservation;
  using perfbench::FrameCounts;
  EXPECT(!check_conservation(FrameCounts{4, 100, 4, 100}, true));
  EXPECT(check_conservation(FrameCounts{4, 100, 3, 100}, true));
  EXPECT(check_conservation(FrameCounts{4, 100, 4, 99}, true));
  EXPECT(check_conservation(FrameCounts{0, 0, 0, 0}, true));
  EXPECT(!check_conservation(FrameCounts{0, 0, 0, 0}, false));
}

void test_training() {
  using perfbench::check_training;
  EXPECT(!check_training(2.0, 1.0, 0.8, 0.7));
  EXPECT(check_training(2.0, 2.0, 0.8, 0.7));
  EXPECT(check_training(2.0, std::nan(""), 0.8, 0.7));
  EXPECT(check_training(2.0, 1.0, 0.69, 0.7));
}

void test_timing_transport() {
  // The decorator counts what crosses it and forwards the zero-alloc
  // property and (in-place) delivery of the backend it wraps.
  perfbench::TimingTransport tp(
      std::make_unique<adaqp::transport::LoopbackTransport>(), true);
  EXPECT(tp.zero_alloc_delivery());
  const std::uint8_t bytes[5] = {1, 2, 3, 4, 5};
  const adaqp::transport::FrameTag tag{1, 0, 0, 0, 1};
  EXPECT(tp.local_delivery(tag));
  tp.send(tag, bytes);
  const auto got = tp.recv(tag, bytes);
  EXPECT(got.data() == bytes && got.size() == 5);
  const perfbench::TimingTransport::Counts c = tp.counts();
  EXPECT(c.frames.frames_sent == 1 && c.frames.bytes_sent == 5);
  EXPECT(c.frames.frames_delivered == 1 && c.frames.bytes_delivered == 5);
  EXPECT(c.framed_bytes == 0);  // loopback frames never hit a stream
  EXPECT(tp.stats().frames_delivered == 1);
  EXPECT(!perfbench::check_conservation(c.frames, true));
  tp.send(tag, bytes);  // sent, never received: unbalanced
  EXPECT(perfbench::check_conservation(tp.counts().frames, true));
}

}  // namespace

int main() {
  test_stats();
  test_message_totals();
  test_eval_match();
  test_conservation();
  test_training();
  test_timing_transport();
  if (g_failed) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failed);
    return 1;
  }
  std::printf("perfbench selftest: all passed\n");
  return 0;
}
