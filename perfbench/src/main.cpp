// perfbench: the measured benchmark of distributed full-graph training.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--method <m>] [--cluster <xM-yD>]
//             [--threads <n>]
//
// One process runs one training run of one named workload (README.md
// lists them): set-up (dataset, partition, dist graph, transport,
// trainer), a warm-up epoch, then rounds of ten train_epoch() calls and
// one evaluate() until at least `--seconds` have passed, at least 100
// steady epochs ran and the accuracy target was reached. It checks the
// outputs (checks.h) and prints, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written to <out>. The optional flags
// override the workload's method, cluster or thread count for the
// README's reference figures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/trainer.h"
#include "json_mini.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "spans.h"
#include "stats.h"
#include "timing_transport.h"
#include "transport/loopback.h"
#include "transport/tcp.h"

namespace perfbench {
namespace {

using adaqp::Method;
using Clock = std::chrono::steady_clock;

constexpr int kEvalEvery = 80;         ///< train epochs per round
constexpr double kTail = 0.9;           ///< epoch_ms_p90
constexpr std::size_t kMinBeyond = 10;   ///< samples beyond it (>= 100 epochs)
constexpr int kProfileEpochs = 11;     ///< traced profile pass: warm-up + 10
constexpr int kThreadCap = 4;
constexpr double kSpinSeconds = 1.0;   ///< see spin_cores()
/// Each workload trains on one fixed graph and partition, as the paper
/// partitions each fixed dataset once and trains it under several seeds:
/// --seed draws the training's randomness (weight initialisation, dropout,
/// stochastic rounding and with it AdaQP's bit assignment).
constexpr std::uint64_t kGraphSeed = 42;

struct Workload {
  const char* name;
  const char* dataset;  ///< adaqp::dataset_spec name
  std::size_t nodes;    ///< the spec's size, scaled up
  Method method;
  adaqp::Aggregator aggregator;
  int machines;
  int devices_per_machine;
  bool tcp;
  double val_target;  ///< validation accuracy (micro-F1 for multi-label)
};

// Sizes and targets are described, with their reasons, in README.md.
const Workload kWorkloads[] = {
    {"adaqp_loopback", "products_sim", 8000, Method::kAdaQP,
     adaqp::Aggregator::kGcn, 2, 4, false, 0.90},
    {"vanilla_loopback", "products_sim", 8000, Method::kVanilla,
     adaqp::Aggregator::kGcn, 2, 4, false, 0.90},
    {"adaqp_tcp", "products_sim", 8000, Method::kAdaQP,
     adaqp::Aggregator::kGcn, 2, 4, true, 0.90},
    {"sancus_sage", "amazon_sim", 3200, Method::kSancus,
     adaqp::Aggregator::kSageMean, 2, 4, false, 0.65},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out = ".bench_build/out";
  std::optional<std::string> method, cluster;
  int threads = 0;
};

[[noreturn]] void usage(const std::string& why) {
  throw std::invalid_argument(
      why + "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> [--out <dir>] [--method vanilla|adaqp|sancus] "
            "[--cluster <xM-yD>] [--threads <n>]");
}

long long parse_int(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  long long n = 0;
  try {
    n = std::stoll(v, &used);
  } catch (const std::exception&) {
    usage(flag + " needs a whole number, got '" + v + "'");
  }
  if (used != v.size() || n < 0)
    usage(flag + " needs a whole number, got '" + v + "'");
  return n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_int(flag, v));
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_int(flag, v));
      have_seconds = a.seconds >= 1;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--method") {
      a.method = v;
    } else if (flag == "--cluster") {
      a.cluster = v;
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(parse_int(flag, v));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (>= 1) and --trace are required");
  return a;
}

Method parse_method(const std::string& m) {
  if (m == "vanilla") return Method::kVanilla;
  if (m == "adaqp") return Method::kAdaQP;
  if (m == "sancus") return Method::kSancus;
  usage("unknown method '" + m + "'");
}

MessageRule rule_for(Method m) {
  switch (m) {
    case Method::kAdaQP: return MessageRule::kQuantized;
    case Method::kSancus: return MessageRule::kAtMostBcast;
    default: return MessageRule::kExact32;
  }
}

/// Dial every directed device pair the exchanges use, so the connection
/// set-up is paid (and timed) before training: one 1-byte frame per pair
/// on a channel of its own. Loopback delivers them in place.
void connect_pairs(adaqp::transport::Transport& tp,
                   const adaqp::DistGraph& dist) {
  const std::uint32_t channel = adaqp::transport::next_channel();
  const std::uint8_t hello = 0x5a;
  const std::span<const std::uint8_t> payload(&hello, 1);
  for (const adaqp::DeviceGraph& dev : dist.devices)
    for (std::size_t p = 0; p < dev.send_local.size(); ++p) {
      if (dev.send_local[p].empty()) continue;
      const adaqp::transport::FrameTag tag{channel, 0, 0,
                                           static_cast<std::uint8_t>(dev.device),
                                           static_cast<std::uint8_t>(p)};
      tp.send(tag, payload);
      if (tp.recv(tag, payload).size() != 1)
        throw std::runtime_error("transport: connect frame came back resized");
    }
}

/// Keep every pool thread busy for `seconds` before the timed epochs, so
/// that they start on cores already running at their working clock rather
/// than on cores that idled while set-up ran on one thread. An idle host
/// otherwise runs the first second of training up to 2.5x slower.
void spin_cores(double seconds) {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  adaqp::parallel_for_each(static_cast<std::size_t>(adaqp::num_threads()),
                           [until](std::size_t) {
                             while (Clock::now() < until) {
                             }
                           });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
      << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

/// Per-steady-epoch samples of the traced run, one vector per quantity.
struct Samples {
  std::map<std::string, std::vector<double>> series;
  void add(const std::string& key, double v) { series[key].push_back(v); }
  double median_of(const std::string& key) const {
    const auto it = series.find(key);
    return it == series.end() ? 0.0 : median(it->second);
  }
  double mean_of(const std::string& key) const {
    const auto it = series.find(key);
    return it == series.end() ? 0.0 : mean(it->second);
  }
};

/// Registry and decorator counters read around each traced epoch.
struct CounterSnap {
  std::uint64_t encode_ns, decode_ns, encode_calls, encode_bytes, messages,
      stages, pool_tasks, detached, short_writes, solves;
  std::array<std::uint64_t, adaqp::obs::kNumWidths> wire{};
  double solve_us;
  TimingTransport::Counts tp;
};

CounterSnap snap(const TimingTransport& tp) {
  const adaqp::obs::Instruments& in = adaqp::obs::instruments();
  CounterSnap s{in.codec_encode_ns.value(),   in.codec_decode_ns.value(),
                in.codec_encode_calls.value(), in.codec_encode_bytes.value(),
                in.exchange_messages.value(),  in.pipeline_stages.value(),
                in.pool_tasks.value(),         in.pool_detached_tasks.value(),
                in.transport_short_writes.value(), in.assigner_solves.value(),
                {},                            in.assigner_solve_us.sum(),
                tp.counts()};
  for (int w = 0; w < adaqp::obs::kNumWidths; ++w)
    s.wire[w] = in.exchange_wire_bytes[w]->value();
  return s;
}

void add_deltas(Samples& s, const CounterSnap& a, const CounterSnap& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  s.add("quant.encode_ms", d(a.encode_ns, b.encode_ns) * 1e-6);
  s.add("quant.decode_ms", d(a.decode_ns, b.decode_ns) * 1e-6);
  s.add("quant.encode_calls", d(a.encode_calls, b.encode_calls));
  s.add("quant.encoded_mb", d(a.encode_bytes, b.encode_bytes) * 1e-6);
  s.add("pipeline.messages", d(a.messages, b.messages));
  static const char* kWidthKeys[] = {"pipeline.message_mb_b2",
                                     "pipeline.message_mb_b4",
                                     "pipeline.message_mb_b8",
                                     "pipeline.message_mb_b32"};
  for (int w = 0; w < adaqp::obs::kNumWidths; ++w)
    s.add(kWidthKeys[w], d(a.wire[w], b.wire[w]) * 1e-6);
  s.add("pipeline.stages", d(a.stages, b.stages));
  s.add("runtime.pool_tasks", d(a.pool_tasks, b.pool_tasks));
  s.add("runtime.detached_tasks", d(a.detached, b.detached));
  s.add("transport.short_writes", d(a.short_writes, b.short_writes));
  s.add("assign.solves", d(a.solves, b.solves));
  s.add("assign.solve_ms", (b.solve_us - a.solve_us) * 1e-3);
  s.add("transport.send_ms", d(a.tp.send_ns, b.tp.send_ns) * 1e-6);
  s.add("transport.recv_ms", d(a.tp.recv_ns, b.tp.recv_ns) * 1e-6);
  s.add("transport.frames",
        d(a.tp.frames.frames_delivered, b.tp.frames.frames_delivered));
  s.add("transport.payload_mb",
        d(a.tp.frames.bytes_delivered, b.tp.frames.bytes_delivered) * 1e-6);
  s.add("transport.framed_mb", d(a.tp.framed_bytes, b.tp.framed_bytes) * 1e-6);
}

double json_number(const jsonmini::ValuePtr& obj, const std::string& key) {
  if (!obj || obj->type != jsonmini::Value::kObject) return 0.0;
  const auto it = obj->object.find(key);
  if (it == obj->object.end() || it->second->type != jsonmini::Value::kNumber)
    return 0.0;
  return it->second->number;
}

jsonmini::ValuePtr json_field(const jsonmini::ValuePtr& obj,
                              const std::string& key) {
  if (!obj || obj->type != jsonmini::Value::kObject) return nullptr;
  const auto it = obj->object.find(key);
  return it == obj->object.end() ? nullptr : it->second;
}

/// Run kProfileEpochs epochs through DistTrainer::run() with an
/// ADAQP_METRICS report armed and fold the steady epochs of its
/// adaqp-profile-v1 section (and the per-epoch overlap rows) into medians.
void profile_pass(const adaqp::Dataset& ds, const adaqp::DistGraph& dist,
                  const adaqp::ClusterSpec& cluster,
                  const adaqp::ModelConfig& mcfg, adaqp::TrainOptions opts,
                  const std::string& report_path, Samples& out) {
  opts.epochs = kProfileEpochs;
  opts.eval_every_epoch = false;
  {
    adaqp::obs::MetricsGuard guard(report_path);
    adaqp::DistTrainer trainer(ds, dist, cluster, mcfg, opts);
    trainer.run();
  }
  std::ifstream in(report_path);
  std::stringstream text;
  text << in.rdbuf();
  const jsonmini::ValuePtr root = jsonmini::Parser(text.str()).parse();
  const jsonmini::ValuePtr profile = json_field(root, "profile");
  const jsonmini::ValuePtr pepochs = json_field(profile, "epochs");
  const jsonmini::ValuePtr repochs = json_field(root, "epochs");
  if (!pepochs || pepochs->type != jsonmini::Value::kArray || !repochs ||
      repochs->type != jsonmini::Value::kArray)
    throw std::runtime_error("metrics report has no profile section");
  static const std::pair<const char*, const char*> kAttribution[] = {
      {"central_s", "pipeline.central_ms"},
      {"marginal_s", "pipeline.marginal_ms"},
      {"encode_s", "pipeline.encode_ms"},
      {"wire_s", "pipeline.wire_ms"},
      {"decode_s", "pipeline.decode_ms"},
      {"fold_s", "pipeline.fold_ms"},
      {"scheduling_s", "pipeline.scheduling_ms"},
      {"serial_s", "pipeline.serial_ms"}};
  for (std::size_t e = 1; e < pepochs->array.size(); ++e) {
    const jsonmini::ValuePtr& pe = pepochs->array[e];
    out.add("pipeline.critical_path_ms",
            json_number(pe, "critical_path_s") * 1e3);
    const jsonmini::ValuePtr attr = json_field(pe, "attribution");
    for (const auto& [key, metric] : kAttribution)
      out.add(metric, json_number(attr, key) * 1e3);
  }
  for (std::size_t e = 1; e < repochs->array.size(); ++e) {
    const jsonmini::ValuePtr ov = json_field(repochs->array[e], "overlap");
    out.add("pipeline.fwd_overlap",
            json_number(json_field(ov, "forward"), "efficiency"));
    out.add("pipeline.bwd_overlap",
            json_number(json_field(ov, "backward"), "efficiency"));
  }
}

int run(const Args& args, Clock::time_point process_start) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) found = &w;
  if (!found) usage("unknown workload '" + args.workload + "'");
  Workload w = *found;
  if (args.method) w.method = parse_method(*args.method);
  if (args.cluster) {
    const std::string& c = *args.cluster;
    const std::size_t m = c.find('M'), dash = c.find('-'), d = c.find('D');
    if (m == std::string::npos || dash != m + 1 || d != c.size() - 1)
      usage("--cluster must look like 2M-4D");
    w.machines = static_cast<int>(parse_int("--cluster", c.substr(0, m)));
    w.devices_per_machine = static_cast<int>(
        parse_int("--cluster", c.substr(dash + 1, d - dash - 1)));
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads =
      args.threads > 0 ? args.threads : std::clamp(hw, 1, kThreadCap);
  adaqp::set_num_threads(threads);

  SpanRecorder spans(process_start, 4096);
  const adaqp::ClusterSpec cluster =
      adaqp::ClusterSpec::machines(w.machines, w.devices_per_machine);

  // ---- set-up: everything up to a trainer ready for its first epoch ------
  const int setup = spans.begin("setup");
  int s = spans.begin("data.generate", setup);
  adaqp::DatasetSpec spec = adaqp::dataset_spec(w.dataset);
  spec.num_nodes = w.nodes;
  adaqp::Rng data_rng(kGraphSeed);
  const adaqp::Dataset ds = adaqp::make_dataset(spec, data_rng);
  spans.end(s);

  s = spans.begin("partition.partition", setup);
  adaqp::Rng part_rng(kGraphSeed * 7919 + 17);
  const adaqp::PartitionResult part = adaqp::MultilevelPartitioner().partition(
      ds.graph, cluster.num_devices(), part_rng);
  spans.end(s);

  s = spans.begin("dist.build", setup);
  const adaqp::DistGraph dist = adaqp::build_dist_graph(ds.graph, part);
  spans.end(s);

  s = spans.begin("transport.connect", setup);
  std::unique_ptr<adaqp::transport::Transport> backend;
  if (w.tcp)
    backend = std::make_unique<adaqp::transport::TcpTransport>(
        adaqp::transport::TcpOptions{});
  else
    backend = std::make_unique<adaqp::transport::LoopbackTransport>();
  auto timing = std::make_unique<TimingTransport>(std::move(backend),
                                                  args.trace);
  TimingTransport& tp = *timing;
  adaqp::transport::ScopedTransport scope(std::move(timing));
  if (w.tcp) connect_pairs(tp, dist);
  const double connect_s = spans.end(s);

  s = spans.begin("core.construct", setup);
  adaqp::ModelConfig mcfg;
  mcfg.aggregator = w.aggregator;
  mcfg.in_dim = spec.feature_dim;
  mcfg.hidden_dim = 64;
  mcfg.out_dim = spec.num_classes;
  mcfg.num_layers = 3;
  adaqp::TrainOptions opts;
  opts.method = w.method;
  opts.seed = args.seed;
  opts.eval_every_epoch = false;
  adaqp::DistTrainer trainer(ds, dist, cluster, mcfg, opts);
  spans.end(s);
  spans.end(setup);
  const double setup_s = spans.at(setup).end_s;  // from the process's start

  std::vector<std::size_t> in_dims;
  for (int l = 0; l < trainer.model().num_layers(); ++l)
    in_dims.push_back(trainer.model().layer_in_dim(l));
  const MessageTotals totals = message_totals(dist, in_dims);
  const MessageRule rule = rule_for(w.method);

  spin_cores(kSpinSeconds);

  // ---- training: warm-up epoch, then rounds of kEvalEvery epochs + eval --
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::vector<double> epoch_ms, message_mb;
  Samples samples;
  double first_loss = 0, last_loss = 0, warmup_ms = 0, best_val = -1;
  std::optional<double> time_to_target;
  std::pair<double, double> last_eval{0, 0};
  const double cap_s = args.seconds * 2 + 10;
  const int train = spans.begin("train");
  const double t0 = spans.at(train).begin_s;
  for (int epoch = 0;; ++epoch) {
    const CounterSnap before = args.trace ? snap(tp) : CounterSnap{};
    const std::size_t bytes_before = trainer.total_comm_bytes();
    const int e = spans.begin("core.train_epoch", train);
    const adaqp::EpochRecord rec = trainer.train_epoch();
    const double dt = spans.end(e);
    ++attempted;
    last_loss = rec.train_loss;
    const std::uint64_t bytes = trainer.total_comm_bytes() - bytes_before;
    if (epoch == 0) {
      first_loss = rec.train_loss;
      warmup_ms = dt * 1e3;
    } else {
      epoch_ms.push_back(dt * 1e3);
      message_mb.push_back(static_cast<double>(bytes) * 1e-6);
      if (CheckResult bad = check_message_bytes(rule, bytes, totals);
          bad && failures.empty())
        failures.push_back("epoch " + std::to_string(epoch) + ": " + *bad);
      if (args.trace) {
        add_deltas(samples, before, snap(tp));
        const adaqp::obs::PhaseWall& wall = trainer.last_wall_report();
        samples.add("core.forward_ms", wall.forward_s * 1e3);
        samples.add("core.backward_ms", wall.backward_s * 1e3);
        samples.add("core.optimizer_ms", wall.optimizer_s * 1e3);
        samples.add("core.refresh_ms", wall.refresh_s * 1e3);
        samples.add("memory.epoch_allocs",
                    static_cast<double>(trainer.last_alloc_report().total()));
        samples.add("comm.sim_epoch_ms", rec.time.total * 1e3);
      }
    }
    if (epoch == 0 || epoch % kEvalEvery != 0) continue;
    const int ev = spans.begin("core.evaluate", train);
    last_eval = trainer.evaluate();
    spans.end(ev);
    ++attempted;
    best_val = std::max(best_val, last_eval.first);
    std::fprintf(stderr, "perfbench: epoch %d loss %.4f val %.4f test %.4f\n",
                 epoch, rec.train_loss, last_eval.first, last_eval.second);
    if (!time_to_target && last_eval.first >= w.val_target)
      time_to_target = spans.at(ev).end_s - t0;
    const double elapsed = spans.now_s() - t0;
    if ((samples_beyond(epoch_ms.size(), kTail) >= kMinBeyond &&
         elapsed >= args.seconds && time_to_target) ||
        elapsed >= cap_s)
      break;
  }
  spans.end(train);
  const double rss_mb = peak_rss_mb();

  // ---- checks -------------------------------------------------------------
  if (CheckResult bad = check_training(first_loss, last_loss, best_val,
                                       w.val_target))
    failures.push_back(*bad);
  if (samples_beyond(epoch_ms.size(), kTail) < kMinBeyond)
    failures.push_back("only " + std::to_string(epoch_ms.size()) +
                       " steady epochs ran: too few for a p90");
  const bool has_pairs = totals.all32 > 0;
  if (CheckResult bad = check_conservation(tp.counts().frames, has_pairs))
    failures.push_back(*bad);
  {
    const int v = spans.begin("check.single_device_eval");
    adaqp::PartitionResult one;
    one.num_parts = 1;
    one.part_of.assign(ds.num_nodes(), 0);
    const adaqp::DistGraph dist1 = adaqp::build_dist_graph(ds.graph, one);
    adaqp::DistTrainer single(ds, dist1, adaqp::ClusterSpec::machines(1, 1),
                              mcfg, opts);
    const std::vector<adaqp::Param*> from = trainer.model().params();
    const std::vector<adaqp::Param*> to = single.model().params();
    if (from.size() != to.size())
      throw std::runtime_error("1M-1D model has a different parameter set");
    for (std::size_t i = 0; i < from.size(); ++i) to[i]->value = from[i]->value;
    if (CheckResult bad = check_eval_match(last_eval, single.evaluate()))
      failures.push_back(*bad);
    spans.end(v);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"epoch_ms", median(epoch_ms), "ms"},
        {"epoch_ms_p90", percentile(epoch_ms, kTail), "ms"},
        {"time_to_target_s", time_to_target.value_or(spans.at(train).end_s - t0),
         "s"},
        {"setup_s", setup_s, "s"},
        {"message_mb_per_epoch", median(message_mb), "MB"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    std::filesystem::create_directories(args.out);
    const std::string stem = args.out + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    profile_pass(ds, dist, cluster, mcfg, opts, stem + "-metrics.json",
                 samples);
    std::size_t halo = 0, marginal = 0, central = 0;
    for (const adaqp::DeviceGraph& dev : dist.devices) {
      halo += dev.num_halo;
      marginal += dev.marginal_nodes.size();
      central += dev.central_nodes.size();
    }
    std::vector<double> eval_ms;
    for (const Span& sp : spans.spans())
      if (std::string_view(sp.name) == "core.evaluate")
        eval_ms.push_back(sp.seconds() * 1e3);
    const auto span_s = [&](const char* name) {
      for (const Span& sp : spans.spans())
        if (std::string_view(sp.name) == name) return sp.seconds();
      return 0.0;
    };
    const auto med = [&](const char* k) { return samples.median_of(k); };
    const auto avg = [&](const char* k) { return samples.mean_of(k); };
    metrics = {
        {"trace.epoch_ms", median(epoch_ms), "ms"},
        {"data.generate_s", span_s("data.generate"), "s"},
        {"partition.partition_s", span_s("partition.partition"), "s"},
        {"dist.build_s", span_s("dist.build"), "s"},
        {"core.construct_s", span_s("core.construct"), "s"},
        {"transport.connect_s", w.tcp ? connect_s : 0.0, "s"},
        {"partition.halo_rows", static_cast<double>(halo), "count"},
        {"partition.marginal_rows", static_cast<double>(marginal), "count"},
        {"partition.central_rows", static_cast<double>(central), "count"},
        {"core.forward_ms", med("core.forward_ms"), "ms"},
        {"core.backward_ms", med("core.backward_ms"), "ms"},
        {"core.optimizer_ms", med("core.optimizer_ms"), "ms"},
        {"core.refresh_ms", avg("core.refresh_ms"), "ms"},
        {"core.warmup_epoch_ms", warmup_ms, "ms"},
        {"core.evaluate_ms", median(eval_ms), "ms"},
        {"memory.epoch_allocs", med("memory.epoch_allocs"), "count"},
        {"quant.encode_ms", med("quant.encode_ms"), "ms"},
        {"quant.decode_ms", med("quant.decode_ms"), "ms"},
        {"quant.encode_calls", med("quant.encode_calls"), "count"},
        {"quant.encoded_mb", med("quant.encoded_mb"), "MB"},
        {"pipeline.messages", med("pipeline.messages"), "count"},
        {"pipeline.message_mb_b2", med("pipeline.message_mb_b2"), "MB"},
        {"pipeline.message_mb_b4", med("pipeline.message_mb_b4"), "MB"},
        {"pipeline.message_mb_b8", med("pipeline.message_mb_b8"), "MB"},
        {"pipeline.message_mb_b32", med("pipeline.message_mb_b32"), "MB"},
        {"assign.solves", avg("assign.solves"), "count"},
        {"assign.solve_ms", avg("assign.solve_ms"), "ms"},
        {"transport.send_ms", med("transport.send_ms"), "ms"},
        {"transport.recv_ms", med("transport.recv_ms"), "ms"},
        {"transport.frames", med("transport.frames"), "count"},
        {"transport.payload_mb", med("transport.payload_mb"), "MB"},
        {"transport.framed_mb", med("transport.framed_mb"), "MB"},
        {"transport.short_writes", med("transport.short_writes"), "count"},
        {"pipeline.critical_path_ms", med("pipeline.critical_path_ms"), "ms"},
        {"pipeline.central_ms", med("pipeline.central_ms"), "ms"},
        {"pipeline.marginal_ms", med("pipeline.marginal_ms"), "ms"},
        {"pipeline.encode_ms", med("pipeline.encode_ms"), "ms"},
        {"pipeline.wire_ms", med("pipeline.wire_ms"), "ms"},
        {"pipeline.decode_ms", med("pipeline.decode_ms"), "ms"},
        {"pipeline.fold_ms", med("pipeline.fold_ms"), "ms"},
        {"pipeline.scheduling_ms", med("pipeline.scheduling_ms"), "ms"},
        {"pipeline.serial_ms", med("pipeline.serial_ms"), "ms"},
        {"pipeline.fwd_overlap", med("pipeline.fwd_overlap"), "ratio"},
        {"pipeline.bwd_overlap", med("pipeline.bwd_overlap"), "ratio"},
        {"pipeline.stages", med("pipeline.stages"), "count"},
        {"runtime.pool_tasks", med("runtime.pool_tasks"), "count"},
        {"runtime.detached_tasks", med("runtime.detached_tasks"), "count"},
        {"comm.sim_epoch_ms", med("comm.sim_epoch_ms"), "ms"},
    };
    if (!spans.write_chrome_trace(stem + "-spans.json"))
      std::fprintf(stderr, "perfbench: could not write %s-spans.json\n",
                   stem.c_str());
  }

  for (const std::string& f : failures)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %s, %s, %d threads, %zu steady "
               "epochs, best val %.4f (target %.2f), %s\n",
               w.name, static_cast<unsigned long long>(args.seed),
               adaqp::method_name(w.method).c_str(),
               cluster.partition_setting().c_str(), threads, epoch_ms.size(),
               best_val, w.val_target, w.tcp ? "tcp" : "loopback");
  print_result(failures.empty(), attempted, 0, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv), process_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
