// pipebench: the repository's end-to-end benchmark driver.
//
// One process runs one workload (see README.md in this directory for why each exists):
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome.json>] [--break-reference]
//
// Every workload has the same shape, so every end-to-end metric is measured on each:
//
//   set-up  : ProfileModel + PartitionFlat + SimulatePipeline + PipelineTrainer ctor
//   train   : a fixed number of epochs on a fixed 4-stage straight plan (epoch 0 = warm-up)
//   set-up  : PipelineServer ctor + Start + warm-up requests on the trained model (3 stages)
//   serve   : a closed loop (K requests outstanding), then an open loop of seeded Poisson
//             arrivals at the workload's fixed rate, latency timed from each due time
//   check   : loss finite and below epoch 0's; sampled responses == a full-model Forward;
//             the open loop ran well below the closed-loop capacity, its generator on time
//
// That sequence (a "repeat") runs again until --seconds have elapsed (at least twice), so
// each run reports medians over repeats and checks that the loss trajectory repeats bitwise.
// With --trace 1 the repeats alternate between untraced and span-traced, a single-worker
// baseline trains the same minibatches, and the benchmark times its own calls into each
// module at the workload's shapes; the program under test is not modified.
//
// The last line of stdout is one JSON object holding every metric with its median, upper
// percentile and sample count, plus provenance and the correctness verdict. run.py wraps
// it into the benchmark's result format.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/data/dataset.h"
#include "src/graph/activation.h"
#include "src/graph/conv.h"
#include "src/graph/dense.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/graph/pool.h"
#include "src/graph/sequential.h"
#include "src/graph/shape_ops.h"
#include "src/obs/bubble.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/optim/adam.h"
#include "src/optim/sgd.h"
#include "src/planner/partitioner.h"
#include "src/planner/plan.h"
#include "src/profile/profiler.h"
#include "src/runtime/checkpoint.h"
#include "src/runtime/mailbox.h"
#include "src/runtime/pipeline_trainer.h"
#include "src/runtime/serving.h"
#include "src/runtime/transport.h"
#include "src/simexec/pipeline_sim.h"
#include "src/tensor/ops.h"
#include "src/tensor/pool.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

using namespace pipedream;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr int kTrainStages = 4;
constexpr int kServeStages = 3;
// Responses checked against a full-model Forward per serving loop (closed and open).
constexpr int kCheckedResponses = 24;
// Serving admission window, and the requests a closed-loop client keeps outstanding.
constexpr int kServeWindow = 8;
constexpr int kClosedOutstanding = 6;
// Open-loop validity: latency timed from each due time describes the server only while the
// arrival rate stays well below the closed-loop capacity (no queue growth) and the generator
// submits on time.
constexpr double kMaxOpenUtilization = 0.7;
constexpr double kMaxGeneratorLagShare = 0.5;  // of serve_p50_ms, both at the median

// A workload fixes the task (data distribution), the model and its initial weights, the
// plan and the runtime options. The seed draws only the inputs: the training samples, their
// order, and the serving traffic. Fixing the task keeps seed-to-seed spread of the loss
// metrics down to sampling noise instead of task difficulty.
struct Workload {
  const char* name;
  TransportKind transport;
  ScheduleKind schedule;
  int chunks;        // virtual chunk-stages per physical worker (kInterleaved)
  bool checkpoint;   // recovery armed + SaveCheckpoint after every epoch
  int64_t batch;
  int epochs;              // fixed training length; epoch 0 is the warm-up epoch
  int epoch_minibatches;   // trainer epoch length
  double loss_target;
  std::function<std::unique_ptr<Optimizer>()> optimizer;
  std::vector<int> train_cuts;  // first layer of training stages 1..3
  std::vector<int> serve_cuts;  // first layer of serving stages 1..2
  std::function<std::unique_ptr<Sequential>()> build_model;
  // Draws `n` samples of the workload's task from `seed`.
  std::function<Dataset(int64_t n, uint64_t seed)> make_data;
  // Serving traffic: each request carries U[1, max_rows] samples.
  int64_t max_rows;
  int closed_requests;
  double open_rate_per_s;  // fixed absolute arrival rate (also stated in BENCHMARK.json)
  int open_requests;
  // GEMM probe at the workload's dominant shape.
  int64_t gemm_m, gemm_k, gemm_n;
  bool probe_serving_message;  // size the checksum/serialization probe as a request hop

  int64_t train_samples() const { return batch * epochs * epoch_minibatches; }
};

// Fixed task seeds: the data distribution and initial weights of each workload.
constexpr uint64_t kTaskSeed = 0x5EED;
constexpr uint64_t kInitSeed = 0x1417;

// Sample stream of one run: decorrelated from the task seed.
Rng SampleRng(uint64_t seed) { return Rng(seed * 0x9E3779B97F4A7C15ULL + 0xB5); }

// Images whose class templates are smooth (4x4 per channel, upsampled), plus per-pixel
// noise, scaled to unit variance. Convolutions and pooling can pick such patterns up; the
// white-noise templates of MakeSyntheticImages are not what a conv net's bias suits.
Dataset SmoothImages(int64_t classes, int64_t size, double noise, int64_t n, uint64_t seed) {
  constexpr int64_t kChannels = 3;
  constexpr int64_t kCoarse = 4;
  Rng task(kTaskSeed);
  std::vector<float> templates(static_cast<size_t>(classes * kChannels * kCoarse * kCoarse));
  for (float& v : templates) {
    v = static_cast<float>(task.Gaussian());
  }
  Rng rng = SampleRng(seed);
  const int64_t up = size / kCoarse;
  const float scale = 1.0f / std::sqrt(1.0f + static_cast<float>(noise * noise));
  Dataset d;
  d.inputs = Tensor({n, kChannels, size, size});
  d.targets = Tensor({n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(classes)));
    d.targets[i] = static_cast<float>(c);
    for (int64_t k = 0; k < kChannels; ++k) {
      for (int64_t y = 0; y < size; ++y) {
        for (int64_t x = 0; x < size; ++x) {
          const float t =
              templates[static_cast<size_t>(((c * kChannels + k) * kCoarse + y / up) * kCoarse +
                                            x / up)];
          d.inputs.At4(i, k, y, x) = scale * (t + static_cast<float>(rng.Gaussian(0.0, noise)));
        }
      }
    }
  }
  return d;
}

// Isotropic Gaussian clusters around fixed N(0, I) centers (MakeGaussianMixture's task with
// the centers pinned).
Dataset GaussianClusters(int64_t classes, int64_t dim, double spread, int64_t n,
                         uint64_t seed) {
  Rng task(kTaskSeed);
  std::vector<float> centers(static_cast<size_t>(classes * dim));
  for (float& v : centers) {
    v = static_cast<float>(task.Gaussian());
  }
  Rng rng = SampleRng(seed);
  Dataset d;
  d.inputs = Tensor({n, dim});
  d.targets = Tensor({n});
  for (int64_t i = 0; i < n; ++i) {
    const int64_t c = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(classes)));
    d.targets[i] = static_cast<float>(c);
    for (int64_t j = 0; j < dim; ++j) {
      d.inputs.At(i, j) = centers[static_cast<size_t>(c * dim + j)] +
                          static_cast<float>(rng.Gaussian(0.0, spread));
    }
  }
  return d;
}

// Next-token prediction over a fixed random Markov chain (MakeMarkovLm's task with the
// transition matrix pinned): inputs [n, len] tokens, targets the following tokens.
Dataset MarkovSequences(int64_t vocab, int64_t len, double temperature, int64_t n,
                        uint64_t seed) {
  Rng task(kTaskSeed);
  std::vector<double> cdf(static_cast<size_t>(vocab * vocab));
  for (int64_t a = 0; a < vocab; ++a) {
    double sum = 0.0;
    for (int64_t b = 0; b < vocab; ++b) {
      sum += std::exp(task.Gaussian() / temperature);
      cdf[static_cast<size_t>(a * vocab + b)] = sum;
    }
    for (int64_t b = 0; b < vocab; ++b) {
      cdf[static_cast<size_t>(a * vocab + b)] /= sum;
    }
  }
  Rng rng = SampleRng(seed);
  Dataset d;
  d.inputs = Tensor({n, len});
  d.targets = Tensor({n, len});
  for (int64_t i = 0; i < n; ++i) {
    int64_t state = static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(vocab)));
    for (int64_t t = 0; t < len; ++t) {
      d.inputs.At(i, t) = static_cast<float>(state);
      const double u = rng.NextDouble();
      const double* row = cdf.data() + state * vocab;
      state = std::min<int64_t>(std::upper_bound(row, row + vocab, u) - row, vocab - 1);
      d.targets.At(i, t) = static_cast<float>(state);
    }
  }
  return d;
}

// The conv net of cnn_1f1b: VGG-style blocks of two 3x3 convs and a 2x2 max-pool, doubling
// the width as the resolution halves, so conv compute dominates the per-hop message bytes.
// The head starts small so the first epochs descend from ln(10) instead of a saturated
// softmax.
std::unique_ptr<Sequential> BuildBenchVgg() {
  Rng rng(kInitSeed);
  auto model = std::make_unique<Sequential>();
  int64_t in = 3;
  for (int b = 0; b < 3; ++b) {
    const int64_t w = int64_t{32} << b;
    model->Add(std::make_unique<Conv2D>(StrFormat("conv%da", b), in, w, 3, 1, 1, &rng));
    model->Add(std::make_unique<Activation>(StrFormat("relu%da", b), ActivationKind::kRelu));
    model->Add(std::make_unique<Conv2D>(StrFormat("conv%db", b), w, w, 3, 1, 1, &rng));
    model->Add(std::make_unique<Activation>(StrFormat("relu%db", b), ActivationKind::kRelu));
    model->Add(std::make_unique<MaxPool2D>(StrFormat("pool%d", b), 2, 2));
    in = w;
  }
  model->Add(std::make_unique<Flatten>("flatten"));
  auto head = std::make_unique<Dense>("head", in * 2 * 2, 10, &rng);
  for (Parameter* p : head->Params()) {
    for (int64_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] *= 0.05f;
    }
  }
  model->Add(std::move(head));
  return model;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w;
    // Compute-bound: wide convs with pooled (small) boundaries, in-proc hops. Stages:
    // block0 | block1 | conv2a | conv2b + head.
    w.push_back(Workload{
        "cnn_1f1b", TransportKind::kInProc, ScheduleKind::kOneFOneB, 1, false,
        /*batch=*/16, /*epochs=*/4, /*epoch_minibatches=*/20, /*loss_target=*/2.0,
        [] { return std::make_unique<Sgd>(0.003, 0.5); },
        /*train_cuts=*/{5, 10, 12}, /*serve_cuts=*/{5, 10}, BuildBenchVgg,
        [](int64_t n, uint64_t seed) { return SmoothImages(10, 16, 2.0, n, seed); },
        /*max_rows=*/2, /*closed_requests=*/1500, /*open_rate_per_s=*/500, /*open_requests=*/1000,
        /*gemm=*/64, 576, 64, false});
    // Communication-bound: wide MLP, one dense layer per stage, socket hops, recovery
    // armed and a checkpoint after every epoch.
    w.push_back(Workload{
        "mlp_socket_ckpt", TransportKind::kUnixSocket, ScheduleKind::kOneFOneB, 1, true,
        /*batch=*/64, /*epochs=*/6, /*epoch_minibatches=*/32, /*loss_target=*/2.6,
        [] { return std::make_unique<Sgd>(0.005, 0.5); },
        /*train_cuts=*/{2, 4, 6}, /*serve_cuts=*/{2, 4},
        [] {
          Rng rng(kInitSeed);
          return BuildMlpClassifier(256, {512, 512, 512}, 10, &rng);
        },
        [](int64_t n, uint64_t seed) { return GaussianClusters(10, 256, 8.0, n, seed); },
        /*max_rows=*/16, /*closed_requests=*/2000, /*open_rate_per_s=*/800, /*open_requests=*/1200,
        /*gemm=*/64, 512, 512, false});
    // Many small tensors: a stacked LSTM as four chunk-stages (embed | lstm0 | lstm1 |
    // head) interleaved over two physical workers.
    w.push_back(Workload{
        "lstm_interleaved", TransportKind::kInProc, ScheduleKind::kInterleaved, 2, false,
        /*batch=*/16, /*epochs=*/10, /*epoch_minibatches=*/16, /*loss_target=*/2.9,
        [] { return std::make_unique<Adam>(0.01); },
        /*train_cuts=*/{1, 2, 3}, /*serve_cuts=*/{2, 3},
        [] {
          Rng rng(kInitSeed);
          return BuildLstmSeqModel(32, 32, 64, 2, &rng);
        },
        [](int64_t n, uint64_t seed) { return MarkovSequences(32, 16, 0.5, n, seed); },
        /*max_rows=*/2, /*closed_requests=*/2800, /*open_rate_per_s=*/1000, /*open_requests=*/1500,
        /*gemm=*/16, 64, 256, false});
    // Latency-bound serving: small MLP, many small socket messages.
    w.push_back(Workload{
        "serve_socket", TransportKind::kUnixSocket, ScheduleKind::kOneFOneB, 1, false,
        /*batch=*/32, /*epochs=*/8, /*epoch_minibatches=*/128, /*loss_target=*/0.6,
        [] { return std::make_unique<Sgd>(0.02, 0.5); },
        /*train_cuts=*/{2, 4, 6}, /*serve_cuts=*/{2, 4},
        [] {
          Rng rng(kInitSeed);
          return BuildMlpClassifier(32, {64, 64, 64}, 10, &rng);
        },
        [](int64_t n, uint64_t seed) { return GaussianClusters(10, 32, 2.0, n, seed); },
        /*max_rows=*/8, /*closed_requests=*/15000, /*open_rate_per_s=*/2000, /*open_requests=*/3000,
        /*gemm=*/4, 64, 64, true});
    return w;
  }();
  return workloads;
}

// --- small statistics helpers ---------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Which sample a metric reports. Wall-clock throughputs, latencies and times report the
// run's best repeat: interference from other tenants of the machine only ever slows a
// repeat, so the best one is the least disturbed measurement of the code.
enum class Report { kMedian, kHighest, kLowest };

// A reported metric: its samples (one per repeat, or per observation) and which of them the
// run reports. The JSON also gives their median and `upper`, the highest percentile with at
// least ten samples beyond it (the maximum when there are too few).
struct Metric {
  std::string unit;
  std::vector<double> samples;
  Report report = Report::kMedian;

  double Value() const {
    switch (report) {
      case Report::kHighest:
        return *std::max_element(samples.begin(), samples.end());
      case Report::kLowest:
        return *std::min_element(samples.begin(), samples.end());
      case Report::kMedian:
        break;
    }
    return Median(samples);
  }
};

class MetricSet {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           Report report = Report::kMedian) {
    Metric& m = metrics_[name];
    m.unit = unit;
    m.report = report;
    m.samples.push_back(value);
  }
  void AddAll(const std::string& name, const std::string& unit,
              const std::vector<double>& values) {
    for (const double v : values) {
      Add(name, unit, v);
    }
  }
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

std::string MetricsJson(const MetricSet& set) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : set.all()) {
    const size_t n = m.samples.size();
    double upper_q = 1.0;
    // Highest percentile with >= 10 samples above it, in whole percent.
    if (n > 10) {
      upper_q = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n))) / 100.0;
    }
    out += StrFormat("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"median\":%.17g,"
                     "\"upper\":%.17g,\"upper_q\":%.2f,\"count\":%zu}",
                     first ? "" : ",", name.c_str(), m.Value(), m.unit.c_str(),
                     Median(m.samples), Quantile(m.samples, upper_q), upper_q, n);
    first = false;
  }
  return out + "}";
}

// Times `fn` in batches (at least 5, over at least 50 ms); returns the median seconds per
// call.
double TimePerCall(const std::function<void()>& fn) {
  fn();  // warm caches and the buffer pool
  std::vector<double> per_call;
  const Clock::time_point start = Clock::now();
  int reps = 1;
  while (per_call.size() < 5 || SecondsSince(start) < 0.05) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      fn();
    }
    const double dt = SecondsSince(t0);
    per_call.push_back(dt / reps);
    if (dt < 1e-3) {
      reps *= 2;
    }
  }
  return Median(per_call);
}

// --- inputs --------------------------------------------------------------------------

// Copies dataset rows [begin, begin + rows) into a fresh tensor of the same trailing shape.
Tensor Rows(const Tensor& data, int64_t begin, int64_t rows) {
  std::vector<int64_t> shape = data.shape();
  const int64_t row_numel = data.numel() / shape[0];
  shape[0] = rows;
  Tensor out = Tensor::Uninitialized(shape);
  std::memcpy(out.data(), data.data() + begin * row_numel,
              static_cast<size_t>(rows * row_numel) * sizeof(float));
  return out;
}

struct Request {
  Tensor input;
  double due_s = 0.0;  // open loop: offset of the due time from the loop start
};

// The serving traffic of one repeat, all drawn from the seed before any timing starts.
struct Traffic {
  std::vector<Request> closed;
  std::vector<Request> open;
  std::vector<int> checked_closed;  // indices whose responses are checked after timing
  std::vector<int> checked_open;
};

std::vector<int> SampleIndices(int n, int k, Rng* rng) {
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  rng->Shuffle(all.data(), all.size());
  all.resize(static_cast<size_t>(std::min(n, k)));
  std::sort(all.begin(), all.end());
  return all;
}

Traffic MakeTraffic(const Workload& w, const Dataset& data, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  auto draw = [&] {
    const int64_t rows =
        1 + static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(w.max_rows)));
    const int64_t begin =
        static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(data.size() - rows + 1)));
    return Request{Rows(data.inputs, begin, rows), 0.0};
  };
  Traffic t;
  for (int i = 0; i < w.closed_requests; ++i) {
    t.closed.push_back(draw());
  }
  double due = 0.0;
  for (int i = 0; i < w.open_requests; ++i) {
    due += -std::log(1.0 - rng.NextDouble()) / w.open_rate_per_s;  // Poisson arrivals
    Request r = draw();
    r.due_s = due;
    t.open.push_back(std::move(r));
  }
  t.checked_closed = SampleIndices(w.closed_requests, kCheckedResponses, &rng);
  t.checked_open = SampleIndices(w.open_requests, kCheckedResponses, &rng);
  return t;
}

// --- one repeat ----------------------------------------------------------------------

struct RepeatOptions {
  bool traced = false;           // arm the span ring during the measured epochs
  bool single_worker = false;    // train on a 1-stage plan (same checkpoints), no serving
  bool break_reference = false;  // corrupt one reference output (checker self-test)
  std::string checkpoint_dir;
};

struct RepeatResult {
  // set-up, seconds
  double profile_s = 0, partition_s = 0, simulate_s = 0, construct_s = 0;
  double setup_s = 0;
  // training
  std::vector<double> epoch_loss;
  double warmup_s = 0;
  double samples_per_s = 0;
  double time_to_target_s = -1;
  double final_loss = 0;
  int64_t train_attempted = 0;
  int64_t train_failed = 0;
  std::vector<double> checkpoint_ms;
  double checkpoint_bytes = 0;
  // serving
  double serve_rps = 0;
  double serve_p50_ms = 0;
  double serve_p99_ms = 0;
  double open_utilization = 0;  // open-loop arrival rate / this repeat's serve_rps
  std::vector<double> open_latency_ms;
  std::vector<double> generator_lag_ms;
  int64_t serve_attempted = 0;
  int64_t serve_failed = 0;
  std::vector<std::string> errors;
  MetricSet layers;  // per-layer readings (traced repeats)
};

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

double HistMeanMs(const std::string& name) {
  return obs::GetHistogram(name)->snapshot().mean() * 1e3;
}

// Reads the trainer's per-stage registry metrics over the measured (post-warm-up) epochs.
void ReadTrainingLayers(const PipelineTrainer& trainer, double measured_wall_s,
                        int64_t measured_minibatches, const PoolStats& pool,
                        MetricSet* layers) {
  for (int s = 0; s < kTrainStages; ++s) {
    const std::string stage = StrFormat("stage%d", s);
    layers->Add("runtime." + stage + ".fwd_ms", "ms",
                HistMeanMs(StrFormat("runtime/stage%d/fwd_seconds", s)));
    layers->Add("runtime." + stage + ".bwd_ms", "ms",
                HistMeanMs(StrFormat("runtime/stage%d/bwd_seconds", s)));
    layers->Add("optim." + stage + ".step_ms", "ms",
                HistMeanMs(StrFormat("runtime/stage%d/step_seconds", s)));
    // No workload replicates a stage, so the weight-sync cause (replica all-reduce) never
    // occurs and is not reported.
    const std::pair<const char*, obs::StallCause> causes[] = {
        {"starved", obs::StallCause::kStarvedUpstream},
        {"backpressured", obs::StallCause::kBackpressuredDownstream}};
    for (const auto& [label, cause] : causes) {
      const std::string counter =
          StrFormat("runtime/stage%d/bubble/%s_ns", s, obs::StallCauseName(cause));
      const double ns = static_cast<double>(obs::GetCounter(counter)->value());
      layers->Add("schedule." + stage + ".idle_frac." + label, "ratio",
                  ns * 1e-9 / measured_wall_s);
    }
    layers->Add("runtime." + stage + ".mailbox_hwm", "count",
                static_cast<double>(
                    obs::GetGauge(StrFormat("runtime/stage%d/mailbox_depth_hwm", s))->value()));
    layers->Add("runtime." + stage + ".peak_stash_bytes", "bytes",
                static_cast<double>(trainer.StagePeakMaterializedStashBytes(s)));
    layers->Add("runtime." + stage + ".peak_act_bytes", "bytes",
                static_cast<double>(trainer.StagePeakActivationBytes(s)));
  }
  const double mb = static_cast<double>(measured_minibatches);
  layers->Add("tensor.pool_hit_rate", "ratio",
              pool.allocations > 0
                  ? static_cast<double>(pool.hits) / static_cast<double>(pool.allocations)
                  : 0.0);
  layers->Add("tensor.heap_allocs_per_mb", "count",
              static_cast<double>(pool.HeapAllocations()) / mb);
  layers->Add("tensor.peak_bytes_in_flight", "bytes",
              static_cast<double>(pool.peak_bytes_in_flight));
  layers->Add("transport.bytes_per_mb", "bytes",
              static_cast<double>(obs::GetCounter("transport/bytes_sent")->value()) / mb);
  layers->Add("transport.msgs_per_mb", "count",
              static_cast<double>(obs::GetCounter("transport/messages_sent")->value()) / mb);
}

void ReadServingLayers(const PipelineServer& server, MetricSet* layers) {
  const std::string prefix = std::string("serve/") + server.transport_name();
  const auto add = [&](const std::string& name, const std::string& hist) {
    obs::Histogram* h = obs::GetHistogram(prefix + hist);
    layers->Add(name + ".p50", "ms", h->Quantile(0.5) * 1e3);
    layers->Add(name + ".p99", "ms", h->Quantile(0.99) * 1e3);
  };
  for (int s = 0; s < kServeStages; ++s) {
    add(StrFormat("serve.stage%d.queue_ms", s), StrFormat("/stage%d/queue_seconds", s));
    add(StrFormat("serve.stage%d.transport_ms", s),
        StrFormat("/stage%d/transport_seconds", s));
    add(StrFormat("serve.stage%d.compute_ms", s), StrFormat("/stage%d/compute_seconds", s));
  }
  add("serve.egress.transport_ms", "/egress/transport_seconds");
  layers->Add("serve.ingress_hwm", "count", static_cast<double>(server.IngressDepthHighWater()));
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.SizeBytes())) == 0;
}

// Serves the trained model: warm-up, closed loop, open loop, then the response checks.
void ServePhase(const Workload& w, const Sequential& model, const Traffic& traffic,
                const RepeatOptions& opts, RepeatResult* r) {
  const Clock::time_point setup_start = Clock::now();
  ServingOptions options;
  options.transport = w.transport;
  options.max_inflight = kServeWindow;
  PipelineServer server(model, MakeStraightPlan(static_cast<int>(model.size()), w.serve_cuts),
                        options);
  if (!server.Start().ok()) {
    r->errors.push_back("PipelineServer::Start failed");
    return;
  }
  for (int i = 0; i < 16; ++i) {
    server.Infer(traffic.closed[static_cast<size_t>(i) % traffic.closed.size()].input);
  }
  const double serve_setup_s = SecondsSince(setup_start);
  r->construct_s += serve_setup_s;
  r->setup_s += serve_setup_s;
  obs::MetricsRegistry::Get().Reset();

  std::map<int, Tensor> closed_out;
  std::map<int, Tensor> open_out;
  const auto keep = [](const std::vector<int>& checked, int i) {
    return std::binary_search(checked.begin(), checked.end(), i);
  };

  // Closed loop: K requests outstanding; each completion admits the next.
  {
    std::deque<std::pair<int, int64_t>> inflight;
    const auto retire = [&] {
      const auto [index, id] = inflight.front();
      inflight.pop_front();
      Tensor out = server.Wait(id);
      if (keep(traffic.checked_closed, index)) {
        closed_out[index] = std::move(out);
      }
    };
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < static_cast<int>(traffic.closed.size()); ++i) {
      if (static_cast<int>(inflight.size()) == kClosedOutstanding) {
        retire();
      }
      inflight.emplace_back(i, server.Submit(traffic.closed[static_cast<size_t>(i)].input));
    }
    while (!inflight.empty()) {
      retire();
    }
    r->serve_rps = static_cast<double>(traffic.closed.size()) / SecondsSince(start);
    r->open_utilization = w.open_rate_per_s / r->serve_rps;
  }

  // Open loop: the generator (this thread) submits at each due time regardless of
  // completions; a waiter thread collects results in submission order.
  {
    const size_t n = traffic.open.size();
    std::vector<int64_t> ids(n, -1);
    std::vector<Clock::time_point> done(n);
    std::mutex mu;
    std::condition_variable cv;
    size_t submitted = 0;
    std::thread waiter([&] {
      for (size_t i = 0; i < n; ++i) {
        int64_t id = -1;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return submitted > i; });
          id = ids[i];
        }
        Tensor out = server.Wait(id);
        done[i] = Clock::now();
        if (keep(traffic.checked_open, static_cast<int>(i))) {
          open_out[static_cast<int>(i)] = std::move(out);
        }
      }
    });
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(traffic.open[i].due_s));
      std::this_thread::sleep_until(due);
      r->generator_lag_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      const int64_t id = server.Submit(traffic.open[i].input);
      {
        std::lock_guard<std::mutex> lock(mu);
        ids[i] = id;
        submitted = i + 1;
      }
      cv.notify_one();
    }
    waiter.join();
    for (size_t i = 0; i < n; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(traffic.open[i].due_s));
      r->open_latency_ms.push_back(
          std::chrono::duration<double, std::milli>(done[i] - due).count());
    }
  }
  // Each open loop has >= 1000 requests, so >= 10 lie beyond its p99.
  r->serve_p50_ms = Quantile(r->open_latency_ms, 0.5);
  r->serve_p99_ms = Quantile(r->open_latency_ms, 0.99);
  if (opts.traced) {
    ReadServingLayers(server, &r->layers);
  }
  server.Stop();

  // Checks, outside the timed region: each sampled response must equal a full-model
  // Forward of the same input bitwise.
  r->serve_attempted += static_cast<int64_t>(traffic.closed.size() + traffic.open.size());
  bool corrupted = false;
  const auto check = [&](const std::map<int, Tensor>& outs, const std::vector<Request>& reqs,
                         const std::vector<int>& checked, const char* loop) {
    for (const int i : checked) {
      const auto it = outs.find(i);
      if (it == outs.end()) {
        ++r->serve_failed;
        r->errors.push_back(StrFormat("%s request %d: no response", loop, i));
        continue;
      }
      ModelContext ctx;
      Tensor reference = model.Forward(reqs[static_cast<size_t>(i)].input, &ctx, false);
      if (opts.break_reference && !corrupted) {
        uint32_t bits = 0;
        std::memcpy(&bits, reference.data(), sizeof(bits));
        bits ^= 1u;
        std::memcpy(reference.data(), &bits, sizeof(bits));
        corrupted = true;
      }
      if (!BitwiseEqual(it->second, reference)) {
        ++r->serve_failed;
        r->errors.push_back(StrFormat("%s request %d: response differs from the full-model "
                                      "forward",
                                      loop, i));
      }
    }
  };
  check(closed_out, traffic.closed, traffic.checked_closed, "closed-loop");
  check(open_out, traffic.open, traffic.checked_open, "open-loop");
}

RepeatResult RunRepeat(const Workload& w, uint64_t seed, const Dataset& train,
                       const Traffic& traffic, const RepeatOptions& opts) {
  RepeatResult r;
  const auto model = w.build_model();
  const int layers = static_cast<int>(model->size());
  const PipelinePlan plan =
      opts.single_worker ? MakeStraightPlan(layers, {}) : MakeStraightPlan(layers, w.train_cuts);

  // Set-up: profile, partition, simulate, construct.
  Clock::time_point t = Clock::now();
  const ModelProfile profile = ProfileModel(*model, Rows(train.inputs, 0, w.batch), w.name);
  r.profile_s = SecondsSince(t);
  t = Clock::now();
  const PartitionResult partition = PartitionFlat(profile, kTrainStages, 10e9);
  r.partition_s = SecondsSince(t);
  PD_CHECK_GT(partition.plan.num_stages(), 0);
  t = Clock::now();
  SimOptions sim;
  sim.schedule = opts.single_worker ? ScheduleKind::kOneFOneB : w.schedule;
  sim.interleave_chunks = opts.single_worker ? 1 : w.chunks;
  sim.num_minibatches = 200;
  const SimResult simulated =
      SimulatePipeline(profile, plan, HardwareTopology::Flat(kTrainStages, 10e9), sim);
  r.simulate_s = SecondsSince(t);
  PD_CHECK_GT(simulated.throughput_samples_per_sec, 0.0);

  t = Clock::now();
  SoftmaxCrossEntropy loss;
  const std::unique_ptr<Optimizer> optimizer = w.optimizer();
  PipelineTrainerOptions options;
  options.schedule = opts.single_worker ? ScheduleKind::kOneFOneB : w.schedule;
  options.interleave_chunks = opts.single_worker ? 1 : w.chunks;
  options.transport = w.transport;
  options.epoch_length = w.epoch_minibatches;
  auto trainer = std::make_unique<PipelineTrainer>(*model, plan, &loss, *optimizer, &train,
                                                   w.batch, seed, options);
  std::unique_ptr<CheckpointManager> manager;
  if (w.checkpoint) {
    std::filesystem::create_directories(opts.checkpoint_dir);
    manager = std::make_unique<CheckpointManager>(opts.checkpoint_dir);
    RecoveryOptions recovery;
    recovery.auto_checkpoint = false;  // the benchmark saves (and times) every epoch itself
    recovery.heartbeat_timeout_ms = 5000;
    recovery.progress_timeout_ms = 10000;
    trainer->EnableRecovery(manager.get(), recovery);
  }
  r.construct_s = SecondsSince(t);
  r.setup_s = r.profile_s + r.partition_s + r.simulate_s + r.construct_s;

  // Training: a fixed number of epochs; every measured epoch's wall includes its checkpoint.
  const double samples_per_epoch = static_cast<double>(w.epoch_minibatches * w.batch);
  double measured_wall = 0.0;
  int64_t measured_minibatches = 0;
  double elapsed = 0.0;
  BufferPool::Get()->ResetStats();
  for (int e = 0; e < w.epochs; ++e) {
    if (e == 1) {
      obs::MetricsRegistry::Get().Reset();
      BufferPool::Get()->ResetStats();
      if (opts.traced) {
        obs::ClearTrace();
        obs::StartTracing();
      }
    }
    t = Clock::now();
    const EpochStats stats = trainer->TrainEpoch();
    if (manager) {
      const Clock::time_point c = Clock::now();
      const Status saved = trainer->SaveCheckpoint(manager.get(), e);
      r.checkpoint_ms.push_back(SecondsSince(c) * 1e3);
      if (!saved.ok()) {
        r.errors.push_back("SaveCheckpoint: " + saved.ToString());
      }
    }
    const double wall = SecondsSince(t);
    const double prev_loss = r.epoch_loss.empty() ? 0.0 : r.epoch_loss.back();
    r.epoch_loss.push_back(stats.mean_loss);
    r.train_attempted += stats.minibatches;
    if (stats.recoveries > 0 || stats.failures_detected > 0) {
      r.train_failed += stats.minibatches;
    }
    if (r.time_to_target_s < 0 && stats.mean_loss <= w.loss_target) {
      // Interpolate the crossing inside the epoch: the epoch mean is an average over the
      // epoch, so the loss passes the target somewhere between the two epoch ends.
      const double frac = e == 0 ? 1.0
                                 : std::clamp((prev_loss - w.loss_target) /
                                                  (prev_loss - stats.mean_loss),
                                              0.0, 1.0);
      r.time_to_target_s = elapsed + frac * wall;
    }
    elapsed += wall;
    if (e == 0) {
      r.warmup_s = wall;
    } else {
      measured_wall += wall;
      measured_minibatches += stats.minibatches;
    }
  }
  if (opts.traced) {
    obs::StopTracing();
  }
  r.samples_per_s = samples_per_epoch * (w.epochs - 1) / measured_wall;
  r.final_loss = r.epoch_loss.back();
  r.train_failed += obs::GetCounter("transport/frames_rejected")->value();

  if (opts.traced) {
    ReadTrainingLayers(*trainer, measured_wall, measured_minibatches,
                       BufferPool::Get()->Snapshot(), &r.layers);
    r.layers.Add("profile.profile_s", "s", r.profile_s);
    r.layers.Add("planner.partition_s", "s", r.partition_s);
    r.layers.Add("simexec.simulate_s", "s", r.simulate_s);
    r.layers.Add("runtime.warmup_s", "s", r.warmup_s);
    const int64_t last_saved = w.checkpoint ? w.epochs - 1 : w.epochs;
    if (!manager) {
      // Workloads that do not checkpoint every epoch still time one save of the trained
      // weights so the layer is measured everywhere.
      std::filesystem::create_directories(opts.checkpoint_dir);
      manager = std::make_unique<CheckpointManager>(opts.checkpoint_dir);
      const Clock::time_point c = Clock::now();
      const Status saved = trainer->SaveCheckpoint(manager.get(), last_saved);
      r.checkpoint_ms.push_back(SecondsSince(c) * 1e3);
      if (!saved.ok()) {
        r.errors.push_back("SaveCheckpoint: " + saved.ToString());
      }
    }
    int64_t bytes = FileBytes(manager->ManifestPath(last_saved));
    for (int s = 0; s < kTrainStages; ++s) {
      bytes += FileBytes(manager->StagePath(s, last_saved));
    }
    r.checkpoint_bytes = static_cast<double>(bytes);
  }
  if (!opts.checkpoint_dir.empty()) {
    std::filesystem::remove_all(opts.checkpoint_dir);
  }

  for (size_t e = 0; e < r.epoch_loss.size(); ++e) {
    if (!std::isfinite(r.epoch_loss[e])) {
      r.errors.push_back(StrFormat("epoch %zu loss is not finite", e));
    }
  }
  if (!(r.final_loss < r.epoch_loss.front())) {
    r.errors.push_back(StrFormat("final loss %.6g is not below the first epoch's %.6g",
                                 r.final_loss, r.epoch_loss.front()));
  }
  if (opts.single_worker) {
    return r;
  }
  if (r.time_to_target_s < 0) {
    r.errors.push_back(StrFormat("loss never reached the target %.3g (final %.6g)",
                                 w.loss_target, r.final_loss));
  }

  const auto trained = trainer->AssembleModel();
  trainer.reset();  // joins nothing (workers are per-epoch) but frees stage state
  ServePhase(w, *trained, traffic, opts, &r);
  return r;
}

// --- per-layer probes (traced run) ----------------------------------------------------

PipeMessage ProbeMessage(const Tensor& payload, int64_t rows) {
  PipeMessage m;
  m.minibatch = 7;
  m.trace_id = 7;
  m.payload = payload;
  m.targets = Tensor({rows});
  StampChecksum(&m);
  return m;
}

void ProbeLayers(const Workload& w, const Sequential& model, const Dataset& train,
                 MetricSet* layers) {
  const int workers = kTrainStages / w.chunks;
  ScopedKernelBudget budget(KernelBudgetForWorkers(workers));

  // graph: each stage's layer slice at the training shapes, with a stage worker's budget.
  std::vector<int> bounds = {0};
  bounds.insert(bounds.end(), w.train_cuts.begin(), w.train_cuts.end());
  bounds.push_back(static_cast<int>(model.size()));
  Tensor x = Rows(train.inputs, 0, w.batch);
  Tensor largest_boundary;
  for (int s = 0; s < kTrainStages; ++s) {
    const auto slice = model.CloneSlice(static_cast<size_t>(bounds[static_cast<size_t>(s)]),
                                        static_cast<size_t>(bounds[static_cast<size_t>(s) + 1]));
    ModelContext ctx;
    Tensor y;
    const double fwd = TimePerCall([&] {
      ctx = ModelContext();
      y = slice->Forward(x, &ctx, true);
    });
    Tensor grad(y.shape());
    grad.Fill(1e-3f);
    const double bwd = TimePerCall([&] {
      ModelContext c = ctx;
      slice->Backward(grad, &c);
      slice->ZeroGrads();
    });
    layers->Add(StrFormat("graph.stage%d.fwd_ms", s), "ms", fwd * 1e3);
    layers->Add(StrFormat("graph.stage%d.bwd_ms", s), "ms", bwd * 1e3);
    if (s + 1 < kTrainStages && y.SizeBytes() > largest_boundary.SizeBytes()) {
      largest_boundary = y;
    }
    x = y;
  }

  // tensor: GEMM at the workload's dominant shape, conv at its (or cnn_1f1b's) conv shape.
  {
    Tensor a({w.gemm_m, w.gemm_k});
    Tensor b({w.gemm_k, w.gemm_n});
    a.Fill(0.5f);
    b.Fill(0.25f);
    Tensor out;
    const double dt = TimePerCall([&] { Gemm(a, false, b, false, 1.0f, 0.0f, &out); });
    layers->Add("tensor.gemm_gflops", "GFLOP/s",
                2.0 * static_cast<double>(w.gemm_m * w.gemm_k * w.gemm_n) / dt * 1e-9);
  }
  {
    // cnn_1f1b's conv1a (32 -> 64 channels at 8x8, batch 16) on every workload: the others
    // have no conv layer of their own.
    ConvGeometry g;
    g.batch = 16;
    g.in_channels = 32;
    g.in_h = 8;
    g.in_w = 8;
    g.out_channels = 64;
    g.kernel = 3;
    g.padding = 1;
    Tensor input({g.batch, g.in_channels, g.in_h, g.in_w});
    Tensor weight({g.out_channels, g.in_channels, 3, 3});
    Tensor bias({g.out_channels});
    input.Fill(0.5f);
    weight.Fill(0.01f);
    Tensor out;
    const double fwd = TimePerCall([&] { Conv2dForward(input, weight, bias, g, &out); });
    Tensor gw(weight.shape());
    Tensor gb(bias.shape());
    Tensor gi;
    const double bwd =
        TimePerCall([&] { Conv2dBackward(input, weight, out, g, &gw, &gb, &gi); });
    const double flops = 2.0 * static_cast<double>(g.batch * g.out_channels * g.out_h() *
                                                   g.out_w() * g.in_channels * 9);
    layers->Add("tensor.conv_fwd_gflops", "GFLOP/s", flops / fwd * 1e-9);
    layers->Add("tensor.conv_bwd_gflops", "GFLOP/s", 2.0 * flops / bwd * 1e-9);
  }

  // common / runtime / transport: one boundary message of the workload's size.
  Tensor payload = largest_boundary;
  int64_t rows = w.batch;
  if (w.probe_serving_message) {
    // A serving hop: the first serving boundary at the mean request size.
    rows = (w.max_rows + 1) / 2;
    const auto head = model.CloneSlice(0, static_cast<size_t>(w.serve_cuts[0]));
    ModelContext ctx;
    payload = head->Forward(Rows(train.inputs, 0, rows), &ctx, false);
  }
  const PipeMessage message = ProbeMessage(payload, rows);
  const size_t bytes = static_cast<size_t>(payload.SizeBytes());
  uint32_t sink = 0;
  const double crc = TimePerCall([&] { sink ^= Crc32(payload.data(), bytes); });
  layers->Add("common.crc32_mb_per_s", "MB/s", static_cast<double>(bytes) / crc * 1e-6);
  const double checksum = TimePerCall([&] { sink ^= MessageChecksum(message); });
  layers->Add("runtime.checksum_us_per_msg", "us", checksum * 1e6);
  std::vector<uint8_t> body;
  std::vector<uint8_t> frame;
  const double serialize = TimePerCall([&] {
    body = SerializeMessage(message);
    frame.clear();
    AppendFrame(body, &frame);
  });
  layers->Add("transport.serialize_us_per_msg", "us", serialize * 1e6);
  const double deserialize = TimePerCall([&] {
    const Result<PipeMessage> parsed = DeserializeMessage(body.data(), body.size());
    PD_CHECK(parsed.ok());
    sink ^= parsed.value().checksum;
  });
  layers->Add("transport.deserialize_us_per_msg", "us", deserialize * 1e6);
  if (sink == 0xFFFFFFFFu) {
    std::fprintf(stderr, "%u\n", sink);  // keeps the probed calls observable
  }
}

// --- driver --------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  bool break_reference = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--break-reference]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--break-reference") {
      a.break_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0)) {
        Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) {
    Usage("--workload and --seed are required");
  }
  return a;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool SameTrajectory(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* found = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const Workload& w = *found;
  const Clock::time_point run_start = Clock::now();

  // Inputs: everything the program receives is generated here from the seed.
  const Dataset train = w.make_data(w.train_samples(), args.seed);
  const Traffic traffic = MakeTraffic(w, train, args.seed);
  const std::string ckpt_dir = StrFormat(".bench_tmp/ckpt-%d", static_cast<int>(getpid()));

  std::vector<RepeatResult> untraced;
  std::vector<RepeatResult> traced;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto account = [&](const RepeatResult& r) {
    attempted += r.train_attempted + r.serve_attempted;
    failed += r.train_failed + r.serve_failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  };
  for (int rep = 0; rep < 64; ++rep) {
    RepeatOptions opts;
    opts.traced = args.trace == 1 && rep % 2 == 1;
    opts.break_reference = args.break_reference;
    opts.checkpoint_dir = ckpt_dir;
    RepeatResult r = RunRepeat(w, args.seed, train, traffic, opts);
    account(r);
    (opts.traced ? traced : untraced).push_back(std::move(r));
    if (rep >= 1 && SecondsSince(run_start) >= args.seconds) {
      break;
    }
  }
  const std::vector<double>& reference_losses = untraced.front().epoch_loss;
  for (const auto* group : {&untraced, &traced}) {
    for (const RepeatResult& r : *group) {
      if (!SameTrajectory(r.epoch_loss, reference_losses)) {
        errors.push_back("loss trajectory differs between repeats of one seed");
        ++failed;
      }
    }
  }
  // A single disturbed repeat is host noise, not the code, so the open-loop checks use the
  // medians over repeats. The generator lag's p99 is not checked: it is the host's wake-up
  // lateness, which reaches tens of ms on a shared VM whatever the code does.
  std::vector<double> utilization;
  std::vector<double> lag_p50;
  std::vector<double> serve_p50;
  std::vector<double> capacity;
  for (const auto* group : {&untraced, &traced}) {
    for (const RepeatResult& r : *group) {
      utilization.push_back(r.open_utilization);
      capacity.push_back(r.serve_rps);
      lag_p50.push_back(Quantile(r.generator_lag_ms, 0.5));
      serve_p50.push_back(r.serve_p50_ms);
    }
  }
  if (Median(utilization) > kMaxOpenUtilization) {
    errors.push_back(StrFormat("open loop invalid: %g req/s is %.0f%% of the closed-loop "
                               "capacity (median %.0f req/s), above the %.0f%% ceiling",
                               w.open_rate_per_s, 100.0 * Median(utilization),
                               Median(capacity), 100.0 * kMaxOpenUtilization));
  }
  if (Median(lag_p50) > kMaxGeneratorLagShare * Median(serve_p50)) {
    errors.push_back(StrFormat("open loop invalid: generator lag p50 %.3g ms is above %.0f%% "
                               "of serve_p50_ms %.3g ms",
                               Median(lag_p50), 100.0 * kMaxGeneratorLagShare,
                               Median(serve_p50)));
  }

  MetricSet metrics;
  if (args.trace == 0) {
    for (const RepeatResult& r : untraced) {
      metrics.Add("samples_per_s", "samples/s", r.samples_per_s, Report::kHighest);
      metrics.Add("time_to_target_s", "s", r.time_to_target_s, Report::kLowest);
      metrics.Add("final_loss", "loss", r.final_loss);
      metrics.Add("setup_s", "s", r.setup_s);
      metrics.Add("serve_rps", "req/s", r.serve_rps, Report::kHighest);
      metrics.Add("serve_p50_ms", "ms", r.serve_p50_ms, Report::kLowest);
      metrics.Add("serve_p99_ms", "ms", r.serve_p99_ms, Report::kLowest);
    }
    metrics.Add("peak_rss_mb", "MiB", PeakRssMb());
  } else {
    for (const RepeatResult& r : traced) {
      for (const auto& [name, m] : r.layers.all()) {
        metrics.AddAll(name, m.unit, m.samples);
      }
      metrics.Add("runtime.construct_s", "s", r.construct_s);
      metrics.AddAll("runtime.checkpoint_ms", "ms", r.checkpoint_ms);
      metrics.Add("runtime.checkpoint_bytes", "bytes", r.checkpoint_bytes);
      metrics.Add("serve.generator_lag_ms", "ms", Quantile(r.generator_lag_ms, 0.99));
      metrics.Add("serve.generator_lag_p50_ms", "ms", Quantile(r.generator_lag_ms, 0.5));
      metrics.Add("serve.open_utilization", "ratio", r.open_utilization);
      metrics.Add("serve.p99_ms", "ms", r.serve_p99_ms);
    }
    std::vector<double> traced_sps;
    std::vector<double> untraced_sps;
    for (const RepeatResult& r : traced) {
      traced_sps.push_back(r.samples_per_s);
    }
    for (const RepeatResult& r : untraced) {
      untraced_sps.push_back(r.samples_per_s);
    }
    metrics.Add("obs.trace_overhead_frac", "ratio",
                1.0 - Median(traced_sps) / Median(untraced_sps));

    // Single-worker baseline: the same model and minibatches on a 1-stage plan.
    RepeatOptions base;
    base.single_worker = true;
    base.checkpoint_dir = ckpt_dir;
    const RepeatResult baseline = RunRepeat(w, args.seed, train, traffic, base);
    account(baseline);
    metrics.Add("baseline.single_worker_samples_per_s", "samples/s", baseline.samples_per_s);
    metrics.Add("baseline.pipeline_speedup", "x", Median(untraced_sps) / baseline.samples_per_s);

    const auto model = w.build_model();
    ProbeLayers(w, *model, train, &metrics);
    // runtime - graph: time booked as stage compute that the layers themselves do not
    // spend (checksums, sends, serialization, scheduling).
    std::map<std::string, double> v;
    for (const auto& [name, m] : metrics.all()) {
      v[name] = Median(m.samples);
    }
    for (int s = 0; s < kTrainStages; ++s) {
      const auto key = [s](const char* layer, const char* what) {
        return StrFormat("%s.stage%d.%s", layer, s, what);
      };
      metrics.Add(StrFormat("runtime.stage%d.nonkernel_ms", s), "ms",
                  v[key("runtime", "fwd_ms")] + v[key("runtime", "bwd_ms")] -
                      v[key("graph", "fwd_ms")] - v[key("graph", "bwd_ms")]);
    }
    if (!args.trace_out.empty()) {
      obs::WriteTrace(args.trace_out);
    }
  }

  const bool correct = errors.empty() && failed == 0;
  for (const std::string& e : errors) {
    std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"seconds\":%.3f,"
      "\"repeats\":%zu,\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
      "\"provenance\":{\"nproc\":%u,\"kernel_threads\":%d,\"simd_isa\":\"%s\","
      "\"kernel_variant\":\"%s\",\"build_type\":\"%s\",\"transport\":\"%s\","
      "\"open_rate_per_s\":%g,\"open_loop_requests\":%d,\"closed_loop_requests\":%d},"
      "\"metrics\":%s}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace, SecondsSince(run_start),
      untraced.size() + traced.size(), correct ? "true" : "false",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      std::thread::hardware_concurrency(), ThreadPool::GlobalThreads(), SimdKernelIsa(),
      KernelVariantName(ActiveKernelVariant()), PIPEBENCH_BUILD_TYPE,
      TransportKindName(w.transport), w.open_rate_per_s, w.open_requests, w.closed_requests,
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
