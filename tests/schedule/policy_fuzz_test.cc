// Schedule fuzzing: seeded-random pipeline shapes through every ScheduleKind, with the
// ExecutionTrace validator asserting the §3.2 safety properties on each run — forward /
// backward data dependencies across stages, 1F1B-RR forward/backward replica affinity
// (required for weight stashing), worker exclusivity, and round-robin input routing. The
// simulator and the validator are independent implementations of the schedule semantics,
// so agreement across hundreds of random configurations is strong evidence both are right.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/planner/plan.h"
#include "src/profile/layer_profile.h"
#include "src/simexec/pipeline_sim.h"

namespace pipedream {
namespace {

// A random profile with `layers` layers of varying cost.
ModelProfile RandomProfile(int layers, Rng* rng) {
  ModelProfile profile;
  profile.model_name = "fuzz";
  profile.minibatch_size = 16;
  for (int i = 0; i < layers; ++i) {
    LayerProfile layer;
    layer.name = "l" + std::to_string(i);
    layer.fwd_seconds = 0.001 + 0.01 * rng->NextDouble();
    layer.bwd_seconds = 2.0 * layer.fwd_seconds;
    layer.activation_bytes = 1 << (10 + rng->UniformInt(8));
    layer.param_bytes = 1 << (12 + rng->UniformInt(8));
    profile.layers.push_back(layer);
  }
  return profile;
}

// A random multi-stage plan; `allow_replicas` gates 1F1B-RR-style replicated stages
// (GPipe / model parallelism require straight pipelines).
PipelinePlan RandomPlan(int layers, bool allow_replicas, Rng* rng) {
  const int max_stages = std::min(layers, 5);
  const int num_stages = 1 + static_cast<int>(rng->UniformInt(static_cast<uint64_t>(max_stages)));
  // Split `layers` into num_stages positive spans.
  std::vector<int> spans(static_cast<size_t>(num_stages), 1);
  for (int extra = layers - num_stages; extra > 0; --extra) {
    spans[static_cast<size_t>(rng->UniformInt(static_cast<uint64_t>(num_stages)))]++;
  }
  std::vector<std::pair<int, int>> shape;
  for (int s = 0; s < num_stages; ++s) {
    const int replicas =
        allow_replicas ? 1 + static_cast<int>(rng->UniformInt(3)) : 1;  // 1..3
    shape.emplace_back(spans[static_cast<size_t>(s)], replicas);
  }
  return MakePlanFromShape(shape);
}

// Simulates and validates the trace against `placement` (which worker runs each stage;
// defaults to the plan itself). Every stage must run every minibatch's forward and backward.
void RunAndValidate(const ModelProfile& profile, const PipelinePlan& plan,
                    const SimOptions& options, const std::string& what,
                    const PipelinePlan* placement = nullptr) {
  const auto topo = HardwareTopology::Flat(plan.total_workers(), 1e9);
  const SimResult result = SimulatePipeline(profile, plan, topo, options);
  const Status status = result.trace.Validate(placement != nullptr ? *placement : plan);
  EXPECT_TRUE(status.ok()) << what << ": " << status.message();
  EXPECT_EQ(result.trace.size(),
            2u * static_cast<size_t>(plan.num_stages()) *
                static_cast<size_t>(options.num_minibatches))
      << what;
  EXPECT_GT(result.throughput_samples_per_sec, 0.0) << what;
}

TEST(PolicyFuzzTest, OneFOneBRandomPlansNeverViolateTraceInvariants) {
  Rng rng(12345);
  for (int trial = 0; trial < 60; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/true, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kOneFOneB;
    // A replicated input stage admits minibatches round-robin; 24 is divisible by every
    // replica factor in 1..3, so all sync rounds complete.
    options.num_minibatches = 24;
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "1f1b trial " + std::to_string(trial) + " plan " +
                       plan.ConfigString(layers));
  }
}

// 1F1B with a pipeline-depth override on replicated plans: a replicated stage must warm
// up no deeper than its upstream window feeds, or the run wedges (the simulator aborts).
TEST(PolicyFuzzTest, DepthOverrideOnRandomReplicatedPlansNeverWedges) {
  Rng rng(2718);
  for (int trial = 0; trial < 60; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/true, &rng);
    SimOptions options;
    options.num_minibatches = 24;
    options.pipeline_depth_override = 1 + static_cast<int>(rng.UniformInt(8));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "override " + std::to_string(options.pipeline_depth_override) + " trial " +
                       std::to_string(trial) + " plan " + plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, GPipeRandomDepthsNeverViolateTraceInvariants) {
  Rng rng(999);
  for (int trial = 0; trial < 40; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kGPipe;
    options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(6));
    // Any stream length: a final round shorter than m must flush like the others.
    options.num_minibatches = 1 + static_cast<int>(rng.UniformInt(30));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "gpipe-m" + std::to_string(options.gpipe_microbatches) + " trial " +
                       std::to_string(trial) + " plan " + plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, PipeDreamFlushRandomRoundsNeverViolateTraceInvariants) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kPipeDreamFlush;
    options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(8));
    options.num_minibatches = 1 + static_cast<int>(rng.UniformInt(40));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "flush-m" + std::to_string(options.gpipe_microbatches) + " n" +
                       std::to_string(options.num_minibatches) + " trial " +
                       std::to_string(trial) + " plan " + plan.ConfigString(layers));
  }
}

TEST(PolicyFuzzTest, InterleavedRandomChunkingNeverViolatesTraceInvariants) {
  Rng rng(2718);
  for (int trial = 0; trial < 40; ++trial) {
    // S chunk-stages of one layer each, k | S chunks per physical worker.
    const int num_stages = 2 + static_cast<int>(rng.UniformInt(7));
    std::vector<int> divisors;
    for (int k = 1; k <= num_stages; ++k) {
      if (num_stages % k == 0) {
        divisors.push_back(k);
      }
    }
    const ModelProfile profile = RandomProfile(num_stages, &rng);
    std::vector<int> boundaries;
    for (int s = 1; s < num_stages; ++s) {
      boundaries.push_back(s);
    }
    const PipelinePlan plan = MakeStraightPlan(num_stages, boundaries);
    SimOptions options;
    options.schedule = ScheduleKind::kInterleaved;
    options.interleave_chunks =
        divisors[static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(divisors.size())))];
    options.num_minibatches = 1 + static_cast<int>(rng.UniformInt(30));
    options.record_trace = true;
    // Chunk-stage s runs on the worker of stage s mod W, so several stages share a worker
    // and the validator's exclusivity check covers exactly that serialization.
    const int workers = num_stages / options.interleave_chunks;
    std::vector<StageAssignment> placed = plan.stages();
    for (int s = 0; s < num_stages; ++s) {
      placed[static_cast<size_t>(s)].workers = plan.stage(s % workers).workers;
    }
    const PipelinePlan placement(std::move(placed));
    RunAndValidate(profile, plan, options,
                   "interleaved-k" + std::to_string(options.interleave_chunks) + " S" +
                       std::to_string(num_stages) + " n" +
                       std::to_string(options.num_minibatches) + " trial " +
                       std::to_string(trial),
                   &placement);
  }
}

TEST(PolicyFuzzTest, ModelParallelRandomPlansNeverViolateTraceInvariants) {
  Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const int layers = 2 + static_cast<int>(rng.UniformInt(9));
    const ModelProfile profile = RandomProfile(layers, &rng);
    const PipelinePlan plan = RandomPlan(layers, /*allow_replicas=*/false, &rng);
    plan.Validate(layers);
    SimOptions options;
    options.schedule = ScheduleKind::kModelParallel;
    options.num_minibatches = 8 + static_cast<int>(rng.UniformInt(17));
    options.record_trace = true;
    RunAndValidate(profile, plan, options,
                   "mp trial " + std::to_string(trial) + " plan " +
                       plan.ConfigString(layers));
  }
}

// Randomized microbatch stream lengths across all kinds on one fixed plan, including the
// pipeline-depth override knob for 1F1B.
TEST(PolicyFuzzTest, RandomMicrobatchStreams) {
  Rng rng(31337);
  const ModelProfile profile = RandomProfile(8, &rng);
  const PipelinePlan plan = MakeStraightPlan(8, {2, 4, 6});
  for (int trial = 0; trial < 30; ++trial) {
    SimOptions options;
    options.record_trace = true;
    const uint64_t kind = rng.UniformInt(3);
    if (kind == 0) {
      options.schedule = ScheduleKind::kOneFOneB;
      options.num_minibatches = 4 + static_cast<int>(rng.UniformInt(60));
      options.pipeline_depth_override = static_cast<int>(rng.UniformInt(5));  // 0 = default
    } else if (kind == 1) {
      options.schedule = ScheduleKind::kGPipe;
      options.gpipe_microbatches = 1 + static_cast<int>(rng.UniformInt(8));
      options.num_minibatches = 1 + static_cast<int>(rng.UniformInt(48));
    } else {
      options.schedule = ScheduleKind::kModelParallel;
      options.num_minibatches = 4 + static_cast<int>(rng.UniformInt(30));
    }
    RunAndValidate(profile, plan, options, "stream trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace pipedream
