#include "src/schedule/op_list.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace pipedream {

namespace {

// 1F1B startup depth of `stage` under a pipeline-depth override: at most
// depth_override - stage, and no deeper than its upstream stages can feed. A stage with R
// replicas at depth d needs minibatch (d - 1) * R before its first backward, while an
// upstream stage with R' replicas at depth d' admits only minibatches below d' * R' until
// a backward returns to it; so every upstream stage needs (d - 1) * R < d' * R'. The
// startup depths and every straight pipeline already satisfy this; it binds only where a
// replicated stage sits downstream of a narrower window.
int OverrideDepth(const PipelinePlan& plan, int stage, int depth_override) {
  int fed = std::numeric_limits<int>::max();  // min over upstream stages of d' * R'
  int depth = 0;
  for (int s = 0; s <= stage; ++s) {
    const int replicas = plan.stage(s).replicas;
    const int feedable = s == 0 ? fed : (fed + replicas - 1) / replicas;  // ceil(fed / R)
    depth = std::max(1, std::min({StartupDepth(plan, s), depth_override - s, feedable}));
    fed = std::min(fed, depth * replicas);
  }
  return depth;
}

// One replica of `stage` running `quota` minibatches under `options.kind`.
std::vector<OpType> StageReplicaOps(const OpListOptions& options, const PipelinePlan& plan,
                                    int stage, int64_t quota) {
  switch (options.kind) {
    case ScheduleKind::kGPipe:
      return ReplicaOps(std::numeric_limits<int64_t>::max(), options.round_size, quota,
                        /*flush=*/true);
    case ScheduleKind::kModelParallel:
      return ReplicaOps(1, 1, quota, /*flush=*/true);
    case ScheduleKind::kPipeDreamFlush:
      return ReplicaOps(StartupDepth(plan, stage), options.round_size, quota, /*flush=*/true);
    case ScheduleKind::kOneFOneB:
    case ScheduleKind::kInterleaved:
      break;
  }
  const int depth = options.depth_override > 0
                        ? OverrideDepth(plan, stage, options.depth_override)
                        : StartupDepth(plan, stage);
  return ReplicaOps(depth, std::max<int64_t>(quota, 1), quota, /*flush=*/false);
}

// Serializes each physical worker's chunk sequences with a unit-time list scheduler: every
// tick, each worker starts the next op of its deepest chunk whose input is ready, and an
// op's output becomes consumable one tick after it started. Deepest-chunk-first keeps the
// pipe draining toward the output and never wedges.
std::vector<std::vector<ScheduleOp>> MergeInterleaved(
    const std::vector<std::vector<OpType>>& stage_ops, int chunks) {
  const int num_stages = static_cast<int>(stage_ops.size());
  const int num_workers = num_stages / chunks;
  std::vector<size_t> next(stage_ops.size(), 0);
  std::vector<int64_t> ready_fwd(stage_ops.size(), 0);
  std::vector<int64_t> ready_bwd(stage_ops.size(), 0);
  size_t remaining = 0;
  for (const std::vector<OpType>& ops : stage_ops) {
    remaining += ops.size();
  }

  std::vector<std::vector<ScheduleOp>> lists(static_cast<size_t>(num_workers));
  std::vector<ScheduleOp> started;  // this tick's ops, delivered at the start of the next
  while (remaining > 0) {
    const bool delivered = !started.empty();
    for (const ScheduleOp& op : started) {
      if (op.type == OpType::kBackward) {
        if (op.stage > 0) {
          ++ready_bwd[static_cast<size_t>(op.stage - 1)];
        }
      } else if (op.stage + 1 < num_stages) {
        ++ready_fwd[static_cast<size_t>(op.stage + 1)];
      } else {
        ++ready_bwd[static_cast<size_t>(op.stage)];  // the output stage turns around locally
      }
    }
    started.clear();

    for (int w = 0; w < num_workers; ++w) {
      for (int c = chunks - 1; c >= 0; --c) {
        const size_t s = static_cast<size_t>(c * num_workers + w);
        if (next[s] == stage_ops[s].size()) {
          continue;
        }
        const OpType type = stage_ops[s][next[s]];
        if (!(type == OpType::kForward && s == 0)) {  // the input stage reads its loader
          int64_t& ready = type == OpType::kForward ? ready_fwd[s] : ready_bwd[s];
          if (ready == 0) {
            continue;
          }
          --ready;
        }
        ++next[s];
        --remaining;
        lists[static_cast<size_t>(w)].push_back({static_cast<int>(s), type});
        started.push_back({static_cast<int>(s), type});
        break;  // the worker is busy for the rest of this tick
      }
    }
    PD_CHECK(!started.empty() || delivered)
        << "interleaved op-list merge wedged with " << remaining << " ops left";
  }
  return lists;
}

}  // namespace

int StartupDepth(const PipelinePlan& plan, int stage) {
  PD_CHECK(stage >= 0 && stage < plan.num_stages());
  int downstream_workers = 0;
  for (int s = stage; s < plan.num_stages(); ++s) {
    downstream_workers += plan.stage(s).replicas;
  }
  const int replicas = plan.stage(stage).replicas;
  return (downstream_workers + replicas - 1) / replicas;  // ceil
}

std::vector<OpType> ReplicaOps(int64_t depth, int64_t round_size, int64_t quota, bool flush) {
  PD_CHECK_GE(depth, 1);
  PD_CHECK_GE(round_size, 1);
  PD_CHECK_GE(quota, 0);
  std::vector<OpType> ops;
  for (int64_t done = 0; done < quota;) {
    const int64_t round = std::min(round_size, quota - done);
    const int64_t warm = std::min(depth, round);
    ops.insert(ops.end(), static_cast<size_t>(warm), OpType::kForward);
    for (int64_t i = warm; i < round; ++i) {
      ops.push_back(OpType::kBackward);
      ops.push_back(OpType::kForward);
    }
    ops.insert(ops.end(), static_cast<size_t>(warm), OpType::kBackward);
    if (flush) {
      ops.push_back(OpType::kFlush);
    }
    done += round;
  }
  return ops;
}

std::vector<std::vector<ScheduleOp>> BuildOpLists(
    const OpListOptions& options, const PipelinePlan& plan,
    const std::vector<std::vector<int64_t>>& quotas) {
  PD_CHECK_EQ(static_cast<int>(quotas.size()), plan.num_stages());
  if (options.kind == ScheduleKind::kInterleaved) {
    PD_CHECK_GE(options.chunks, 1);
    PD_CHECK(plan.IsStraight()) << "interleaving requires an unreplicated straight plan";
    PD_CHECK(plan.num_stages() % options.chunks == 0)
        << "interleaving needs num_stages (" << plan.num_stages()
        << ") divisible by chunks (" << options.chunks << ")";
    std::vector<std::vector<OpType>> stage_ops;
    for (int s = 0; s < plan.num_stages(); ++s) {
      PD_CHECK_EQ(quotas[static_cast<size_t>(s)].size(), 1u);
      stage_ops.push_back(StageReplicaOps(options, plan, s, quotas[static_cast<size_t>(s)][0]));
    }
    return MergeInterleaved(stage_ops, options.chunks);
  }
  std::vector<std::vector<ScheduleOp>> lists;
  for (int s = 0; s < plan.num_stages(); ++s) {
    for (const int64_t quota : quotas[static_cast<size_t>(s)]) {
      std::vector<ScheduleOp>& list = lists.emplace_back();
      for (const OpType type : StageReplicaOps(options, plan, s, quota)) {
        list.push_back({s, type});
      }
    }
  }
  return lists;
}

}  // namespace pipedream
