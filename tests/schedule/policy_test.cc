// The schedule generator (src/schedule/op_list.h): every ScheduleKind's per-worker op list
// is pinned here by exact equality against the paper's orders (Figures 2, 3 and 4).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/schedule/op_list.h"
#include "src/schedule/work.h"

namespace pipedream {
namespace {

// "FFB|" -> {kForward, kForward, kBackward, kFlush}.
std::vector<OpType> Ops(const std::string& spelled) {
  std::vector<OpType> ops;
  for (const char c : spelled) {
    ops.push_back(c == 'F' ? OpType::kForward : c == 'B' ? OpType::kBackward : OpType::kFlush);
  }
  return ops;
}

std::vector<OpType> Types(const std::vector<ScheduleOp>& list) {
  std::vector<OpType> types;
  for (const ScheduleOp& op : list) {
    types.push_back(op.type);
  }
  return types;
}

// Op lists for a straight plan in which every stage runs `minibatches`.
std::vector<std::vector<ScheduleOp>> StraightLists(const OpListOptions& options,
                                                   const PipelinePlan& plan,
                                                   int64_t minibatches) {
  return BuildOpLists(options, plan,
                      std::vector<std::vector<int64_t>>(
                          static_cast<size_t>(plan.num_stages()), {minibatches}));
}

TEST(StartupDepthTest, StraightPipeline) {
  const auto plan = MakeStraightPlan(8, {2, 4, 6});
  EXPECT_EQ(StartupDepth(plan, 0), 4);
  EXPECT_EQ(StartupDepth(plan, 1), 3);
  EXPECT_EQ(StartupDepth(plan, 2), 2);
  EXPECT_EQ(StartupDepth(plan, 3), 1);
}

TEST(StartupDepthTest, ReplicatedInputStage) {
  // Figure 8's 2-1 configuration: each input replica runs 2 forwards before its first
  // backward; the output stage runs 1.
  const auto plan = MakePlanFromShape({{3, 2}, {3, 1}});
  EXPECT_EQ(StartupDepth(plan, 0), 2);  // ceil(3 / 2)
  EXPECT_EQ(StartupDepth(plan, 1), 1);
}

TEST(StartupDepthTest, FifteenOne) {
  const auto plan = MakePlanFromShape({{18, 15}, {3, 1}});
  EXPECT_EQ(StartupDepth(plan, 0), 2);  // ceil(16/15) == NOAM
  EXPECT_EQ(plan.Noam(), StartupDepth(plan, 0));
}

TEST(ReplicaOpsTest, OneFOneBStartupForwardsThenStrictAlternation) {
  // Depth 3: three startup forwards, then backward-first alternation, then the drain.
  EXPECT_EQ(ReplicaOps(3, 7, 7, /*flush=*/false), Ops("FFFBFBFBFBFBBB"));
}

TEST(ReplicaOpsTest, OneFOneBShortRunDrainsDuringStartup) {
  // Only one minibatch ever exists; its backward follows directly.
  EXPECT_EQ(ReplicaOps(4, 1, 1, /*flush=*/false), Ops("FB"));
  EXPECT_TRUE(ReplicaOps(4, 1, 0, /*flush=*/false).empty());
}

TEST(ReplicaOpsTest, FlushWarmupAlternationDrainThenFlush) {
  // Startup depth 2 in rounds of m = 4: two warm-up forwards, strict 1F1B alternation, a
  // pure backward drain once all 4 forwards started, then the round's Flush.
  EXPECT_EQ(ReplicaOps(2, 4, 8, /*flush=*/true), Ops("FFBFBFBB|FFBFBFBB|"));
}

TEST(ReplicaOpsTest, FlushLastStageAlternatesFromTheFirstMinibatch) {
  EXPECT_EQ(ReplicaOps(1, 3, 3, /*flush=*/true), Ops("FBFBFB|"));
}

TEST(ReplicaOpsTest, FlushRoundSizeCapsTheWarmup) {
  // A deep stage in a small round: the warm-up is min(depth, m) = 2, so live stashes never
  // exceed the round size.
  EXPECT_EQ(ReplicaOps(4, 2, 2, /*flush=*/true), Ops("FFBB|"));
}

TEST(ReplicaOpsTest, ShortFinalRoundIsItsOwnRound) {
  // 10 minibatches in rounds of 4: the last round holds 2, warms up min(3, 2) = 2 deep and
  // still ends in a Flush.
  EXPECT_EQ(ReplicaOps(3, 4, 10, /*flush=*/true), Ops("FFFBFBBB|FFFBFBBB|FFBB|"));
}

TEST(OpListTest, OneFOneBListsFollowStartupDepths) {
  // Figure 4: 4 workers, startup depth S - s, then strict alternation.
  const auto plan = MakeStraightPlan(4, {1, 2, 3});
  OpListOptions options;
  options.kind = ScheduleKind::kOneFOneB;
  const auto lists = StraightLists(options, plan, 6);
  ASSERT_EQ(lists.size(), 4u);
  EXPECT_EQ(Types(lists[0]), Ops("FFFFBFBFBBBB"));
  EXPECT_EQ(Types(lists[1]), Ops("FFFBFBFBFBBB"));
  EXPECT_EQ(Types(lists[2]), Ops("FFBFBFBFBFBB"));
  EXPECT_EQ(Types(lists[3]), Ops("FBFBFBFBFBFB"));
  for (size_t s = 0; s < lists.size(); ++s) {
    for (const ScheduleOp& op : lists[s]) {
      EXPECT_EQ(op.stage, static_cast<int>(s));
    }
  }
}

TEST(OpListTest, DepthOverrideCapsEveryStage) {
  const auto plan = MakeStraightPlan(4, {1, 2, 3});
  OpListOptions options;
  options.kind = ScheduleKind::kOneFOneB;
  options.depth_override = 2;  // stage s warms up min(S - s, 2 - s), at least 1
  const auto lists = StraightLists(options, plan, 3);
  EXPECT_EQ(Types(lists[0]), Ops("FFBFBB"));
  EXPECT_EQ(Types(lists[1]), Ops("FBFBFB"));
  EXPECT_EQ(Types(lists[2]), Ops("FBFBFB"));
}

TEST(OpListTest, DepthOverrideShallowsAReplicatedStageToWhatUpstreamFeeds) {
  // Replicas 1-3-1-3 under override 4: the input stage admits minibatches 0-3 before its
  // first backward, so a 3-replica stage 1 can warm up only 2 deep (replica 0 needs ids 0
  // and 3); min(StartupDepth, 4 - s) alone would give 3 and wait forever for id 6. Stage 2
  // is capped at 4 - 2 = 2, and its window of 2 leaves stage 3 one deep.
  const auto plan = MakePlanFromShape({{1, 1}, {1, 3}, {1, 1}, {1, 3}});
  const std::vector<std::vector<int64_t>> quotas = {{6}, {2, 2, 2}, {6}, {2, 2, 2}};
  OpListOptions options;
  options.kind = ScheduleKind::kOneFOneB;
  options.depth_override = 4;
  const auto lists = BuildOpLists(options, plan, quotas);
  ASSERT_EQ(lists.size(), 8u);
  EXPECT_EQ(Types(lists[0]), Ops("FFFFBFBFBBBB"));
  for (size_t r = 1; r <= 3; ++r) {
    EXPECT_EQ(Types(lists[r]), Ops("FFBB")) << r;
  }
  EXPECT_EQ(Types(lists[4]), Ops("FFBFBFBFBFBB"));
  for (size_t r = 5; r <= 7; ++r) {
    EXPECT_EQ(Types(lists[r]), Ops("FBFB")) << r;
  }

  // An override at or past every startup depth leaves the lists as they are without one.
  options.depth_override = 8;
  const auto wide = BuildOpLists(options, plan, quotas);
  options.depth_override = 0;
  const auto natural = BuildOpLists(options, plan, quotas);
  ASSERT_EQ(wide.size(), natural.size());
  for (size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(Types(wide[i]), Types(natural[i])) << i;
  }
}

TEST(OpListTest, ReplicatedStagesGetOneListPerReplicaQuota) {
  // 1F1B-RR on the 2-1 configuration: input replicas split 5 minibatches 3 / 2 and warm up
  // 2 deep; the output stage runs all 5 at depth 1.
  const auto plan = MakePlanFromShape({{3, 2}, {3, 1}});
  OpListOptions options;
  options.kind = ScheduleKind::kOneFOneB;
  const auto lists = BuildOpLists(options, plan, {{3, 2}, {5}});
  ASSERT_EQ(lists.size(), 3u);
  EXPECT_EQ(Types(lists[0]), Ops("FFBFBB"));
  EXPECT_EQ(Types(lists[1]), Ops("FFBB"));
  EXPECT_EQ(Types(lists[2]), Ops("FBFBFBFBFB"));
  EXPECT_EQ(lists[1].front().stage, 0);
  EXPECT_EQ(lists[2].front().stage, 1);
}

TEST(OpListTest, GPipeAllForwardsThenAllBackwardsThenFlush) {
  // Figure 3: every stage runs the round's m forwards, then its m backwards, then flushes.
  const auto plan = MakeStraightPlan(4, {1, 2, 3});
  OpListOptions options;
  options.kind = ScheduleKind::kGPipe;
  options.round_size = 3;
  const auto lists = StraightLists(options, plan, 6);
  for (const auto& list : lists) {
    EXPECT_EQ(Types(list), Ops("FFFBBB|FFFBBB|"));
  }
}

TEST(OpListTest, GPipeIsStaticEvenWhereBackwardsArriveEarly) {
  // The output stage's first backward is ready right after its first forward, yet GPipe
  // does not interleave it: the order is F^m B^m whatever the readiness.
  const auto plan = MakeStraightPlan(2, {1});
  OpListOptions options;
  options.kind = ScheduleKind::kGPipe;
  options.round_size = 2;
  const auto lists = StraightLists(options, plan, 3);
  EXPECT_EQ(Types(lists[1]), Ops("FFBB|FB|"));
}

TEST(OpListTest, ModelParallelRunsOneMinibatchPerRound) {
  // Figure 2: one minibatch in the system at a time, whatever round size is configured.
  const auto plan = MakeStraightPlan(3, {1, 2});
  OpListOptions options;
  options.kind = ScheduleKind::kModelParallel;
  options.round_size = 4;
  for (const auto& list : StraightLists(options, plan, 3)) {
    EXPECT_EQ(Types(list), Ops("FB|FB|FB|"));
  }
}

TEST(OpListTest, PipeDreamFlushUsesStartupDepthsWithinRounds) {
  const auto plan = MakeStraightPlan(4, {1, 2, 3});
  OpListOptions options;
  options.kind = ScheduleKind::kPipeDreamFlush;
  options.round_size = 4;
  const auto lists = StraightLists(options, plan, 4);
  EXPECT_EQ(Types(lists[0]), Ops("FFFFBBBB|"));
  EXPECT_EQ(Types(lists[2]), Ops("FFBFBFBB|"));
  EXPECT_EQ(Types(lists[3]), Ops("FBFBFBFB|"));
}

TEST(InterleavedScheduleTest, ChunksOneIsPlainOneFOneBPerStage) {
  // k = 1: worker w owns exactly stage w and its op list is the plain 1F1B order.
  const auto plan = MakeStraightPlan(2, {1});
  OpListOptions options;
  options.kind = ScheduleKind::kInterleaved;
  const auto schedule = StraightLists(options, plan, 3);
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(Types(schedule[0]), Ops("FFBFBB"));
  EXPECT_EQ(Types(schedule[1]), Ops("FBFBFB"));
  for (const ScheduleOp& op : schedule[0]) {
    EXPECT_EQ(op.stage, 0);
  }
  for (const ScheduleOp& op : schedule[1]) {
    EXPECT_EQ(op.stage, 1);
  }
}

TEST(InterleavedScheduleTest, GeneratedListsAreCompleteAndExecutable) {
  // 6 chunk-stages on 3 workers, 5 minibatches: every stage must run every minibatch's
  // forward and backward exactly once, each worker only touches its own chunks, and a
  // global replay of the lists (execute any worker's head op whose dataflow inputs are
  // ready) must finish without wedging — the deadlock-freedom-by-construction claim.
  const int kStages = 6;
  const int kChunks = 2;
  const int64_t kMinibatches = 5;
  const int workers = kStages / kChunks;
  const auto plan = MakeStraightPlan(kStages, {1, 2, 3, 4, 5});
  OpListOptions options;
  options.kind = ScheduleKind::kInterleaved;
  options.chunks = kChunks;
  const auto schedule = StraightLists(options, plan, kMinibatches);
  ASSERT_EQ(schedule.size(), static_cast<size_t>(workers));

  std::vector<int64_t> fwd_count(kStages, 0);
  std::vector<int64_t> bwd_count(kStages, 0);
  for (int w = 0; w < workers; ++w) {
    for (const ScheduleOp& op : schedule[w]) {
      EXPECT_EQ(InterleavedWorkerOfStage(op.stage, workers), w);
      ASSERT_NE(op.type, OpType::kFlush);
      (op.type == OpType::kForward ? fwd_count : bwd_count)[op.stage] += 1;
    }
  }
  for (int s = 0; s < kStages; ++s) {
    EXPECT_EQ(fwd_count[s], kMinibatches) << s;
    EXPECT_EQ(bwd_count[s], kMinibatches) << s;
  }

  // Replay: op heads execute when their producer is ahead of them.
  std::vector<size_t> next(workers, 0);
  std::vector<int64_t> fwd_done(kStages, 0);
  std::vector<int64_t> bwd_done(kStages, 0);
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < workers; ++w) {
      while (next[w] < schedule[w].size()) {
        const ScheduleOp& op = schedule[w][next[w]];
        const int s = op.stage;
        bool ready;
        if (op.type == OpType::kForward) {
          ready = s == 0 || fwd_done[s - 1] > fwd_done[s];
        } else {
          ready = s == kStages - 1 ? fwd_done[s] > bwd_done[s]
                                   : bwd_done[s + 1] > bwd_done[s];
        }
        if (!ready) {
          break;
        }
        (op.type == OpType::kForward ? fwd_done : bwd_done)[s] += 1;
        ++next[w];
        progress = true;
      }
    }
  }
  for (int w = 0; w < workers; ++w) {
    EXPECT_EQ(next[w], schedule[w].size()) << "worker " << w << " wedged";
  }
}

TEST(RoundRobinTest, ReplicaAssignment) {
  EXPECT_EQ(RoundRobinReplica(0, 2), 0);
  EXPECT_EQ(RoundRobinReplica(1, 2), 1);
  EXPECT_EQ(RoundRobinReplica(2, 2), 0);
  EXPECT_EQ(RoundRobinReplica(7, 3), 1);
  EXPECT_EQ(RoundRobinReplica(5, 1), 0);
}

}  // namespace
}  // namespace pipedream
