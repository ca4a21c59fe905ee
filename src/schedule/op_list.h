// Static per-worker op lists: the one schedule generator (paper §3.2).
//
// PipeDream calls 1F1B a *static* schedule: every worker's order of forward and backward
// passes is a pure function of the schedule, not of timing. Every entry of the zoo in
// docs/SCHEDULES.md is expressed that way here. For a replica with startup depth d, round
// size m and a quota of q minibatches, each round of r = min(m, remaining) minibatches is
//
//     F^w (B F)^(r - w) B^w        with w = min(d, r)
//
// and the flush family appends an explicit Flush op after every round:
//
//   kOneFOneB       one round (m = q), d = StartupDepth — 1F1B / 1F1B-RR
//   kPipeDreamFlush d = StartupDepth, rounds of m, Flush after each
//   kGPipe          d = infinity (all forwards, then all backwards — Figure 3), Flush
//   kModelParallel  m = 1 (one minibatch in the system at a time — Figure 2), Flush
//   kInterleaved    per-chunk 1F1B sequences, merged onto each physical worker by a
//                   unit-time list scheduler (deepest ready chunk first)
//
// The threaded runtime and the event simulator both execute these lists strictly in order,
// which makes every schedule deadlock-free by construction (each list set is a feasible
// execution) and bitwise-deterministic regardless of thread timing.
#ifndef SRC_SCHEDULE_OP_LIST_H_
#define SRC_SCHEDULE_OP_LIST_H_

#include <cstdint>
#include <vector>

#include "src/common/schedule.h"
#include "src/planner/plan.h"

namespace pipedream {

enum class OpType {
  kForward,
  kBackward,
  kFlush,  // arrive at the pipeline-wide drain barrier that ends a flush round
};

// One slot of a worker's list. The minibatch id is implicit: each stage replica consumes its
// round-robin share of forwards and backwards in minibatch order, so the executor's
// per-replica counters supply it.
struct ScheduleOp {
  int stage = 0;
  OpType type = OpType::kForward;
};

// Startup pipeline depth for a stage: how many forward passes a replica performs before its
// first backward, ceil(workers at or downstream of the stage / this stage's replicas).
// For a straight pipeline this is (num_stages - stage); the input stage's depth equals NOAM.
int StartupDepth(const PipelinePlan& plan, int stage);

// The closed form above for one replica: rounds of min(round_size, remaining) out of
// `quota` minibatches, `depth` warm-up forwards per round, and a Flush after each round
// when `flush` is set.
std::vector<OpType> ReplicaOps(int64_t depth, int64_t round_size, int64_t quota, bool flush);

struct OpListOptions {
  ScheduleKind kind = ScheduleKind::kOneFOneB;
  int round_size = 4;      // kGPipe / kPipeDreamFlush minibatches per flush round
  int chunks = 1;          // kInterleaved chunk-stages per physical worker
  // 1F1B: caps stage s's depth at depth_override - s and at what its upstream stages can
  // feed (a replicated stage needs a wider window than its own depth); 0 = off.
  int depth_override = 0;
};

// Physical worker hosting chunk-stage `stage` when `num_workers` workers interleave.
inline int InterleavedWorkerOfStage(int stage, int num_workers) {
  return stage % num_workers;
}

// Every worker's op list for a run in which replica r of stage s processes quotas[s][r]
// minibatches (the replica's round-robin share; a degraded rotation may have fewer replicas
// than the plan). One list per stage replica in stage-major order, except under
// kInterleaved: one list per physical worker w, holding the ops of chunk-stages
// w, W + w, 2W + w, ... with W = num_stages / chunks.
std::vector<std::vector<ScheduleOp>> BuildOpLists(
    const OpListOptions& options, const PipelinePlan& plan,
    const std::vector<std::vector<int64_t>>& quotas);

}  // namespace pipedream

#endif  // SRC_SCHEDULE_OP_LIST_H_
