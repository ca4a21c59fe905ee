#include "src/simexec/pipeline_sim.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/common/logging.h"
#include "src/planner/memory_model.h"
#include "src/planner/partitioner.h"
#include "src/schedule/op_list.h"
#include "src/sim/engine.h"

namespace pipedream {
namespace {

// Simulator for one run; holds all mutable state so SimulatePipeline stays re-entrant.
class PipelineSimulation {
 public:
  PipelineSimulation(const ModelProfile& profile, const PipelinePlan& plan,
                     const HardwareTopology& topology, const SimOptions& options)
      : profile_(profile), plan_(plan), topology_(topology), options_(options) {
    plan.Validate(profile.num_layers());
    if (!options.worker_speeds.empty()) {
      PD_CHECK_GE(static_cast<int>(options.worker_speeds.size()), topology.num_workers())
          << "worker_speeds must cover every topology worker";
      for (double s : options.worker_speeds) {
        PD_CHECK_GT(s, 0.0) << "worker speeds must be positive";
      }
    }
    if (options.fault.replan || options.fault.join_enabled) {
      PD_CHECK(options.schedule == ScheduleKind::kOneFOneB)
          << "elastic re-planning requires a 1F1B schedule";
    }
    if (Interleaved()) {
      PD_CHECK(plan.IsStraight()) << "interleaved simulation requires an unreplicated plan";
      PD_CHECK_GE(options.interleave_chunks, 1);
      PD_CHECK(plan.num_stages() % options.interleave_chunks == 0)
          << "interleaving needs num_stages divisible by interleave_chunks";
      PD_CHECK_EQ(options.pipeline_depth_override, 0)
          << "pipeline_depth_override does not apply to the static interleaved schedule";
    }
    if (options.fault.join_enabled) {
      PD_CHECK(options.fault.join_worker >= 0 &&
               options.fault.join_worker < topology.num_workers())
          << "join_worker must be a topology worker id";
    }
    for (const StageAssignment& stage : plan_.stages()) {
      live_workers_.insert(stage.workers.begin(), stage.workers.end());
    }
    worker_busy_seconds_.assign(static_cast<size_t>(topology.num_workers()), 0.0);
    stage_peak_stash_merged_.assign(static_cast<size_t>(plan.num_stages()), 0);
    BuildStages();
  }

  SimResult Run();

 private:
  struct Lane;

  struct Replica {
    int stage = 0;
    int replica = 0;
    int worker = 0;
    bool failed = false;  // victim of an injected fault; dispatches nothing until restart
    std::set<int64_t> ready_forward;   // arrived activations (non-input stages)
    std::set<int64_t> ready_backward;  // arrived gradients (or local loss at the last stage)
    Lane* lane = nullptr;        // the op list this replica's work is dispatched from
    int64_t next_admission = 0;  // input stage: next minibatch id in this replica's share
    int stash = 0;
    int peak_stash = 0;
    double fwd_seconds = 0.0;  // stage compute scaled by this worker's 1/speed
    double bwd_seconds = 0.0;
    SimTime busy_time;
    int64_t fwd_quota = 0;  // total forwards this replica will ever run
    int64_t bwd_done = 0;
    ResourceTimeline egress;  // NIC send port, serializes outgoing transfers
  };

  // One worker's static op list (src/schedule/op_list.h), executed strictly in order: a
  // stage replica, or under kInterleaved a physical worker serializing its chunk-stages on
  // one device. The cursor advances when an op starts; `busy` covers its duration.
  struct Lane {
    std::vector<ScheduleOp> ops;
    std::vector<Replica*> replicas;  // hosted stage replicas (several only when interleaved)
    size_t next = 0;
    bool busy = false;
    bool at_flush = false;  // arrived at the round's flush barrier, awaiting release
  };

  struct StageInfo {
    double fwd_seconds = 0.0;
    double bwd_seconds = 0.0;
    int64_t weight_bytes = 0;
    int64_t activation_bytes = 0;       // full stash per in-flight minibatch
    int64_t boundary_out_bytes = 0;     // activation shipped to the next stage
    double sync_seconds = 0.0;          // ring all_reduce wall time per sync round
    int bwd_in_round = 0;               // progress toward the next weight-sync collective
    int64_t rounds_started = 0;         // collectives launched
    int64_t rounds_synced = 0;          // collectives finished
    ResourceTimeline sync_timeline;
  };

  void BuildStages();
  double SpeedOf(int worker) const {
    if (options_.worker_speeds.empty()) {
      return 1.0;
    }
    PD_CHECK(worker >= 0 && worker < static_cast<int>(options_.worker_speeds.size()));
    return options_.worker_speeds[static_cast<size_t>(worker)];
  }
  // Heterogeneous partition over the current live worker set (the sim-side mirror of
  // ElasticTrainer::PlanOverLive); partitioner ids are remapped back to topology ids.
  PipelinePlan ReplanOverLive() const;
  void JoinRestart();
  Replica* ReplicaFor(int stage, int64_t minibatch);
  void TryDispatch(Lane* lane);
  void ArriveAtFlush(Lane* lane);
  void OnComplete(Replica* r, WorkType type, int64_t minibatch);
  void SendBoundary(Replica* from, int dest_stage, int64_t minibatch, WorkType type);
  void FireFault(Replica* victim);
  void Restart();
  bool IsGPipeLike() const { return IsFlushFamily(options_.schedule); }
  bool Interleaved() const { return options_.schedule == ScheduleKind::kInterleaved; }
  int InterleavedWorkers() const { return plan_.num_stages() / options_.interleave_chunks; }
  int RoundSize() const {
    return options_.schedule == ScheduleKind::kModelParallel ? 1 : options_.gpipe_microbatches;
  }
  // Resolved weight mode for a stage: global override wins, otherwise the plan's per-stage
  // assignment; flush-family schedules drain between rounds so versioning never applies.
  WeightMode StageMode(int s) const {
    if (IsGPipeLike()) {
      return WeightMode::kNaive;
    }
    return options_.weight_mode ? *options_.weight_mode : plan_.stage(s).weight_mode;
  }
  // Resolved activation recomputation for a stage: global override wins, otherwise the
  // plan's per-stage flag; the legacy gpipe_discard_activations switch also counts.
  bool StageRecompute(int s) const {
    if (IsGPipeLike() && options_.gpipe_discard_activations) {
      return true;
    }
    return options_.recompute.value_or(plan_.stage(s).recompute);
  }
  // Backwards per replica between weight-sync collectives (gradient accumulation).
  int64_t SyncRoundPerReplica() const {
    return std::max(1, options_.accumulation_steps);
  }

  const ModelProfile& profile_;
  PipelinePlan plan_;  // by value: a degraded restart rebuilds it without the dead replica
  const HardwareTopology& topology_;
  SimOptions options_;

  SimEngine engine_;
  std::vector<StageInfo> stages_;
  std::vector<std::vector<std::unique_ptr<Replica>>> replicas_;  // [stage][replica]
  std::vector<Replica*> all_replicas_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  size_t flush_arrivals_ = 0;  // lanes waiting at the current round's flush barrier

  double comm_bytes_ = 0.0;
  int64_t completed_minibatches_ = 0;
  std::vector<SimTime> completion_times_;
  ExecutionTrace trace_;

  // --- failure state. A restart rebuilds stages_/replicas_ from scratch; events scheduled
  // by the previous incarnation are cancelled by the incarnation counter (they check it
  // before touching any state, so dangling Replica pointers are never dereferenced).
  uint64_t incarnation_ = 0;
  int64_t first_minibatch_ = 0;  // this incarnation admits [first_minibatch_, num_minibatches)
  std::set<int> live_workers_;   // topology ids currently in the plan
  int replans_ = 0;
  double replan_latency_seconds_ = 0.0;
  bool join_fired_ = false;
  bool fault_fired_ = false;
  SimTime fault_time_;
  SimTime recovery_time_;
  int64_t completed_at_failure_ = 0;
  int64_t restart_from_ = 0;
  std::vector<double> worker_busy_seconds_;  // merged from pre-failure incarnations
  std::vector<int> stage_peak_stash_merged_;
};

void PipelineSimulation::BuildStages() {
  const int num_stages = plan_.num_stages();
  if (IsGPipeLike()) {
    PD_CHECK(plan_.IsStraight() || num_stages == 1)
        << "GPipe/model-parallel simulation requires an unreplicated pipeline";
  }
  stages_.resize(static_cast<size_t>(num_stages));
  replicas_.resize(static_cast<size_t>(num_stages));
  for (int s = 0; s < num_stages; ++s) {
    const StageAssignment& assignment = plan_.stage(s);
    StageInfo& info = stages_[static_cast<size_t>(s)];
    for (int l = assignment.begin_layer; l < assignment.end_layer; ++l) {
      info.fwd_seconds += profile_.layers[static_cast<size_t>(l)].fwd_seconds;
      info.bwd_seconds += profile_.layers[static_cast<size_t>(l)].bwd_seconds;
    }
    if (options_.recompute.value_or(assignment.recompute)) {
      // Activation recomputation: the backward first re-runs the stage's forward from the
      // stashed boundary input.
      info.bwd_seconds += info.fwd_seconds;
    } else if (IsGPipeLike() && options_.gpipe_recompute_overhead > 0.0) {
      info.bwd_seconds += options_.gpipe_recompute_overhead * info.fwd_seconds;
    }
    info.weight_bytes = profile_.ParamBytes(assignment.begin_layer, assignment.end_layer);
    info.activation_bytes =
        profile_.ActivationBytes(assignment.begin_layer, assignment.end_layer);
    info.boundary_out_bytes =
        s + 1 < num_stages ? profile_.BoundaryActivationBytes(assignment.end_layer - 1) : 0;
    if (assignment.replicas > 1) {
      int worst_level = 1;
      for (size_t a = 0; a < assignment.workers.size(); ++a) {
        for (size_t b = a + 1; b < assignment.workers.size(); ++b) {
          worst_level = std::max(worst_level, topology_.SharedLevel(assignment.workers[a],
                                                                    assignment.workers[b]));
        }
      }
      const TopologyLevel& level = topology_.level(worst_level);
      // All_reduce wall time for one sync round (aggregating the m replicas' gradients):
      // ring over per-participant links, or serialized traffic on a shared bus.
      const double divisor =
          level.shared_bus ? 1.0 : static_cast<double>(assignment.replicas);
      info.sync_seconds = 2.0 * static_cast<double>(assignment.replicas - 1) *
                          static_cast<double>(info.weight_bytes) /
                          (divisor * level.effective_collective_bandwidth());
    }

    for (int r = 0; r < assignment.replicas; ++r) {
      auto replica = std::make_unique<Replica>();
      replica->stage = s;
      replica->replica = r;
      replica->worker =
          Interleaved()
              ? plan_.stage(InterleavedWorkerOfStage(s, InterleavedWorkers())).workers[0]
              : assignment.workers[static_cast<size_t>(r)];
      replica->fwd_seconds = info.fwd_seconds / SpeedOf(replica->worker);
      replica->bwd_seconds = info.bwd_seconds / SpeedOf(replica->worker);
      // This replica's round-robin share of [first_minibatch_, num_minibatches). The range
      // start is not necessarily a multiple of the replica count after a mid-run restart, so
      // align on the residue class.
      const int64_t first =
          first_minibatch_ +
          ((r - first_minibatch_) % assignment.replicas + assignment.replicas) %
              assignment.replicas;
      replica->next_admission = first;
      for (int64_t b = first; b < options_.num_minibatches; b += assignment.replicas) {
        ++replica->fwd_quota;
      }
      all_replicas_.push_back(replica.get());
      replicas_[static_cast<size_t>(s)].push_back(std::move(replica));
    }
  }

  // The same generator the runtime executes; regenerated per incarnation, so a restart's
  // lists cover exactly [first_minibatch_, num_minibatches) on the current plan.
  std::vector<std::vector<int64_t>> quotas(static_cast<size_t>(num_stages));
  for (Replica* r : all_replicas_) {
    quotas[static_cast<size_t>(r->stage)].push_back(r->fwd_quota);
  }
  OpListOptions list_options;
  list_options.kind = options_.schedule;
  list_options.round_size = options_.gpipe_microbatches;
  list_options.chunks = options_.interleave_chunks;
  list_options.depth_override = options_.pipeline_depth_override;
  lanes_.clear();
  flush_arrivals_ = 0;
  for (std::vector<ScheduleOp>& ops : BuildOpLists(list_options, plan_, quotas)) {
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->ops = std::move(ops);
  }
  for (size_t i = 0; i < all_replicas_.size(); ++i) {
    Replica* r = all_replicas_[i];
    const int lane = Interleaved() ? InterleavedWorkerOfStage(r->stage, InterleavedWorkers())
                                   : static_cast<int>(i);
    r->lane = lanes_[static_cast<size_t>(lane)].get();
    r->lane->replicas.push_back(r);
  }
}

PipelineSimulation::Replica* PipelineSimulation::ReplicaFor(int stage, int64_t minibatch) {
  const int r = RoundRobinReplica(minibatch, plan_.stage(stage).replicas);
  return replicas_[static_cast<size_t>(stage)][static_cast<size_t>(r)].get();
}

void PipelineSimulation::TryDispatch(Lane* lane) {
  if (lane->busy || lane->next == lane->ops.size()) {
    return;
  }
  const ScheduleOp op = lane->ops[lane->next];
  Replica* r = *std::find_if(lane->replicas.begin(), lane->replicas.end(),
                             [&op](const Replica* h) { return h->stage == op.stage; });
  if (r->failed) {
    return;
  }
  if (op.type == OpType::kFlush) {
    ArriveAtFlush(lane);
    return;
  }

  // The op order is static; the only question is whether the listed op's input is here.
  int64_t minibatch;
  double duration;
  if (op.type == OpType::kForward) {
    if (r->stage == 0) {
      minibatch = r->next_admission;
      r->next_admission += plan_.stage(0).replicas;
    } else {
      if (r->ready_forward.empty()) {
        return;
      }
      minibatch = *r->ready_forward.begin();
      r->ready_forward.erase(r->ready_forward.begin());
    }
    ++r->stash;
    r->peak_stash = std::max(r->peak_stash, r->stash);
    duration = r->fwd_seconds;
  } else {
    if (r->ready_backward.empty()) {
      return;
    }
    // BSP gating for replicated stages: at most one weight-sync collective may be
    // outstanding, so a replica cannot run the backward of round k until round k-2's
    // gradients finished synchronizing. This is what throttles sync-bound stages (including
    // vanilla DP, the single-replicated-stage special case) to the all_reduce rate.
    const StageInfo& stage_info = stages_[static_cast<size_t>(r->stage)];
    if (plan_.stage(r->stage).replicas > 1 &&
        r->bwd_done > (stage_info.rounds_synced + 1) * SyncRoundPerReplica()) {
      return;
    }
    minibatch = *r->ready_backward.begin();
    r->ready_backward.erase(r->ready_backward.begin());
    duration = r->bwd_seconds;
  }
  const WorkType type = op.type == OpType::kForward ? WorkType::kForward : WorkType::kBackward;

  // Injected device failure: the victim dies on the threshold of this work item. Its state
  // is left as-is (the restart discards the whole incarnation anyway); the rest of the
  // pipeline keeps running until it starves, which is exactly the throughput dip.
  if (options_.fault.enabled && !fault_fired_ && r->stage == options_.fault.stage &&
      r->replica == options_.fault.replica && minibatch >= options_.fault.at_minibatch) {
    FireFault(r);
    return;
  }

  ++lane->next;
  lane->busy = true;
  const SimTime start = engine_.now();
  const SimTime dur = SimTime::FromSeconds(duration);
  if (options_.record_trace) {
    trace_.Add({r->worker, r->stage, type, minibatch, start, start + dur});
  }
  r->busy_time += dur;
  engine_.ScheduleAfter(dur, [this, r, type, minibatch, inc = incarnation_] {
    if (inc != incarnation_) {
      return;  // event from a pre-restart incarnation; r may dangle — do not touch it
    }
    OnComplete(r, type, minibatch);
  });
}

void PipelineSimulation::ArriveAtFlush(Lane* lane) {
  if (lane->at_flush) {
    return;
  }
  lane->at_flush = true;
  if (++flush_arrivals_ < lanes_.size()) {
    return;
  }
  // Pipeline flush: every stage applies its aggregated weight update, then the next round's
  // microbatches may enter. Update time is negligible relative to compute and is charged 0.
  flush_arrivals_ = 0;
  for (const auto& waiting : lanes_) {
    waiting->at_flush = false;
    ++waiting->next;
  }
  for (const auto& released : lanes_) {
    TryDispatch(released.get());
  }
}

void PipelineSimulation::SendBoundary(Replica* from, int dest_stage, int64_t minibatch,
                                      WorkType type) {
  Replica* dest = ReplicaFor(dest_stage, minibatch);
  const int64_t bytes = type == WorkType::kForward
                            ? stages_[static_cast<size_t>(from->stage)].boundary_out_bytes
                            : stages_[static_cast<size_t>(dest_stage)].boundary_out_bytes;
  SimTime arrival = engine_.now();
  if (bytes > 0 && from->worker != dest->worker) {
    // The transport cost model (SimOptions) composes with the topology: the message-framing
    // overhead adds to the physical link latency, and the framed-stream bandwidth cap
    // tightens (never loosens) the link rate.
    double bw = topology_.EffectiveP2pBandwidthBetween(from->worker, dest->worker);
    if (options_.transport_bandwidth_bytes_per_s > 0.0) {
      bw = std::min(bw, options_.transport_bandwidth_bytes_per_s);
    }
    const double lat = topology_.LatencyBetween(from->worker, dest->worker) +
                       options_.transport_latency_s;
    const SimTime duration = SimTime::FromSeconds(static_cast<double>(bytes) / bw);
    const SimTime depart = from->egress.Acquire(engine_.now(), duration);
    arrival = depart + duration + SimTime::FromSeconds(lat);
    comm_bytes_ += static_cast<double>(bytes);
  }
  engine_.ScheduleAt(arrival, [this, dest, minibatch, type, inc = incarnation_] {
    if (inc != incarnation_) {
      return;
    }
    if (type == WorkType::kForward) {
      dest->ready_forward.insert(minibatch);
    } else {
      dest->ready_backward.insert(minibatch);
    }
    TryDispatch(dest->lane);
  });
}

void PipelineSimulation::FireFault(Replica* victim) {
  fault_fired_ = true;
  victim->failed = true;
  fault_time_ = engine_.now();
  // Detection (heartbeat timeout) plus checkpoint reload / respawn; the pipeline resumes
  // only after both. A re-planning restart additionally pays the partitioner + migration
  // latency. Surviving stages keep draining whatever work they already hold.
  double stall = options_.fault.detection_seconds + options_.fault.restart_seconds;
  if (options_.fault.replan) {
    stall += options_.fault.replan_seconds;
  }
  const SimTime resume = fault_time_ + SimTime::FromSeconds(stall);
  engine_.ScheduleAt(resume, [this] { Restart(); });
}

void PipelineSimulation::Restart() {
  completed_at_failure_ = completed_minibatches_;
  // Durable progress: roll back to the newest checkpoint boundary (and, under GPipe, to a
  // whole flush round so the round accounting re-aligns).
  const int64_t granularity = std::max<int64_t>(1, options_.fault.checkpoint_every);
  restart_from_ = completed_at_failure_ / granularity * granularity;
  if (IsGPipeLike()) {
    restart_from_ = restart_from_ / RoundSize() * RoundSize();
  }
  recovery_time_ = engine_.now();

  // Merge the dying incarnation's per-worker accounting before discarding it.
  if (stage_peak_stash_merged_.size() < stages_.size()) {
    stage_peak_stash_merged_.resize(stages_.size(), 0);
  }
  for (Replica* r : all_replicas_) {
    worker_busy_seconds_[static_cast<size_t>(r->worker)] += r->busy_time.ToSeconds();
    stage_peak_stash_merged_[static_cast<size_t>(r->stage)] = std::max(
        stage_peak_stash_merged_[static_cast<size_t>(r->stage)], r->peak_stash);
  }

  if (options_.fault.replan) {
    // Elastic restart: the victim leaves the cluster for good and the partitioner re-plans
    // over the survivors' speeds — layer ranges move, so the new plan may have a different
    // stage count entirely. State migrates through the checkpoint (layer-range restore).
    const StageAssignment& victim_stage = plan_.stage(options_.fault.stage);
    PD_CHECK(options_.fault.replica >= 0 &&
             options_.fault.replica < static_cast<int>(victim_stage.workers.size()));
    live_workers_.erase(victim_stage.workers[static_cast<size_t>(options_.fault.replica)]);
    PD_CHECK(!live_workers_.empty()) << "every worker is dead";
    plan_ = ReplanOverLive();
    ++replans_;
    replan_latency_seconds_ += options_.fault.replan_seconds;
  } else if (options_.fault.degraded) {
    // Eject the dead replica: the stage keeps running on the survivors with the round-robin
    // minibatch assignment rebalanced over the smaller rotation.
    std::vector<StageAssignment> stages = plan_.stages();
    StageAssignment& victim_stage = stages[static_cast<size_t>(options_.fault.stage)];
    PD_CHECK_GT(victim_stage.replicas, 1)
        << "cannot eject the only replica of stage " << options_.fault.stage;
    victim_stage.workers.erase(victim_stage.workers.begin() + options_.fault.replica);
    --victim_stage.replicas;
    plan_ = PipelinePlan(std::move(stages));
  }

  // New incarnation: every event the old one scheduled is now inert.
  ++incarnation_;
  stages_.clear();
  replicas_.clear();
  all_replicas_.clear();
  first_minibatch_ = restart_from_;
  completed_minibatches_ = restart_from_;
  BuildStages();
  for (const auto& lane : lanes_) {
    TryDispatch(lane.get());
  }
}

PipelinePlan PipelineSimulation::ReplanOverLive() const {
  std::vector<WorkerSpec> specs;
  const std::vector<int> ids(live_workers_.begin(), live_workers_.end());
  for (int w : ids) {
    WorkerSpec spec;
    spec.speed = SpeedOf(w);
    specs.push_back(spec);
  }
  // Flat-interconnect approximation for the partitioner's communication model: the p2p rate
  // between the first live pair (uniform topologies, the common sim configuration).
  double bandwidth = 1e9;
  if (ids.size() >= 2) {
    bandwidth = topology_.EffectiveP2pBandwidthBetween(ids[0], ids[1]);
  }
  const PartitionResult repartition = PartitionHeterogeneous(profile_, specs, bandwidth);
  std::vector<StageAssignment> stages = repartition.plan.stages();
  for (StageAssignment& stage : stages) {
    for (int& id : stage.workers) {
      id = ids[static_cast<size_t>(id)];
    }
    std::sort(stage.workers.begin(), stage.workers.end());
  }
  PipelinePlan plan{std::move(stages)};
  plan.Validate(profile_.num_layers());
  return plan;
}

void PipelineSimulation::JoinRestart() {
  // Quiesce-and-migrate at a checkpoint boundary: completed work survives (the boundary
  // writes a fresh plan-tagged checkpoint), only in-flight minibatches re-execute.
  if (stage_peak_stash_merged_.size() < stages_.size()) {
    stage_peak_stash_merged_.resize(stages_.size(), 0);
  }
  for (Replica* r : all_replicas_) {
    worker_busy_seconds_[static_cast<size_t>(r->worker)] += r->busy_time.ToSeconds();
    stage_peak_stash_merged_[static_cast<size_t>(r->stage)] = std::max(
        stage_peak_stash_merged_[static_cast<size_t>(r->stage)], r->peak_stash);
  }
  live_workers_.insert(options_.fault.join_worker);
  plan_ = ReplanOverLive();
  ++replans_;
  replan_latency_seconds_ += options_.fault.replan_seconds;
  ++incarnation_;
  stages_.clear();
  replicas_.clear();
  all_replicas_.clear();
  first_minibatch_ = completed_minibatches_;
  BuildStages();
  for (const auto& lane : lanes_) {
    TryDispatch(lane.get());
  }
}

void PipelineSimulation::OnComplete(Replica* r, WorkType type, int64_t minibatch) {
  r->lane->busy = false;
  StageInfo& stage = stages_[static_cast<size_t>(r->stage)];
  const int num_stages = plan_.num_stages();

  if (type == WorkType::kForward) {
    if (r->stage + 1 < num_stages) {
      SendBoundary(r, r->stage + 1, minibatch, WorkType::kForward);
    } else {
      // Output stage: the loss gradient is local; the backward is immediately ready.
      r->ready_backward.insert(minibatch);
    }
  } else {
    --r->stash;
    ++r->bwd_done;
    if (r->stage > 0) {
      SendBoundary(r, r->stage - 1, minibatch, WorkType::kBackward);
    } else {
      ++completed_minibatches_;
      completion_times_.push_back(engine_.now());
      // Elastic join: once enough minibatches completed, the new worker is admitted after
      // one replan_seconds window (the partitioner runs while the old plan keeps working;
      // whatever is in flight when the switch lands re-executes under the new plan).
      if (options_.fault.join_enabled && !join_fired_ &&
          completed_minibatches_ >= options_.fault.join_at_minibatch) {
        join_fired_ = true;
        engine_.ScheduleAfter(SimTime::FromSeconds(options_.fault.replan_seconds),
                              [this, inc = incarnation_] {
                                if (inc == incarnation_) {
                                  JoinRestart();
                                }
                              });
      }
    }
    // Replicated-stage weight synchronization: one collective per round of `replicas`
    // backwards, overlapped with compute (wait-free), serialized on the stage's collective
    // engine.
    const int replicas = plan_.stage(r->stage).replicas;
    if (replicas > 1) {
      // One collective per accumulation round: `replicas * accumulation_steps` backwards
      // contribute to each synchronized update.
      if (++stage.bwd_in_round == replicas * SyncRoundPerReplica()) {
        stage.bwd_in_round = 0;
        ++stage.rounds_started;
        const SimTime start = stage.sync_timeline.Acquire(
            engine_.now(), SimTime::FromSeconds(stage.sync_seconds));
        comm_bytes_ += 2.0 * static_cast<double>(replicas - 1) *
                       static_cast<double>(stage.weight_bytes);
        StageInfo* stage_ptr = &stage;
        const int stage_index = r->stage;
        engine_.ScheduleAt(start + SimTime::FromSeconds(stage.sync_seconds),
                           [this, stage_ptr, stage_index, inc = incarnation_] {
                             if (inc != incarnation_) {
                               return;
                             }
                             ++stage_ptr->rounds_synced;
                             for (auto& replica : replicas_[static_cast<size_t>(stage_index)]) {
                               TryDispatch(replica->lane);
                             }
                           });
      }
    }
  }
  TryDispatch(r->lane);
}

SimResult PipelineSimulation::Run() {
  for (const auto& lane : lanes_) {
    TryDispatch(lane.get());
  }
  engine_.Run();
  PD_CHECK_EQ(completed_minibatches_, options_.num_minibatches)
      << "simulation deadlocked: " << completed_minibatches_ << " of "
      << options_.num_minibatches << " minibatches completed";

  SimResult result;
  // Account trailing weight-sync collectives into the makespan.
  SimTime end = engine_.now();
  for (StageInfo& s : stages_) {
    end = std::max(end, s.sync_timeline.next_free());
  }
  result.total_seconds = end.ToSeconds();

  // Steady-state throughput over the back half of the run (skips pipeline fill).
  const size_t n = completion_times_.size();
  if (n >= 4) {
    const size_t half = n / 2;
    const double window =
        (completion_times_[n - 1] - completion_times_[half - 1]).ToSeconds();
    if (window > 0.0) {
      result.throughput_samples_per_sec = static_cast<double>(n - half) *
                                          static_cast<double>(profile_.minibatch_size) /
                                          window;
    }
  }
  if (result.throughput_samples_per_sec == 0.0 && result.total_seconds > 0.0) {
    result.throughput_samples_per_sec =
        static_cast<double>(options_.num_minibatches) *
        static_cast<double>(profile_.minibatch_size) / result.total_seconds;
  }
  result.comm_bytes_total = comm_bytes_;

  const int max_worker = topology_.num_workers();
  result.worker_utilization.assign(static_cast<size_t>(max_worker), 0.0);
  result.worker_peak_memory.assign(static_cast<size_t>(max_worker), 0);
  result.stage_peak_stash.assign(static_cast<size_t>(plan_.num_stages()), 0);
  if (result.total_seconds > 0.0) {
    // Busy time accumulated by pre-restart incarnations (a degraded run's dead worker only
    // appears here).
    for (size_t w = 0; w < worker_busy_seconds_.size(); ++w) {
      result.worker_utilization[w] = worker_busy_seconds_[w] / result.total_seconds;
    }
  }
  for (size_t s = 0;
       s < std::min(stage_peak_stash_merged_.size(), result.stage_peak_stash.size()); ++s) {
    result.stage_peak_stash[s] = stage_peak_stash_merged_[s];
  }
  for (Replica* r : all_replicas_) {
    if (result.total_seconds > 0.0) {
      result.worker_utilization[static_cast<size_t>(r->worker)] +=
          r->busy_time.ToSeconds() / result.total_seconds;
    }
    const StageInfo& stage = stages_[static_cast<size_t>(r->stage)];
    // Peak memory via the shared model (src/planner/memory_model.h), fed the *measured*
    // stash depth: naive keeps current weights + gradient, stashing adds (depth - 1) full
    // versions, 2BW a single shadow buffer; a recomputing stage stashes only boundary
    // inputs and materializes one full activation set during the recomputed backward.
    const int64_t boundary_in =
        r->stage > 0
            ? profile_.BoundaryActivationBytes(plan_.stage(r->stage).begin_layer - 1)
            : 0;
    const int64_t memory = StagePeakMemoryBytes(
        stage.weight_bytes, stage.activation_bytes, boundary_in, StageMode(r->stage),
        StageRecompute(r->stage), std::max(1, r->peak_stash));
    // += rather than =: an interleaved physical worker hosts several chunk-stages and pays
    // for all of them (plans without chunking assign each worker exactly once).
    result.worker_peak_memory[static_cast<size_t>(r->worker)] += memory;
    result.stage_peak_stash[static_cast<size_t>(r->stage)] =
        std::max(result.stage_peak_stash[static_cast<size_t>(r->stage)], r->peak_stash);
  }
  if (fault_fired_) {
    result.fault_seconds = fault_time_.ToSeconds();
    result.recovery_seconds = recovery_time_.ToSeconds();
    result.reexecuted_minibatches = completed_at_failure_ - restart_from_;
    // Steady-state throughput after the pipeline resumed (for degraded runs, the survivors'
    // sustained rate).
    int64_t after = 0;
    for (const SimTime& t : completion_times_) {
      if (t > recovery_time_) {
        ++after;
      }
    }
    const double window = (engine_.now() - recovery_time_).ToSeconds();
    if (after > 0 && window > 0.0) {
      result.post_recovery_throughput_samples_per_sec =
          static_cast<double>(after) * static_cast<double>(profile_.minibatch_size) / window;
    }
  }
  result.replans = replans_;
  result.replan_latency_seconds = replan_latency_seconds_;
  result.final_plan = plan_;
  result.trace = std::move(trace_);
  return result;
}

}  // namespace

SimResult SimulatePipeline(const ModelProfile& profile, const PipelinePlan& plan,
                           const HardwareTopology& topology, const SimOptions& options) {
  PipelineSimulation sim(profile, plan, topology, options);
  return sim.Run();
}

DataParallelResult SimulateDataParallelBsp(const ModelProfile& profile,
                                           const HardwareTopology& topology, int workers) {
  PD_CHECK_GE(workers, 1);
  PD_CHECK_LE(workers, topology.num_workers());
  DataParallelResult result;
  const int n = profile.num_layers();
  double compute = 0.0;
  for (const LayerProfile& l : profile.layers) {
    compute += l.total_seconds();
  }
  result.compute_seconds = compute;
  if (workers == 1) {
    result.iteration_seconds = compute;
    result.throughput_samples_per_sec =
        static_cast<double>(profile.minibatch_size) / compute;
    return result;
  }

  // Per-layer all_reduce cost over the hierarchy, NCCL-style: a reduce phase inside each
  // level (engaging n_k components) per level, each at that level's effective collective
  // bandwidth. Wait-free backprop: layer l's gradient chunk becomes ready when its backward
  // finishes; chunks serialize on the NIC. Forward runs first, then backwards from the last
  // layer down.
  auto allreduce_seconds = [&](int64_t bytes) {
    double total = 0.0;
    for (int k = 1; k <= topology.num_levels(); ++k) {
      const int below = topology.WorkersPerComponent(k - 1);
      const int engaged = std::min(topology.level(k).fanout, (workers + below - 1) / below);
      if (engaged <= 1) {
        continue;
      }
      const double divisor =
          topology.level(k).shared_bus ? 1.0 : static_cast<double>(engaged);
      total += 2.0 * static_cast<double>(engaged - 1) / divisor * static_cast<double>(bytes) /
               topology.level(k).effective_collective_bandwidth();
    }
    return total;
  };
  double fwd_total = 0.0;
  for (const LayerProfile& l : profile.layers) {
    fwd_total += l.fwd_seconds;
  }
  double t = fwd_total;
  double comm_free = 0.0;
  double total_weight_bytes = 0.0;
  for (int l = n - 1; l >= 0; --l) {
    const LayerProfile& layer = profile.layers[static_cast<size_t>(l)];
    t += layer.bwd_seconds;  // backward of layer l completes at time t
    if (layer.param_bytes == 0) {
      continue;
    }
    total_weight_bytes += static_cast<double>(layer.param_bytes);
    const double chunk = allreduce_seconds(layer.param_bytes);
    const double start = std::max(t, comm_free);
    comm_free = start + chunk;
  }
  const double iteration = std::max(compute, comm_free);
  result.iteration_seconds = iteration;
  result.stall_seconds = iteration - compute;
  result.comm_overhead_fraction = iteration > 0.0 ? result.stall_seconds / iteration : 0.0;
  result.throughput_samples_per_sec = static_cast<double>(workers) *
                                      static_cast<double>(profile.minibatch_size) / iteration;
  result.comm_bytes_per_sample =
      2.0 * static_cast<double>(workers - 1) * total_weight_bytes /
      (static_cast<double>(workers) * static_cast<double>(profile.minibatch_size));
  return result;
}

}  // namespace pipedream
