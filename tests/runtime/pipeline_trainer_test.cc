#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/graph/loss.h"
#include "src/graph/models.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/optim/adam.h"
#include "src/optim/sgd.h"
#include "src/runtime/pipeline_trainer.h"

namespace pipedream {
namespace {

TEST(PipelineTrainerTest, LossDecreasesOverEpochs) {
  const Dataset data = MakeGaussianMixture(4, 8, 64, 0.3, 11);
  Rng rng(1);
  const auto model = BuildMlpClassifier(8, {16}, 4, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 16, 3);
  const auto first = trainer.TrainEpoch();
  EpochStats last{};
  for (int e = 0; e < 6; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.mean_loss, first.mean_loss);
  EXPECT_EQ(first.minibatches, trainer.batches_per_epoch());
}

TEST(PipelineTrainerTest, ReachesHighAccuracyOnMixture) {
  const Dataset all = MakeGaussianMixture(3, 6, 120, 0.25, 13);
  Dataset data;
  Dataset eval;
  SplitDataset(all, 0.75, &data, &eval);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16, 12}, 3, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2, 4});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1, 0.9);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 12, 5);
  for (int e = 0; e < 12; ++e) {
    trainer.TrainEpoch();
  }
  EXPECT_GT(trainer.EvaluateAccuracy(eval, 20), 0.9);
}

TEST(PipelineTrainerTest, ReplicatedInputStageTrains) {
  // A 2-1 configuration (Figure 8) with gradient all_reduce across the replicas.
  const Dataset data = MakeGaussianMixture(3, 6, 96, 0.3, 17);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16}, 3, &rng);
  const auto plan = MakePlanFromShape({{2, 2}, {1, 1}});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 12, 5);
  const auto first = trainer.TrainEpoch();
  EpochStats last{};
  for (int e = 0; e < 8; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.mean_loss, first.mean_loss * 0.8);
}

TEST(PipelineTrainerTest, SequenceModelTrainsOnCopyTask) {
  // GNMT analogue: an LSTM pipeline learning the sequence-copy task.
  const Dataset data = MakeSequenceCopy(6, 5, 128, /*reverse=*/false, 19);
  Rng rng(3);
  const auto model = BuildLstmSeqModel(6, 8, 16, 2, &rng);
  // embedding | lstm1 | lstm2 + head: 3 stages.
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {1, 2});
  SoftmaxCrossEntropy loss;
  Adam adam(0.01);
  PipelineTrainer trainer(*model, plan, &loss, adam, &data, 16, 5);
  const auto first = trainer.TrainEpoch();
  EpochStats last{};
  for (int e = 0; e < 10; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.mean_loss, first.mean_loss * 0.7);
}

TEST(PipelineTrainerTest, GPipeScheduleTrains) {
  const Dataset data = MakeGaussianMixture(3, 6, 96, 0.3, 23);
  Rng rng(2);
  const auto model = BuildMlpClassifier(6, {16}, 3, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.2);
  PipelineTrainerOptions options;
  options.schedule = ScheduleKind::kGPipe;
  options.gpipe_microbatches = 4;
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 12, 5, options);
  const auto first = trainer.TrainEpoch();
  EpochStats last{};
  for (int e = 0; e < 8; ++e) {
    last = trainer.TrainEpoch();
  }
  EXPECT_LT(last.mean_loss, first.mean_loss * 0.8);
}

TEST(PipelineTrainerTest, AssembleModelMatchesEvaluation) {
  const Dataset data = MakeGaussianMixture(3, 4, 48, 0.3, 29);
  Rng rng(2);
  const auto model = BuildMlpClassifier(4, {8}, 3, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 8, 5);
  trainer.TrainEpoch();
  // Assembling twice gives identical weights (no hidden state mutation).
  const auto a = trainer.AssembleModel();
  const auto b = trainer.AssembleModel();
  const auto pa = a->Params();
  const auto pb = b->Params();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

TEST(PipelineTrainerTest, FourStagePipelineCompletesManyEpochs) {
  const Dataset data = MakeGaussianMixture(2, 4, 64, 0.4, 31);
  Rng rng(4);
  const auto model = BuildMlpClassifier(4, {8, 8, 8}, 2, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2, 4, 6});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.05);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 8, 5);
  for (int e = 0; e < 5; ++e) {
    const auto stats = trainer.TrainEpoch();
    EXPECT_EQ(stats.minibatches, trainer.batches_per_epoch());
  }
  EXPECT_EQ(trainer.epochs_completed(), 5);
}

// Checksum + send is booked apart from layer compute: every boundary message a stage sends
// is one runtime/stage<N>/send_seconds observation, and the histogram is on /metrics.
TEST(PipelineTrainerTest, SendTimeHasItsOwnHistogram) {
  const Dataset data = MakeGaussianMixture(4, 8, 64, 0.3, 11);
  Rng rng(1);
  const auto model = BuildMlpClassifier(8, {16}, 4, &rng);
  const auto plan = MakeStraightPlan(static_cast<int>(model->size()), {2});
  SoftmaxCrossEntropy loss;
  Sgd sgd(0.1);
  PipelineTrainer trainer(*model, plan, &loss, sgd, &data, 16, 3);
  obs::Histogram* send0 = obs::GetHistogram("runtime/stage0/send_seconds");
  obs::Histogram* send1 = obs::GetHistogram("runtime/stage1/send_seconds");
  obs::Histogram* fwd1 = obs::GetHistogram("runtime/stage1/fwd_seconds");
  const int64_t send0_before = send0->snapshot().count();
  const int64_t send1_before = send1->snapshot().count();
  const int64_t fwd1_before = fwd1->snapshot().count();
  const auto stats = trainer.TrainEpoch();
  // Stage 0 sends each activation forward; the output stage hands itself the loss gradient
  // and then sends the input gradient back.
  EXPECT_EQ(send0->snapshot().count() - send0_before, stats.minibatches);
  EXPECT_EQ(send1->snapshot().count() - send1_before, 2 * stats.minibatches);
  EXPECT_EQ(fwd1->snapshot().count() - fwd1_before, stats.minibatches);
  const std::string body = obs::HealthServer::Handle("/metrics").body;
  EXPECT_NE(body.find("pipedream_runtime_stage0_send_seconds"), std::string::npos);
  EXPECT_NE(body.find("pipedream_runtime_stage1_send_seconds"), std::string::npos);
}

}  // namespace
}  // namespace pipedream
