// Tests for batch model updates (Grafics::Update), the deep-copy primitive
// of the ingest pipeline (Grafics::Clone), and the k-NN inference head.
#include <gtest/gtest.h>

#include <sstream>

#include "core/grafics.h"
#include "core/inference_context.h"
#include "core/metrics.h"
#include "synth/presets.h"

namespace grafics::core {
namespace {

GraficsConfig FastConfig() {
  GraficsConfig config;
  config.trainer.samples_per_edge = 60;
  config.online_refine_iterations = 300;
  return config;
}

TEST(OnlineUpdateTest, UpdateBeforeTrainThrows) {
  Grafics system(FastConfig());
  EXPECT_THROW(system.Update({}), Error);
}

TEST(OnlineUpdateTest, UpdateAddsRecordsAndSkipsEmpty) {
  auto config = synth::CampusBuildingConfig(31, 50);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(3);
  dataset.KeepLabelsPerFloor(4, rng);
  Grafics system(FastConfig());
  system.Train(dataset.records());
  const std::size_t before = system.graph().NumRecords();

  std::vector<rf::SignalRecord> batch;
  batch.push_back(sim.MeasureAt({10.0, 10.0, 1.2}, 0));
  batch.push_back(rf::SignalRecord());  // empty: skipped
  batch.push_back(sim.MeasureAt({20.0, 20.0, 5.2}, 1));
  EXPECT_EQ(system.Update(batch), 2u);
  EXPECT_EQ(system.graph().NumRecords(), before + 2);
}

TEST(OnlineUpdateTest, UpdateDoesNotChangeClusters) {
  auto config = synth::CampusBuildingConfig(37, 50);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(5);
  dataset.KeepLabelsPerFloor(4, rng);
  Grafics system(FastConfig());
  system.Train(dataset.records());
  const std::size_t clusters_before = system.clustering().num_clusters();
  system.Update({sim.MeasureAt({5.0, 5.0, 1.2}, 0)});
  EXPECT_EQ(system.clustering().num_clusters(), clusters_before);
}

TEST(OnlineUpdateTest, PredictionStillWorksAfterManyUpdates) {
  auto config = synth::CampusBuildingConfig(41, 50);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(7);
  dataset.KeepLabelsPerFloor(4, rng);
  Grafics system(FastConfig());
  system.Train(dataset.records());

  std::vector<rf::SignalRecord> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back(sim.MeasureAt({10.0 + i, 15.0, 1.2}, 0));
  }
  EXPECT_EQ(system.Update(batch), 30u);

  std::size_t correct = 0;
  for (int i = 0; i < 15; ++i) {
    const int floor = i % 3;
    const auto predicted = system.Predict(
        sim.MeasureAt({25.0 + i, 25.0, floor * 4.0 + 1.2}, floor));
    if (predicted && *predicted == floor) ++correct;
  }
  EXPECT_GE(correct, 12u);
}

TEST(CloneTest, CloneIsBitIdenticalAndFullyIndependent) {
  auto config = synth::CampusBuildingConfig(47, 50);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(11);
  auto [train, test] = dataset.TrainTestSplit(0.7, rng);
  train.KeepLabelsPerFloor(4, rng);
  Grafics system(FastConfig());
  system.Train(train.records());

  const Grafics clone = system.Clone();
  const auto original_before = system.PredictBatch(test.records());
  // Same answers from the copy: nothing about the model state drifted.
  const auto cloned = clone.PredictBatch(test.records());
  for (std::size_t i = 0; i < cloned.size(); ++i) {
    EXPECT_EQ(cloned[i], original_before[i]) << i;
  }

  // Mutating a clone must never disturb the source — this is what lets the
  // ingest pipeline fold records on a private copy while the original
  // keeps serving.
  Grafics updated = system.Clone();
  std::vector<rf::SignalRecord> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(sim.MeasureAt({12.0 + i, 14.0, 1.2}, 0));
  }
  EXPECT_EQ(updated.Update(batch), batch.size());
  EXPECT_EQ(updated.graph().NumRecords(),
            system.graph().NumRecords() + batch.size());
  const auto original_after = system.PredictBatch(test.records());
  for (std::size_t i = 0; i < original_after.size(); ++i) {
    EXPECT_EQ(original_after[i], original_before[i]) << i;
  }

  // And the clone behaves exactly like the same Update on the original.
  system.Update(batch);
  const auto updated_predictions = updated.PredictBatch(test.records());
  const auto system_predictions = system.PredictBatch(test.records());
  for (std::size_t i = 0; i < updated_predictions.size(); ++i) {
    EXPECT_EQ(updated_predictions[i], system_predictions[i]) << i;
  }
}

TEST(CloneTest, UntrainedSystemsCloneToo) {
  Grafics system(FastConfig());
  const Grafics clone = system.Clone();
  EXPECT_FALSE(clone.is_trained());
}

TEST(OnlineUpdateTest, KnnHeadMatchesCentroidHeadOnEasyData) {
  auto config = synth::CampusBuildingConfig(43, 60);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(9);
  auto [train, test] = dataset.TrainTestSplit(0.7, rng);
  train.KeepLabelsPerFloor(4, rng);

  GraficsConfig centroid_config = FastConfig();
  GraficsConfig knn_config = FastConfig();
  knn_config.head = InferenceHead::kKnn;
  Grafics centroid_system(centroid_config);
  Grafics knn_system(knn_config);
  centroid_system.Train(train.records());
  knn_system.Train(train.records());

  std::vector<rf::FloorId> truth;
  for (const auto& r : test.records()) truth.push_back(*r.floor());
  const auto centroid_metrics =
      ComputeMetrics(truth, centroid_system.PredictBatch(test.records()));
  const auto knn_metrics =
      ComputeMetrics(truth, knn_system.PredictBatch(test.records()));
  EXPECT_GT(centroid_metrics.micro.f_score, 0.85);
  EXPECT_GT(knn_metrics.micro.f_score, 0.80);
}

// Only a kKnn model holds a kNN head. Head choice never changes training,
// so a centroid model owns exactly the head's bytes less than a kKnn model
// trained alike. Artifacts store no head, so a loaded model holds none
// either: loading sizes vectors exactly, so it may own a little less than
// the centroid model, but never the head's bytes more.
TEST(OnlineUpdateTest, OnlyKnnModelsHoldAKnnHead) {
  auto preset = synth::CampusBuildingConfig(43, 60);
  auto sim = preset.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(9);
  dataset.KeepLabelsPerFloor(4, rng);
  GraficsConfig knn_config = FastConfig();
  knn_config.head = InferenceHead::kKnn;
  Grafics centroid_system(FastConfig());
  Grafics knn_system(knn_config);
  centroid_system.Train(dataset.records());
  knn_system.Train(dataset.records());
  std::stringstream artifact;
  knn_system.SaveModel(artifact);
  const Grafics loaded = Grafics::LoadModel(artifact);

  const cluster::KnnClassifier head(centroid_system.TrainingEmbeddings(),
                                    centroid_system.clustering(),
                                    knn_config.knn);
  const std::size_t centroid_bytes = centroid_system.MemoryBytes().owned_bytes;
  EXPECT_EQ(knn_system.MemoryBytes().owned_bytes,
            centroid_bytes + head.ApproxHeapBytes());
  EXPECT_LE(loaded.MemoryBytes().owned_bytes, centroid_bytes);
  EXPECT_TRUE(loaded.DeltaCompatible(loaded.Clone()));
}

TEST(OnlineUpdateTest, KnnHeadAnswersFromVirtuallyLabeledTrainingRows) {
  auto preset = synth::CampusBuildingConfig(43, 60);
  auto sim = preset.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(9);
  dataset.KeepLabelsPerFloor(4, rng);
  GraficsConfig config = FastConfig();
  config.head = InferenceHead::kKnn;
  Grafics system(config);
  system.Train(dataset.records());

  const cluster::KnnClassifier head(system.TrainingEmbeddings(),
                                    system.clustering(), config.knn);
  InferenceContext context = system.MakeContext();
  for (int i = 0; i < 12; ++i) {
    const int floor = i % 3;
    const rf::SignalRecord probe = sim.MeasureAt(
        {8.0 + 4.0 * i, 15.0 + 2.0 * i, floor * 4.0 + 1.2}, floor);
    const std::optional<rf::FloorId> answer = context.Predict(probe);
    ASSERT_TRUE(answer.has_value()) << i;
    EXPECT_EQ(*answer, head.Predict(context.QueryEmbedding())) << i;
  }
}

}  // namespace
}  // namespace grafics::core
