// Tests for the named model registry: load/unload/list lifecycle, default
// resolution, per-model generations and stats, routing predict frames to the
// right model, dispatch onto the shared predict pool (admission, drain and
// one-generation-per-frame, held deterministic by parking the pool's
// workers), and hot-reload from disk that leaves other models untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/grafics.h"
#include "parked_pool.h"
#include "serve/model_registry.h"
#include "synth/presets.h"

namespace grafics::serve {
namespace {

using namespace std::chrono_literals;

core::GraficsConfig FastConfig(std::uint64_t trainer_seed) {
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 60;
  config.trainer.seed = trainer_seed;
  config.online_refine_iterations = 300;
  return config;
}

struct Fixture {
  std::shared_ptr<const core::Grafics> model;
  std::vector<rf::SignalRecord> queries;
  std::vector<std::optional<rf::FloorId>> reference;

  explicit Fixture(std::uint64_t trainer_seed,
                   std::uint64_t building_seed = 53) {
    auto config = synth::CampusBuildingConfig(building_seed, 60);
    auto sim = config.MakeSimulator();
    rf::Dataset dataset = sim.GenerateDataset();
    Rng rng(54);
    auto [train, test] = dataset.TrainTestSplit(0.7, rng);
    train.KeepLabelsPerFloor(4, rng);
    core::Grafics system(FastConfig(trainer_seed));
    system.Train(train.records());
    queries.assign(test.records().begin(), test.records().end());
    reference = system.PredictBatch(queries, {.num_threads = 1});
    model = std::make_shared<const core::Grafics>(std::move(system));
  }
};

const Fixture& ModelA() {
  static const Fixture fixture(1);
  return fixture;
}

const Fixture& ModelB() {
  static const Fixture fixture(2);
  return fixture;
}

/// A model of another building: ModelA's queries share no MAC with it, so
/// it discards every one of them where ModelA names a floor.
const Fixture& OtherBuilding() {
  static const Fixture fixture(1, /*building_seed=*/77);
  return fixture;
}

/// The per-record outcomes of one predict frame, filled by the completion
/// callbacks on the pool workers.
class FrameAnswers {
 public:
  explicit FrameAnswers(std::size_t records)
      : state_(std::make_shared<State>(records)),
        all_(state_->all.get_future().share()) {}

  ModelRegistry::BatchCallback Callback() const {
    return [state = state_](std::size_t index, PredictOutcome outcome) {
      state->outcomes[index] = std::move(outcome);
      if (state->remaining.fetch_sub(1) == 1) state->all.set_value();
    };
  }

  /// True once every record is answered; never blocks.
  bool Ready() const { return all_.wait_for(0s) == std::future_status::ready; }

  /// Waits (bounded) for every answer; error outcomes fail the test.
  std::vector<std::optional<rf::FloorId>> Floors() const {
    if (all_.wait_for(30s) != std::future_status::ready) {
      ADD_FAILURE() << "predict frame not answered within 30s";
      return {};
    }
    std::vector<std::optional<rf::FloorId>> floors;
    for (const PredictOutcome& outcome : state_->outcomes) {
      EXPECT_EQ(outcome.error, "");
      floors.push_back(outcome.floor);
    }
    return floors;
  }

 private:
  struct State {
    explicit State(std::size_t records)
        : outcomes(records), remaining(records) {}
    std::vector<PredictOutcome> outcomes;
    std::atomic<std::size_t> remaining;
    std::promise<void> all;
  };
  std::shared_ptr<State> state_;
  std::shared_future<void> all_;
};

/// One predict frame through the registry's entry point, waited for.
std::vector<std::optional<rf::FloorId>> PredictFrame(
    ModelRegistry& registry, const std::string& name,
    std::vector<rf::SignalRecord> records) {
  FrameAnswers answers(records.size());
  EXPECT_TRUE(registry.TrySubmitBatchAsync(name, std::move(records),
                                           answers.Callback(),
                                           /*max_queue_depth=*/0));
  return answers.Floors();
}

std::optional<rf::FloorId> PredictOne(ModelRegistry& registry,
                                      const std::string& name,
                                      const rf::SignalRecord& record) {
  const auto floors = PredictFrame(registry, name, {record});
  return floors.empty() ? std::nullopt : floors.front();
}

std::vector<std::optional<rf::FloorId>> Prefix(
    const std::vector<std::optional<rf::FloorId>>& all, std::size_t n) {
  return {all.begin(), all.begin() + static_cast<long>(n)};
}

TEST(ModelRegistryTest, LoadListAndDefaultLifecycle) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.default_model(), "");
  registry.Load("alpha", ModelA().model);
  registry.Load("beta", ModelB().model);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.default_model(), "alpha");  // first loaded wins
  EXPECT_TRUE(registry.Has("alpha"));
  EXPECT_FALSE(registry.Has("gamma"));

  const std::vector<ModelInfo> models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[0].generation, 1u);
  EXPECT_FALSE(models[0].reloadable);
  EXPECT_EQ(models[1].name, "beta");

  registry.SetDefaultModel("beta");
  EXPECT_EQ(registry.default_model(), "beta");
  EXPECT_THROW(registry.SetDefaultModel("gamma"), Error);
}

TEST(ModelRegistryTest, ValidatesNamesAndModels) {
  ModelRegistry registry;
  EXPECT_THROW(registry.Load("", ModelA().model), Error);
  EXPECT_THROW(registry.Load("has space", ModelA().model), Error);
  EXPECT_THROW(registry.Load("has=equals", ModelA().model), Error);
  EXPECT_THROW(registry.Load(std::string(kMaxModelNameBytes + 1, 'm'),
                             ModelA().model),
               Error);
  EXPECT_THROW(registry.Load("alpha", nullptr), Error);
  EXPECT_THROW(
      registry.Load("alpha", std::make_shared<const core::Grafics>()),
      Error);
  EXPECT_EQ(registry.size(), 0u);
  // Non-ASCII bytes are legal (only whitespace/control/'=' are not).
  registry.Load("m\xC3\xBCnchen", ModelA().model);
  EXPECT_TRUE(registry.Has("m\xC3\xBCnchen"));
}

TEST(ModelRegistryTest, SubmitRoutesByNameAndResolvesDefault) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  registry.Load("beta", b.model);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(PredictOne(registry, "alpha", a.queries[i]), a.reference[i])
        << i;
    EXPECT_EQ(PredictOne(registry, "beta", b.queries[i]), b.reference[i])
        << i;
    EXPECT_EQ(PredictOne(registry, "", a.queries[i]), a.reference[i]) << i;
  }
  EXPECT_THROW(PredictOne(registry, "gamma", a.queries[0]), Error);

  // A multi-record frame: one name resolution, answers in request order.
  EXPECT_EQ(PredictFrame(registry, "beta",
                         {b.queries.begin(), b.queries.begin() + 4}),
            Prefix(b.reference, 4));

  const std::vector<ModelStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "alpha");
  EXPECT_EQ(stats[0].requests, 12u);  // named + default records
  EXPECT_EQ(stats[0].batches, 12u);   // one request per frame
  EXPECT_EQ(stats[0].max_batch, 1u);
  EXPECT_EQ(stats[1].name, "beta");
  EXPECT_EQ(stats[1].requests, 10u);  // singles + the frame of 4
  EXPECT_EQ(stats[1].batches, 7u);
  EXPECT_EQ(stats[1].max_batch, 4u);
}

TEST(ModelRegistryTest, ReloadingLoadBumpsGenerationAndSwapsSnapshot) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  ModelRegistry registry;
  registry.Load("alpha", a.model);
  EXPECT_EQ(registry.generation("alpha"), 1u);
  EXPECT_EQ(registry.Snapshot("alpha"), a.model);

  registry.Load("alpha", b.model);
  EXPECT_EQ(registry.generation("alpha"), 2u);
  EXPECT_EQ(registry.Snapshot(), b.model);  // empty name = default
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(PredictOne(registry, "alpha", b.queries[0]), b.reference[0]);
}

TEST(ModelRegistryTest, UnloadDrainsAndRemovesButProtectsDefault) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  auto pool = std::make_shared<ThreadPool>(1);
  ModelRegistry registry(pool);
  registry.Load("alpha", a.model);
  registry.Load("beta", b.model);

  ParkedPool parked(*pool);
  FrameAnswers pending(1);
  ASSERT_TRUE(registry.TrySubmitBatchAsync("beta", {b.queries[0]},
                                           pending.Callback(), 0));
  auto unloading =
      std::async(std::launch::async, [&] { registry.Unload("beta"); });
  // Unload waits for the admitted record, which cannot run while parked.
  EXPECT_EQ(unloading.wait_for(50ms), std::future_status::timeout);
  parked.Release();
  unloading.get();
  // The record was answered, correctly, before Unload returned.
  EXPECT_TRUE(pending.Ready());
  EXPECT_EQ(pending.Floors(), Prefix(b.reference, 1));
  EXPECT_FALSE(registry.Has("beta"));
  EXPECT_THROW(PredictOne(registry, "beta", b.queries[0]), Error);
  EXPECT_THROW(registry.Unload("beta"), Error);
  EXPECT_THROW(registry.Unload("alpha"), Error);  // the default is protected
  EXPECT_EQ(PredictOne(registry, "alpha", a.queries[0]), a.reference[0]);
}

TEST(ModelRegistryTest, ReloadFromDiskSwapsOnlyTheNamedModel) {
  const Fixture& a = ModelA();
  const Fixture& b = ModelB();
  const std::string path =
      testing::TempDir() + "model_registry_test_model.bin";
  a.model->SaveModel(path);
  ModelRegistry registry;
  registry.LoadFromDisk("alpha", path);
  registry.Load("beta", b.model);
  EXPECT_TRUE(registry.List()[0].reloadable);
  EXPECT_FALSE(registry.List()[1].reloadable);
  EXPECT_EQ(PredictOne(registry, "alpha", a.queries[0]), a.reference[0]);

  // Swap the artifact on disk, then reload by name: alpha serves model B's
  // answers, beta's snapshot and generation stay untouched.
  b.model->SaveModel(path);
  EXPECT_EQ(registry.ReloadFromDisk("alpha"), 2u);
  EXPECT_EQ(registry.generation("alpha"), 2u);
  EXPECT_EQ(registry.generation("beta"), 1u);
  EXPECT_EQ(registry.Snapshot("beta"), b.model);
  EXPECT_EQ(PredictFrame(registry, "alpha",
                         {b.queries.begin(), b.queries.begin() + 4}),
            Prefix(b.reference, 4));
  EXPECT_THROW(registry.ReloadFromDisk("beta"), Error);  // no path recorded
  EXPECT_THROW(registry.ReloadFromDisk("gamma"), Error);
}

TEST(ModelRegistryTest, StopAnswersParkedRecordsBeforeReturning) {
  const Fixture& a = ModelA();
  auto pool = std::make_shared<ThreadPool>(1);
  ModelRegistry registry(pool);
  registry.Load("alpha", a.model);
  ParkedPool parked(*pool);
  FrameAnswers pending(2);
  ASSERT_TRUE(registry.TrySubmitBatchAsync(
      "alpha", {a.queries[0], a.queries[1]}, pending.Callback(), 0));
  auto stopping = std::async(std::launch::async, [&] { registry.Stop(); });
  EXPECT_EQ(stopping.wait_for(50ms), std::future_status::timeout);
  EXPECT_FALSE(pending.Ready());
  parked.Release();
  stopping.get();
  // Both parked records were answered before Stop returned, bit-identically.
  EXPECT_TRUE(pending.Ready());
  EXPECT_EQ(pending.Floors(), Prefix(a.reference, 2));
  // Later predicts are refused with an error the transport can relay.
  try {
    PredictOne(registry, "alpha", a.queries[0]);
    FAIL() << "expected a predict after Stop to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("after Stop"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(registry.Load("beta", ModelB().model), Error);
  EXPECT_THROW(registry.ReloadFromDisk("alpha"), Error);
  // Stats stay readable for the shutdown report.
  const std::vector<ModelStats> stats = registry.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].requests, 2u);
  EXPECT_EQ(stats[0].queue_depth, 0u);
}

TEST(ModelRegistryTest, ParkedRecordsCountAgainstQueueDepth) {
  const Fixture& a = ModelA();
  auto pool = std::make_shared<ThreadPool>(1);
  ModelRegistry registry(pool);
  registry.Load("alpha", a.model);
  ParkedPool parked(*pool);
  FrameAnswers admitted(2);
  ASSERT_TRUE(registry.TrySubmitBatchAsync(
      "alpha", {a.queries[0], a.queries[1]}, admitted.Callback(),
      /*max_queue_depth=*/2));
  EXPECT_EQ(registry.Stats()[0].queue_depth, 2u);
  // The two parked records fill the depth: one more record is refused, and
  // a refused frame never reaches its callback.
  EXPECT_FALSE(registry.TrySubmitBatchAsync(
      "alpha", {a.queries[2]},
      [](std::size_t, PredictOutcome) {
        ADD_FAILURE() << "a busy-rejected frame was answered";
      },
      /*max_queue_depth=*/2));
  parked.Release();
  EXPECT_EQ(admitted.Floors(), Prefix(a.reference, 2));
  registry.Stop();  // every admitted record is answered and counted down
  const ModelStats stats = registry.Stats()[0];
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.requests, 2u);  // the refused record is not counted
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch, 2u);
}

TEST(ModelRegistryTest, AnswersMatchPredictBatchAtOneAndThreeWorkers) {
  const Fixture& a = ModelA();
  const std::size_t n = std::min<std::size_t>(a.queries.size(), 24);
  const std::vector<rf::SignalRecord> queries(a.queries.begin(),
                                              a.queries.begin() + n);
  for (const std::size_t workers : {1u, 3u}) {
    ModelRegistry registry(std::make_shared<ThreadPool>(workers));
    registry.Load("alpha", a.model);
    // One multi-record frame fanned over the workers, and a stream of
    // single-record frames in flight together.
    EXPECT_EQ(PredictFrame(registry, "alpha", queries), Prefix(a.reference, n))
        << workers << " worker(s)";
    std::vector<FrameAnswers> singles;
    singles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      singles.emplace_back(1);
      ASSERT_TRUE(registry.TrySubmitBatchAsync("alpha", {queries[i]},
                                               singles.back().Callback(), 0));
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(singles[i].Floors(), std::vector{a.reference[i]})
          << workers << " worker(s), record " << i;
    }
  }
}

TEST(ModelRegistryTest, OneFrameIsAnsweredFromTheGenerationItWasAdmittedOn) {
  const Fixture& a = ModelA();
  const std::size_t n = 20;
  ASSERT_GE(a.queries.size(), n);
  const std::vector<rf::SignalRecord> frame_records(a.queries.begin(),
                                                    a.queries.begin() + n);
  const auto swapped_in = OtherBuilding().model;
  const std::vector<std::optional<rf::FloorId>> swapped_answers =
      swapped_in->PredictBatch(frame_records);
  // The two generations disagree on the frame, so any record answered from
  // the swapped-in one would show.
  ASSERT_NE(Prefix(a.reference, n), swapped_answers);
  auto pool = std::make_shared<ThreadPool>(2);
  ModelRegistry registry(pool);
  registry.Load("alpha", a.model);
  ParkedPool parked(*pool);
  FrameAnswers frame(n);
  ASSERT_TRUE(registry.TrySubmitBatchAsync("alpha", frame_records,
                                           frame.Callback(), 0));
  // Hot swap while every record of the frame is still waiting for a worker.
  registry.Load("alpha", swapped_in);
  parked.Release();
  EXPECT_EQ(frame.Floors(), Prefix(a.reference, n));
  // The next frame is admitted on the new generation.
  EXPECT_EQ(PredictFrame(registry, "alpha", frame_records), swapped_answers);
}

}  // namespace
}  // namespace grafics::serve
