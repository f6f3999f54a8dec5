// Throughput micro-benchmarks (google-benchmark) for the performance-
// critical GRAFICS components: graph construction, alias sampling, E-LINE
// training, online embedding refinement, constrained clustering,
// nearest-centroid prediction, and the simd vector-kernel layer (with
// p50/p99 latency, exported by CI as BENCH_simd_kernels.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <numeric>

#include "cluster/centroid_classifier.h"
#include "cluster/proximity_clusterer.h"
#include "common/alias_sampler.h"
#include "common/simd.h"
#include "core/grafics.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "synth/presets.h"

namespace {

using namespace grafics;

rf::Dataset& CachedDataset() {
  static rf::Dataset dataset = [] {
    auto config = synth::CampusBuildingConfig(/*seed=*/4242, /*rpf=*/150);
    auto sim = config.MakeSimulator();
    return sim.GenerateDataset();
  }();
  return dataset;
}

void BM_GraphConstruction(benchmark::State& state) {
  const rf::Dataset& dataset = CachedDataset();
  const auto weight = graph::OffsetWeight(120.0);
  for (auto _ : state) {
    auto g = graph::BipartiteGraph::FromRecords(dataset.records(), weight);
    benchmark::DoNotOptimize(g.NumEdges());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dataset.size()));
}
BENCHMARK(BM_GraphConstruction)->Unit(benchmark::kMillisecond);

void BM_AliasSampler(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(n);
  Rng rng(1);
  for (double& w : weights) w = rng.Uniform(0.1, 10.0);
  const AliasSampler sampler(weights);
  Rng draw_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(draw_rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSampler)->Arg(1000)->Arg(100000);

void BM_ELineTraining(benchmark::State& state) {
  const rf::Dataset& dataset = CachedDataset();
  const auto g = graph::BipartiteGraph::FromRecords(
      dataset.records(), graph::OffsetWeight(120.0));
  embed::TrainerConfig config;
  config.samples_per_edge = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto store = embed::TrainEmbeddings(g, config);
    benchmark::DoNotOptimize(store.num_nodes());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(config.samples_per_edge * g.NumEdges()));
}
BENCHMARK(BM_ELineTraining)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_OnlineInference(benchmark::State& state) {
  rf::Dataset dataset = CachedDataset();
  Rng rng(3);
  dataset.KeepLabelsPerFloor(4, rng);
  core::GraficsConfig config;
  config.trainer.samples_per_edge = 40;
  config.online_refine_iterations =
      static_cast<std::size_t>(state.range(0));
  core::Grafics system(config);
  system.Train(dataset.records());
  auto sim_config = synth::CampusBuildingConfig(/*seed=*/4242, /*rpf=*/1);
  auto sim = sim_config.MakeSimulator();
  for (auto _ : state) {
    state.PauseTiming();
    const rf::SignalRecord probe = sim.MeasureAt({20.0, 20.0, 1.2}, 0);
    state.ResumeTiming();
    benchmark::DoNotOptimize(system.Predict(probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineInference)->Arg(200)->Arg(600)->Unit(benchmark::kMillisecond);

void BM_ConstrainedClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix points(n, 8);
  std::vector<std::optional<rf::FloorId>> labels(n, std::nullopt);
  for (std::size_t i = 0; i < n; ++i) {
    const int floor = static_cast<int>(i % 3);
    for (std::size_t c = 0; c < 8; ++c) {
      points(i, c) = floor * 5.0 + rng.Normal(0.0, 0.5);
    }
    if (i < 12) labels[i] = floor;
  }
  for (auto _ : state) {
    auto result = cluster::ClusterEmbeddings(points, labels);
    benchmark::DoNotOptimize(result.num_clusters());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConstrainedClustering)
    ->Arg(200)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_CentroidPrediction(benchmark::State& state) {
  Rng rng(9);
  const std::size_t centroids = 48;
  Matrix means(centroids, 8);
  std::vector<rf::FloorId> labels(centroids);
  for (std::size_t i = 0; i < centroids; ++i) {
    labels[i] = static_cast<rf::FloorId>(i % 12);
    for (std::size_t c = 0; c < 8; ++c) means(i, c) = rng.Normal(0.0, 1.0);
  }
  const cluster::CentroidClassifier classifier(means, labels);
  std::vector<double> probe(8);
  for (double& v : probe) v = rng.Normal(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Predict(probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CentroidPrediction);

// --- copy-on-write snapshot benches ---------------------------------------
// Run at two model sizes (records per floor): fork cost must stay flat while
// the deep-materialization baseline and the model itself grow. The CI
// bench-smoke job exports these as BENCH_snapshot_fork.json (report-only).

core::Grafics& CachedSystem(int records_per_floor) {
  static std::map<int, core::Grafics> systems;
  const auto it = systems.find(records_per_floor);
  if (it != systems.end()) return it->second;
  auto config = synth::CampusBuildingConfig(/*seed=*/4242, records_per_floor);
  auto sim = config.MakeSimulator();
  rf::Dataset dataset = sim.GenerateDataset();
  Rng rng(3);
  dataset.KeepLabelsPerFloor(4, rng);
  core::GraficsConfig grafics_config;
  grafics_config.trainer.samples_per_edge = 20;
  grafics_config.online_refine_iterations = 100;
  core::Grafics system(grafics_config);
  system.Train(dataset.records());
  return systems.emplace(records_per_floor, std::move(system)).first->second;
}

void BM_SnapshotFork(benchmark::State& state) {
  const core::Grafics& system =
      CachedSystem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::Grafics fork = system.Clone();
    benchmark::DoNotOptimize(fork.is_trained());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["model_nodes"] =
      static_cast<double>(system.graph().NumNodes());
}
BENCHMARK(BM_SnapshotFork)->Arg(60)->Arg(240);

void BM_DeepMaterialize(benchmark::State& state) {
  // The pre-refactor Clone cost: materialize every embedding row and every
  // adjacency list. Fork-vs-deep-copy baseline for BM_SnapshotFork.
  const core::Grafics& system =
      CachedSystem(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const Matrix ego = system.embedding_store().ego_matrix();
    const Matrix context = system.embedding_store().context_matrix();
    const auto edges = system.graph().Edges();
    benchmark::DoNotOptimize(ego.rows() + context.rows() + edges.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["model_nodes"] =
      static_cast<double>(system.graph().NumNodes());
}
BENCHMARK(BM_DeepMaterialize)->Arg(60)->Arg(240)->Unit(benchmark::kMillisecond);

void BM_FoldPublish(benchmark::State& state) {
  // One ingest fold: fork the served snapshot, Update a fixed-size batch,
  // wrap for publish. With copy-on-write chunks the cost tracks the batch,
  // not the model — compare across the two Arg sizes.
  const core::Grafics& system =
      CachedSystem(static_cast<int>(state.range(0)));
  auto config = synth::CampusBuildingConfig(/*seed=*/4242, /*rpf=*/1);
  auto sim = config.MakeSimulator();
  std::vector<rf::SignalRecord> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(sim.MeasureAt({10.0 + i, 12.0, 1.2}, 0));
  }
  for (auto _ : state) {
    core::Grafics fork = system.Clone();
    fork.Update(batch);
    auto published = std::make_shared<const core::Grafics>(std::move(fork));
    benchmark::DoNotOptimize(published->graph().NumNodes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
  state.counters["model_nodes"] =
      static_cast<double>(system.graph().NumNodes());
}
BENCHMARK(BM_FoldPublish)->Arg(60)->Arg(240)->Unit(benchmark::kMillisecond);

void BM_HogwildTrainingThreads(benchmark::State& state) {
  const rf::Dataset& dataset = CachedDataset();
  const auto g = graph::BipartiteGraph::FromRecords(
      dataset.records(), graph::OffsetWeight(120.0));
  embed::TrainerConfig config;
  config.samples_per_edge = 20;
  config.num_threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto store = embed::TrainEmbeddings(g, config);
    benchmark::DoNotOptimize(store.num_nodes());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(config.samples_per_edge * g.NumEdges()));
}
BENCHMARK(BM_HogwildTrainingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()  // worker threads run outside the harness's CPU clock
    ->Unit(benchmark::kMillisecond);

// --- simd vector-kernel latency benches ------------------------------------
// Tail latency matters more than the mean on the serving hot path, so these
// collect a per-op sample every iteration and report p50/p99 alongside the
// harness mean. The bench-smoke CI job exports them as
// BENCH_simd_kernels.json (report-only).

/// Sorted-percentile (linear interpolation) + mean over per-op samples, in
/// nanoseconds, attached as counters so they land in the JSON export.
void ReportLatencyPercentiles(benchmark::State& state,
                              std::vector<double> samples_ns) {
  if (samples_ns.empty()) return;
  std::sort(samples_ns.begin(), samples_ns.end());
  const auto percentile = [&samples_ns](double q) {
    const double pos = q * static_cast<double>(samples_ns.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_ns.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_ns[lo] + frac * (samples_ns[hi] - samples_ns[lo]);
  };
  state.counters["p50_ns"] = percentile(0.5);
  state.counters["p99_ns"] = percentile(0.99);
  state.counters["mean_ns"] =
      std::accumulate(samples_ns.begin(), samples_ns.end(), 0.0) /
      static_cast<double>(samples_ns.size());
}

void BM_DotKernel(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> a(dim), b(dim);
  for (double& v : a) v = rng.Uniform(-1.0, 1.0);
  for (double& v : b) v = rng.Uniform(-1.0, 1.0);
  // A single dot is below clock resolution: time blocks of 256, divide.
  constexpr std::size_t kBlock = 256;
  std::vector<double> samples_ns;
  double sink = 0.0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBlock; ++i) {
      sink += simd::Dot(a.data(), b.data(), dim);
    }
    const auto stop = std::chrono::steady_clock::now();
    samples_ns.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(kBlock));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlock));
  ReportLatencyPercentiles(state, std::move(samples_ns));
}
BENCHMARK(BM_DotKernel)->Arg(8)->Arg(64);

void BM_DistanceScan(benchmark::State& state) {
  // The centroid/kNN classifier shape: one embedding against a packed
  // row-major block, via the one-to-many kernel.
  const auto rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 8;
  Rng rng(13);
  std::vector<double> block(rows * cols);
  std::vector<double> query(cols);
  for (double& v : block) v = rng.Normal(0.0, 1.0);
  for (double& v : query) v = rng.Normal(0.0, 1.0);
  std::vector<double> out(rows);
  constexpr std::size_t kBlockScans = 16;
  std::vector<double> samples_ns;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBlockScans; ++i) {
      simd::SquaredL2DistanceMany(query.data(), block.data(), rows, cols,
                                  out.data());
      benchmark::DoNotOptimize(out.data());
    }
    const auto stop = std::chrono::steady_clock::now();
    samples_ns.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(kBlockScans));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlockScans * rows));
  ReportLatencyPercentiles(state, std::move(samples_ns));
}
BENCHMARK(BM_DistanceScan)->Arg(48)->Arg(1024);

struct RefineFixture {
  graph::BipartiteGraph graph;
  embed::EmbeddingStore store;
  embed::TrainerConfig config;
  embed::NegativeSamplerSet negatives;
  graph::NodeId new_node = 0;
};

RefineFixture& CachedRefineFixture() {
  static RefineFixture* fixture = [] {
    const rf::Dataset& dataset = CachedDataset();
    auto graph = graph::BipartiteGraph::FromRecords(
        dataset.records(), graph::OffsetWeight(120.0));
    embed::TrainerConfig config;
    config.samples_per_edge = 20;
    config.seed = 4242;
    embed::EmbeddingStore store = embed::TrainEmbeddings(graph, config);
    auto sim_config = synth::CampusBuildingConfig(/*seed=*/4242, /*rpf=*/1);
    auto sim = sim_config.MakeSimulator();
    const std::size_t nodes_before = graph.NumNodes();
    const graph::NodeId new_node = graph.AddRecord(
        sim.MeasureAt({20.0, 20.0, 1.2}, 0), graph::OffsetWeight(120.0));
    Rng rng(17);
    store.Grow(graph.NumNodes() - nodes_before, rng);
    auto negatives = embed::NegativeSamplerSet::Build(graph);
    return new RefineFixture{std::move(graph), std::move(store),
                             config, std::move(negatives), new_node};
  }();
  return *fixture;
}

void BM_RefineNewNodes(benchmark::State& state) {
  // One online fold's SGD refinement of a single new node. Repeat calls are
  // deterministic: RefineNewNodes re-derives the node's warm start from its
  // neighbors before refining, so the fixture needs no reset.
  RefineFixture& fixture = CachedRefineFixture();
  const auto iterations = static_cast<std::size_t>(state.range(0));
  const std::vector<graph::NodeId> new_nodes = {fixture.new_node};
  std::vector<double> samples_ns;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    embed::RefineNewNodes(fixture.graph, new_nodes, fixture.store,
                          fixture.config, iterations, fixture.negatives);
    const auto stop = std::chrono::steady_clock::now();
    samples_ns.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(iterations));
  ReportLatencyPercentiles(state, std::move(samples_ns));
}
BENCHMARK(BM_RefineNewNodes)->Arg(100)->Arg(600)->Unit(benchmark::kMicrosecond);

}  // namespace
