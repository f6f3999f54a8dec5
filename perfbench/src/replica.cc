#include "replica.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "cluster/centroid_classifier.h"
#include "cluster/knn_classifier.h"
#include "cluster/proximity_clusterer.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "core/grafics.h"
#include "core/inference_context.h"
#include "embed/embedding_overlay.h"
#include "embed/negative_sampler.h"
#include "embed/trainer.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_overlay.h"
#include "ingest/record_journal.h"
#include "store/model_store.h"

namespace perfbench {

namespace {

namespace core = grafics::core;
namespace embed = grafics::embed;
namespace graph = grafics::graph;
using grafics::rf::FloorId;
using grafics::rf::SignalRecord;

/// Predict replica records per workload (split over its buildings).
constexpr std::size_t kReplicaRecords = kMinP99Samples;
/// Folds timed for clone/update/checkpoint: one compaction interval.
constexpr std::size_t kTraceFolds = kCompactEveryFolds;
constexpr int kRepeats = 3;
constexpr double kMinCoverage = 0.95;

double SumMs(const SpanLog& spans, const std::string& name) {
  const std::vector<double> us = spans.DurationsUs(name);
  return std::accumulate(us.begin(), us.end(), 0.0) / 1000.0;
}

std::string SamplerBytes(const embed::NegativeSamplerSet& sampler) {
  std::ostringstream out;
  sampler.Save(out);
  return out.str();
}

/// The stages of Grafics::Train (core/grafics.cc), one span each, compared
/// bit for bit with a real Train of the same records.
bool TrainReplica(const std::vector<SignalRecord>& records, SpanLog& spans,
                  std::uint64_t request) {
  const core::GraficsConfig config = ModelConfig();
  core::Grafics real(config);
  real.Train(records);

  const ScopedSpan root(&spans, "train.replica", -1, request);
  graph::BipartiteGraph graph;
  {
    const ScopedSpan span(&spans, "graph.build", root.id(), request);
    graph = graph::BipartiteGraph::FromRecords(records, config.MakeWeightFn());
  }
  embed::EmbeddingStore store;
  {
    const ScopedSpan span(&spans, "embed.train", root.id(), request);
    store = embed::TrainEmbeddings(graph, config.trainer);
  }
  grafics::Matrix points(records.size(), config.trainer.dim);
  grafics::cluster::ClusteringResult clustering;
  {
    const ScopedSpan span(&spans, "cluster.cluster", root.id(), request);
    std::vector<std::optional<FloorId>> labels(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      const std::span<const double> ego = store.Ego(graph.RecordNode(i));
      std::copy(ego.begin(), ego.end(), points.Row(i).begin());
      labels[i] = records[i].floor();
    }
    clustering =
        grafics::cluster::ClusterEmbeddings(points, labels, config.clusterer);
  }
  std::optional<grafics::cluster::CentroidClassifier> centroids;
  {
    const ScopedSpan span(&spans, "cluster.centroids", root.id(), request);
    centroids.emplace(points, clustering);
    const grafics::cluster::KnnClassifier knn(points, clustering, config.knn);
  }
  embed::NegativeSamplerSet sampler;
  {
    const ScopedSpan span(&spans, "embed.sampler_build", root.id(), request);
    sampler = embed::NegativeSamplerSet::Build(graph);
  }
  return real.graph() == graph && real.embedding_store() == store &&
         real.clustering().cluster_of_point == clustering.cluster_of_point &&
         real.clustering().cluster_label == clustering.cluster_label &&
         real.clustering().merge_history == clustering.merge_history &&
         real.classifier() == *centroids &&
         SamplerBytes(real.negative_sampler()) == SamplerBytes(sampler);
}

/// The stages of InferenceContext::Predict (core/inference_context.cc) over
/// `records`, each paired with the real call. Returns the mismatches.
std::size_t PredictReplica(const core::Grafics& model,
                           const std::vector<SignalRecord>& records,
                           SpanLog& spans, std::uint64_t first_request) {
  const core::GraficsConfig& config = model.config();
  const graph::WeightFn weight_fn = config.MakeWeightFn();
  const embed::NegativeSamplerSet& negatives = model.negative_sampler();
  core::InferenceContext context = model.MakeContext();
  graph::GraphOverlay overlay(model.graph());
  embed::EmbeddingOverlay scratch(model.embedding_store());
  std::vector<graph::NodeId> nodes;
  const auto grow = [&] {
    grafics::Rng grow_rng(config.trainer.seed ^
                          (0x9E3779B9ULL + overlay.BaseNodes()));
    scratch.Grow(overlay.NumScratchNodes(), grow_rng);
    nodes.resize(overlay.NumScratchNodes());
    std::iota(nodes.begin(), nodes.end(),
              static_cast<graph::NodeId>(overlay.BaseNodes()));
  };
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SignalRecord& record = records[i];
    const std::uint64_t request = first_request + i;
    const Clock::time_point start = Clock::now();
    const std::optional<FloorId> real = context.Predict(record);
    spans.Add("core.predict", start, Clock::now(), -1, request);
    std::vector<double> real_embedding;
    if (real.has_value()) {
      const std::span<const double> e = context.QueryEmbedding();
      real_embedding.assign(e.begin(), e.end());
    }

    std::optional<FloorId> replica;
    std::vector<double> replica_embedding;
    {
      const ScopedSpan root(&spans, "predict.replica", -1, request);
      overlay.Reset();
      scratch.Reset();
      const bool known = std::any_of(
          record.observations().begin(), record.observations().end(),
          [&](const grafics::rf::Observation& o) {
            return model.graph().FindMacNode(o.mac).has_value();
          });
      if (known && !record.empty()) {
        graph::NodeId node = 0;
        {
          const ScopedSpan s(&spans, "graph.overlay_insert", root.id(),
                             request);
          node = overlay.AddRecord(record, weight_fn);
        }
        {
          const ScopedSpan s(&spans, "embed.grow", root.id(), request);
          grow();
        }
        {
          const ScopedSpan s(&spans, "embed.refine", root.id(), request);
          embed::RefineNewNodes(overlay, nodes, scratch, config.trainer,
                                config.online_refine_iterations, negatives);
        }
        {
          const ScopedSpan s(&spans, "cluster.classify", root.id(), request);
          const std::span<const double> e = std::as_const(scratch).Ego(node);
          replica = model.classifier().Predict(e);
          replica_embedding.assign(e.begin(), e.end());
        }
      }
    }
    if (real != replica || real_embedding != replica_embedding) ++mismatches;

    // The warm start alone: the same call with 0 iterations, on a fresh
    // overlay so it cannot disturb the replica above.
    if (replica.has_value()) {
      overlay.Reset();
      scratch.Reset();
      overlay.AddRecord(record, weight_fn);
      grow();
      const ScopedSpan s(&spans, "embed.warm_start", -1, request);
      embed::RefineNewNodes(overlay, nodes, scratch, config.trainer, 0,
                            negatives);
    }
  }
  return mismatches;
}

}  // namespace

void MeasureLayers(const RunOptions& options, const Fleet& fleet,
                   SpanLog& spans, MetricSet& metrics,
                   std::vector<std::string>& gate_failures) {
  namespace fs = std::filesystem;
  const std::size_t model_count = fleet.models.size();

  // Training stages, per building.
  for (std::size_t m = 0; m < model_count; ++m) {
    if (!TrainReplica(fleet.buildings[m].train, spans, m)) {
      gate_failures.push_back("train replica differs from Grafics::Train for " +
                              fleet.names[m]);
    }
  }
  metrics.Set("graph.build_ms", SumMs(spans, "graph.build"), "ms");
  metrics.Set("embed.train_ms", SumMs(spans, "embed.train"), "ms");
  metrics.Set("cluster.cluster_ms", SumMs(spans, "cluster.cluster"), "ms");
  metrics.Set("embed.sampler_build_ms", SumMs(spans, "embed.sampler_build"),
              "ms");
  metrics.Set("trace.train_coverage", spans.ChildCoverage("train.replica"),
              "ratio");

  // Predict stages, split over the buildings.
  std::size_t mismatches = 0;
  for (std::size_t m = 0; m < model_count; ++m) {
    const std::size_t count =
        (kReplicaRecords + model_count - 1) / model_count;
    mismatches += PredictReplica(
        fleet.models[m],
        MakeRecords(fleet.buildings[m], options.seed, Stream::kTrace, count),
        spans, m * count);
  }
  if (mismatches > 0) {
    gate_failures.push_back(std::to_string(mismatches) +
                            " predict replica(s) differ from "
                            "InferenceContext::Predict");
  }
  const auto p_us = [&](const char* span, double q) {
    return Percentile(spans.DurationsUs(span), q);
  };
  metrics.Set("core.predict_p50_us", p_us("core.predict", 0.50), "us");
  metrics.Set("core.predict_p99_us", p_us("core.predict", 0.99), "us");
  metrics.Set("graph.overlay_insert_p50_us", p_us("graph.overlay_insert", 0.5),
              "us");
  metrics.Set("embed.refine_p50_us", p_us("embed.refine", 0.50), "us");
  metrics.Set("embed.refine_p99_us", p_us("embed.refine", 0.99), "us");
  metrics.Set("embed.warm_start_p50_us", p_us("embed.warm_start", 0.5), "us");
  metrics.Set("cluster.classify_p50_us", p_us("cluster.classify", 0.5), "us");
  metrics.Set("trace.predict_coverage", spans.ChildCoverage("predict.replica"),
              "ratio");
  for (const char* root : {"train.replica", "predict.replica"}) {
    if (spans.ChildCoverage(root) < kMinCoverage) {
      gate_failures.push_back(std::string(root) +
                              ": child spans cover less than 95%");
    }
  }

  // Fold chunks: Clone + Update, each checkpointed as a store delta.
  const std::string dir = options.work_dir + "/trace-layers";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string& name = fleet.names.front();
  const std::vector<SignalRecord> stream =
      MakeRecords(fleet.buildings.front(), options.seed, Stream::kTrace,
                  kTraceFolds * kFoldRecords);
  auto current =
      std::make_shared<const core::Grafics>(fleet.models.front().Clone());
  {
    grafics::store::ModelStore store(dir + "/store");
    store.WriteBase(name, current);
    for (std::size_t k = 0; k < kTraceFolds; ++k) {
      const std::vector<SignalRecord> chunk(
          stream.begin() + static_cast<std::ptrdiff_t>(k * kFoldRecords),
          stream.begin() + static_cast<std::ptrdiff_t>((k + 1) * kFoldRecords));
      std::optional<core::Grafics> next;
      {
        const ScopedSpan s(&spans, "core.clone", -1, k);
        next.emplace(current->Clone());
      }
      {
        const ScopedSpan s(&spans, "core.update", -1, k);
        next->Update(chunk);
      }
      current = std::make_shared<const core::Grafics>(std::move(*next));
      const ScopedSpan s(&spans, "store.checkpoint", -1, k);
      store.WriteCheckpoint(name, current);
    }
  }
  metrics.Set("core.clone_us", p_us("core.clone", 0.5), "us");
  metrics.Set("core.update_ms", p_us("core.update", 0.5) / 1000.0, "ms");
  metrics.Set("store.checkpoint_ms", p_us("store.checkpoint", 0.5) / 1000.0,
              "ms");
  const std::vector<SignalRecord> probes = MakeRecords(
      fleet.buildings.front(), options.seed, Stream::kProbe, kProbeRecords);
  for (int r = 0; r < kRepeats; ++r) {
    std::shared_ptr<const core::Grafics> opened;
    {
      const ScopedSpan s(&spans, "store.open", -1, static_cast<std::uint64_t>(r));
      grafics::store::ModelStore store(dir + "/store");
      opened = store.Open(name);
    }
    if (opened->PredictBatch(probes) != current->PredictBatch(probes)) {
      gate_failures.push_back("store restore differs from the live model");
    }
  }
  metrics.Set("store.open_ms", p_us("store.open", 0.5) / 1000.0, "ms");
  std::vector<double> load_ms;
  for (int r = 0; r < kRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    for (const std::string& artifact : fleet.artifacts) {
      const ScopedSpan s(&spans, "store.load_model", -1,
                         static_cast<std::uint64_t>(r));
      const core::Grafics loaded = core::Grafics::LoadModel(artifact);
    }
    load_ms.push_back(ToMs(Clock::now() - start));
  }
  metrics.Set("store.load_model_ms", Percentile(load_ms, 0.5), "ms");

  // Journal appends of one-record submit frames, on the checkout's disk.
  {
    grafics::ingest::RecordJournal journal(dir + "/journal", name);
    for (std::size_t i = 0; i < kMinP99Samples; ++i) {
      const ScopedSpan s(&spans, "ingest.journal_append", -1, i);
      journal.Append(std::span<const SignalRecord>(&stream[i % stream.size()],
                                                   1));
    }
  }
  metrics.Set("ingest.journal_append_p50_us",
              p_us("ingest.journal_append", 0.50), "us");
  metrics.Set("ingest.journal_append_p99_us",
              p_us("ingest.journal_append", 0.99), "us");
}

}  // namespace perfbench
