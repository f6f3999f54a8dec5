#include "core/grafics.h"

#include <algorithm>
#include <fstream>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "core/inference_context.h"

namespace grafics::core {

Grafics::Grafics(GraficsConfig config)
    : config_(std::move(config)), weight_fn_(config_.MakeWeightFn()) {}

void Grafics::Train(const std::vector<rf::SignalRecord>& records) {
  Require(!records.empty(), "Grafics::Train: no records");
  const std::size_t labeled =
      static_cast<std::size_t>(std::count_if(
          records.begin(), records.end(),
          [](const rf::SignalRecord& r) { return r.is_labeled(); }));
  Require(labeled >= 1, "Grafics::Train: need at least one labeled record");

  // (i) bipartite graph construction (Sec. IV-A).
  graph_ = graph::BipartiteGraph::FromRecords(records, weight_fn_);
  num_training_records_ = records.size();

  // (ii) E-LINE node embeddings (Sec. IV-B).
  store_ = embed::TrainEmbeddings(graph_, config_.trainer);

  // (iii) proximity-based hierarchical clustering (Sec. IV-C).
  Matrix points = TrainingEmbeddings();
  std::vector<std::optional<rf::FloorId>> labels(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    labels[i] = records[i].floor();
  }
  clustering_ = std::make_shared<const cluster::ClusteringResult>(
      cluster::ClusterEmbeddings(points, labels, config_.clusterer));
  classifier_ =
      std::make_shared<const cluster::CentroidClassifier>(points, *clustering_);
  knn_classifier_ =
      config_.head == InferenceHead::kKnn
          ? std::make_shared<const cluster::KnnClassifier>(
                points, *clustering_, config_.knn)
          : nullptr;
  RebuildNegativeSampler();
}

void Grafics::RebuildNegativeSampler() {
  negative_sampler_ = std::make_shared<const embed::NegativeSamplerSet>(
      embed::NegativeSamplerSet::Build(graph_));
}

Matrix Grafics::TrainingEmbeddings() const {
  Require(store_.has_value(), "Grafics: not trained");
  Matrix points(num_training_records_, config_.trainer.dim);
  for (std::size_t i = 0; i < num_training_records_; ++i) {
    const auto ego = store_->Ego(graph_.RecordNode(i));
    std::copy(ego.begin(), ego.end(), points.Row(i).begin());
  }
  return points;
}

std::span<const double> Grafics::TrainingEmbedding(
    std::size_t record_index) const {
  Require(store_.has_value(), "Grafics: not trained");
  return store_->Ego(graph_.RecordNode(record_index));
}

graph::NodeId Grafics::ExtendWith(const rf::SignalRecord& record,
                                  std::vector<graph::NodeId>* touched) {
  const std::size_t nodes_before = graph_.NumNodes();
  const graph::NodeId new_node = graph_.AddRecord(record, weight_fn_);
  const std::size_t new_count = graph_.NumNodes() - nodes_before;

  // Grow the store and refine only the new rows (Sec. V-A). Negatives come
  // from the cached frozen-base sampler, so no O(|V|) rebuild per record.
  Rng grow_rng(config_.trainer.seed ^ (0x9E3779B9ULL + graph_.NumNodes()));
  store_->Grow(new_count, grow_rng);
  std::vector<graph::NodeId> new_nodes;
  new_nodes.reserve(new_count);
  for (std::size_t k = 0; k < new_count; ++k) {
    new_nodes.push_back(static_cast<graph::NodeId>(nodes_before + k));
  }
  embed::RefineNewNodes(graph_, new_nodes, *store_, config_.trainer,
                        config_.online_refine_iterations,
                        *negative_sampler_);
  if (touched != nullptr) {
    // Degree changed for every new node and for the record's existing MAC
    // neighbors — exactly the record node's adjacency plus the new nodes.
    touched->insert(touched->end(), new_nodes.begin(), new_nodes.end());
    for (const graph::Neighbor& nb : graph_.NeighborsOf(new_node)) {
      touched->push_back(nb.node);
    }
  }
  return new_node;
}

std::optional<rf::FloorId> Grafics::Predict(
    const rf::SignalRecord& record) const {
  Require(is_trained(), "Grafics::Predict: call Train first");
  InferenceContext context(*this);
  return context.Predict(record);
}

InferenceContext Grafics::MakeContext() const {
  return InferenceContext(*this);
}

std::size_t Grafics::Update(const std::vector<rf::SignalRecord>& records) {
  Require(is_trained(), "Grafics::Update: call Train first");
  std::size_t added = 0;
  std::vector<graph::NodeId> touched;
  for (const rf::SignalRecord& record : records) {
    if (record.empty()) continue;
    ExtendWith(record, &touched);
    ++added;
  }
  if (touched.empty()) return added;
  // The new nodes (and the MAC nodes that gained edges) must be drawable as
  // negatives by future refinements. Instead of the historical O(|V|)
  // sampler rebuild, append an O(delta) correction group covering exactly
  // the nodes whose degree changed — the distribution stays exact.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  negative_sampler_ = std::make_shared<const embed::NegativeSamplerSet>(
      negative_sampler_->Extended(graph_, touched));
  return added;
}

std::vector<std::optional<rf::FloorId>> Grafics::PredictBatch(
    const std::vector<rf::SignalRecord>& records,
    const BatchPredictOptions& options) const {
  Require(!options.keep,
          "Grafics::PredictBatch: keep=true requires a mutable Grafics");
  Require(is_trained(), "Grafics::PredictBatch: call Train first");
  std::vector<std::optional<rf::FloorId>> predictions(records.size());
  const std::size_t num_threads =
      options.num_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads;
  if (num_threads == 1 || records.size() <= 1) {
    InferenceContext context(*this);
    for (std::size_t i = 0; i < records.size(); ++i) {
      predictions[i] = context.Predict(records[i]);
    }
    return predictions;
  }
  // One snapshot-isolated context per worker: workers share only read-only
  // model state, so chunks run without locks and the result is bit-identical
  // to the serial path.
  ThreadPool pool(num_threads);
  pool.ParallelFor(0, records.size(), [&](std::size_t begin, std::size_t end) {
    InferenceContext context(*this);
    for (std::size_t i = begin; i < end; ++i) {
      predictions[i] = context.Predict(records[i]);
    }
  });
  return predictions;
}

Grafics Grafics::Clone() const {
  // Memberwise copy IS the fork: the trained components are immutable and
  // shared by pointer, and the graph/embedding containers are chunked
  // copy-on-write, so this is O(#components) pointer copies — independent
  // of model size — and the first write to any shared chunk copies only
  // that chunk. Nothing either side can write is visible to the other.
  return *this;
}

CowBytes Grafics::MemoryBytes() const {
  CowBytes bytes = graph_.MemoryBytes();
  if (store_.has_value()) bytes += store_->MemoryBytes();
  if (negative_sampler_ != nullptr) {
    CowBytes sampler = negative_sampler_->MemoryBytes();
    if (negative_sampler_.use_count() > 1) {
      // The whole set is shared through the outer pointer, so everything it
      // holds is reachable from another snapshot even where the internal
      // group/chunk use counts are 1.
      sampler.shared_bytes += sampler.owned_bytes;
      sampler.owned_bytes = 0;
    }
    bytes += sampler;
  }
  // Pointer-shared immutable components: shared when any other snapshot
  // still references them.
  const auto component = [&bytes](const auto& ptr, std::size_t b) {
    if (ptr == nullptr) return;
    (ptr.use_count() > 1 ? bytes.shared_bytes : bytes.owned_bytes) += b;
  };
  if (clustering_ != nullptr) {
    component(clustering_,
              clustering_->cluster_of_point.capacity() * sizeof(std::size_t) +
                  clustering_->cluster_label.capacity() *
                      sizeof(std::optional<rf::FloorId>) +
                  clustering_->merge_history.capacity() *
                      sizeof(std::pair<std::size_t, std::size_t>));
  }
  if (classifier_ != nullptr) {
    component(classifier_, classifier_->ApproxHeapBytes());
  }
  if (knn_classifier_ != nullptr) {
    component(knn_classifier_, knn_classifier_->ApproxHeapBytes());
  }
  return bytes;
}

std::vector<std::optional<rf::FloorId>> Grafics::PredictBatch(
    const std::vector<rf::SignalRecord>& records,
    const BatchPredictOptions& options) {
  BatchPredictOptions snapshot_options = options;
  snapshot_options.keep = false;
  std::vector<std::optional<rf::FloorId>> predictions =
      std::as_const(*this).PredictBatch(records, snapshot_options);
  if (options.keep) {
    // Fold the accepted records back into the model with Update semantics:
    // graph extended, new embeddings refined against the frozen base,
    // clusters and centroids untouched.
    std::vector<rf::SignalRecord> accepted;
    accepted.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (predictions[i].has_value()) accepted.push_back(records[i]);
    }
    Update(accepted);
  }
  return predictions;
}

namespace {
constexpr char kModelMagic[4] = {'G', 'R', 'F', 'X'};
// v1: sampler rebuilt from degrees on load (exact distribution, different
//     draw sequence). v2: exact negative-sampler tables appended, so a
//     loaded model is bit-identical to the live one, folds included.
constexpr std::uint32_t kModelVersion = 2;
constexpr char kDeltaMagic[4] = {'G', 'R', 'F', 'D'};
constexpr std::uint32_t kDeltaVersion = 1;
}  // namespace

void Grafics::SaveModel(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  Require(out.good(), "Grafics::SaveModel: cannot open " + path);
  SaveModel(out);
  Require(out.good(), "Grafics::SaveModel: write failed");
}

void Grafics::SaveModel(std::ostream& out) const {
  Require(is_trained(), "Grafics::SaveModel: model not trained");
  Require(!config_.custom_weight,
          "Grafics::SaveModel: custom weight functions are not serializable");

  WriteHeader(out, kModelMagic, kModelVersion);
  // Config (the fields that matter at inference time).
  WriteDouble(out, config_.weight_offset);
  WriteU64(out, config_.trainer.dim);
  WriteU8(out, static_cast<std::uint8_t>(config_.trainer.objective));
  WriteU64(out, config_.trainer.negative_samples);
  WriteDouble(out, config_.trainer.initial_learning_rate);
  WriteDouble(out, config_.trainer.final_learning_rate_fraction);
  WriteU64(out, config_.trainer.seed);
  WriteU64(out, config_.online_refine_iterations);
  WriteU64(out, num_training_records_);

  graph_.Save(out);
  store_->Save(out);
  classifier_->Save(out);

  // Clustering diagnostics (cluster per training record, labels, merges).
  WriteU64(out, clustering_->cluster_of_point.size());
  for (const std::size_t c : clustering_->cluster_of_point) WriteU64(out, c);
  WriteU64(out, clustering_->cluster_label.size());
  for (const auto& label : clustering_->cluster_label) {
    WriteOptionalI32(out, label);
  }
  WriteU64(out, clustering_->merge_history.size());
  for (const auto& [a, b] : clustering_->merge_history) {
    WriteU64(out, a);
    WriteU64(out, b);
  }
  // v2: the exact sampler state. A v1-style rebuild from degrees produces
  // the same distribution but a different draw sequence, so models folded
  // after load would diverge bit-wise from the live daemon.
  negative_sampler_->Save(out);
  Require(out.good(), "Grafics::SaveModel: write failed");
}

Grafics Grafics::LoadModel(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  Require(in.good(), "Grafics::LoadModel: cannot open " + path);
  return LoadModel(in);
}

Grafics Grafics::LoadModel(std::istream& in) {
  const std::uint32_t version = ReadHeader(in, kModelMagic);
  Require(version >= 1 && version <= kModelVersion,
          "Grafics::LoadModel: unsupported artifact version " +
              std::to_string(version));

  GraficsConfig config;
  config.weight_offset = ReadDouble(in);
  config.trainer.dim = ReadU64(in);
  config.trainer.objective = static_cast<embed::Objective>(ReadU8(in));
  config.trainer.negative_samples = ReadU64(in);
  config.trainer.initial_learning_rate = ReadDouble(in);
  config.trainer.final_learning_rate_fraction = ReadDouble(in);
  config.trainer.seed = ReadU64(in);
  config.online_refine_iterations = ReadU64(in);

  Grafics system(config);
  system.num_training_records_ = ReadU64(in);
  system.graph_ = graph::BipartiteGraph::Load(in);
  system.store_ = embed::EmbeddingStore::Load(in);
  system.classifier_ = std::make_shared<const cluster::CentroidClassifier>(
      cluster::CentroidClassifier::Load(in));
  Require(system.store_->num_nodes() == system.graph_.NumNodes(),
          "Grafics::LoadModel: store/graph size mismatch");
  Require(system.store_->dim() == config.trainer.dim,
          "Grafics::LoadModel: embedding dimension mismatch");

  cluster::ClusteringResult clustering;
  const std::uint64_t points = ReadU64(in);
  clustering.cluster_of_point.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    clustering.cluster_of_point[i] = ReadU64(in);
  }
  const std::uint64_t clusters = ReadU64(in);
  clustering.cluster_label.resize(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    clustering.cluster_label[i] = ReadOptionalI32(in);
  }
  const std::uint64_t merges = ReadU64(in);
  clustering.merge_history.resize(merges);
  for (std::size_t i = 0; i < merges; ++i) {
    clustering.merge_history[i].first = ReadU64(in);
    clustering.merge_history[i].second = ReadU64(in);
  }
  // No kNN head: artifacts store no head choice, so a loaded model answers
  // by centroid (config.head keeps its default).
  system.clustering_ =
      std::make_shared<const cluster::ClusteringResult>(std::move(clustering));
  if (version >= 2) {
    system.negative_sampler_ =
        std::make_shared<const embed::NegativeSamplerSet>(
            embed::NegativeSamplerSet::Load(in));
  } else {
    system.RebuildNegativeSampler();
  }
  return system;
}

bool Grafics::DeltaCompatible(const Grafics& base) const {
  return is_trained() && base.is_trained() && !config_.custom_weight &&
         clustering_ == base.clustering_ && classifier_ == base.classifier_ &&
         knn_classifier_ == base.knn_classifier_ &&
         graph_.NumNodes() >= base.graph_.NumNodes() &&
         num_training_records_ == base.num_training_records_;
}

void Grafics::SaveDelta(std::ostream& out, const Grafics& base) const {
  Require(DeltaCompatible(base),
          "Grafics::SaveDelta: model is not a fold-descendant of the base");
  WriteHeader(out, kDeltaMagic, kDeltaVersion);
  WriteU64(out, num_training_records_);
  graph_.SaveDelta(out, base.graph_);
  store_->SaveDelta(out, *base.store_);
  // The sampler pointer survives a fold only when Update touched nothing;
  // otherwise write its group-prefix delta.
  if (negative_sampler_ == base.negative_sampler_) {
    WriteU8(out, 0);
  } else {
    WriteU8(out, 1);
    negative_sampler_->SaveDelta(out, *base.negative_sampler_);
  }
  Require(out.good(), "Grafics::SaveDelta: write failed");
}

void Grafics::ApplyDelta(std::istream& in) {
  Require(is_trained(), "Grafics::ApplyDelta: load the base artifact first");
  CheckHeader(in, kDeltaMagic, kDeltaVersion);
  const std::uint64_t training_records = ReadU64(in);
  Require(training_records == num_training_records_,
          "Grafics::ApplyDelta: delta belongs to a different base");
  graph_.ApplyDelta(in);
  store_->ApplyDelta(in);
  if (ReadU8(in) != 0) {
    embed::NegativeSamplerSet next = *negative_sampler_;
    next.ApplyDelta(in);
    negative_sampler_ =
        std::make_shared<const embed::NegativeSamplerSet>(std::move(next));
  }
  Require(store_->num_nodes() == graph_.NumNodes(),
          "Grafics::ApplyDelta: store/graph size mismatch");
}

const embed::EmbeddingStore& Grafics::embedding_store() const {
  Require(store_.has_value(), "Grafics: not trained");
  return *store_;
}

const cluster::ClusteringResult& Grafics::clustering() const {
  Require(clustering_ != nullptr, "Grafics: not trained");
  return *clustering_;
}

const embed::NegativeSamplerSet& Grafics::negative_sampler() const {
  Require(negative_sampler_ != nullptr, "Grafics: not trained");
  return *negative_sampler_;
}

const cluster::CentroidClassifier& Grafics::classifier() const {
  Require(classifier_ != nullptr, "Grafics: not trained");
  return *classifier_;
}

}  // namespace grafics::core
