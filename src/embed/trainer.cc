#include "embed/trainer.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/error.h"
#include "common/matrix.h"
#include "common/simd.h"

namespace grafics::embed {

namespace {

/// One negative-sampling SGD step for a (source, target) pair against a
/// target table (ego or context), addressed through `target_row` so the
/// chunked EmbeddingStore needs no dense-matrix view. Updates the
/// target-table rows in place, accumulates the source gradient into
/// `grad_src`.
template <typename MutableRowFn>
void SampledStep(std::span<const double> src, std::span<double> grad_src,
                 MutableRowFn&& target_row, graph::NodeId target,
                 const AliasSampler& negative_sampler,
                 std::span<const graph::NodeId> node_of_index,
                 std::size_t negatives, double lr, bool update_targets,
                 Rng& rng) {
  // Hottest loop in the trainer: go straight to the simd kernels — every row
  // here is `dim` long by EmbeddingStore construction, so the span-level
  // dimension re-checks in the matrix.cc wrappers would be pure overhead.
  const std::size_t dim = src.size();
  // Positive sample: label 1.
  {
    const std::span<double> tgt = target_row(target);
    const double g =
        (1.0 - Sigmoid(simd::Dot(tgt.data(), src.data(), dim))) * lr;
    simd::Axpy(g, tgt.data(), grad_src.data(), dim);
    if (update_targets) simd::Axpy(g, src.data(), tgt.data(), dim);
  }
  // K negative samples: label 0.
  for (std::size_t k = 0; k < negatives; ++k) {
    const graph::NodeId z = node_of_index[negative_sampler.Sample(rng)];
    if (z == target) continue;
    const std::span<double> neg = target_row(z);
    const double g = -Sigmoid(simd::Dot(neg.data(), src.data(), dim)) * lr;
    simd::Axpy(g, neg.data(), grad_src.data(), dim);
    if (update_targets) simd::Axpy(g, src.data(), neg.data(), dim);
  }
}

/// Applies `grad` to `dst` with per-coordinate dropout.
void ApplyGradient(std::span<double> dst, std::span<double> grad,
                   double dropout, Rng& rng) {
  if (dropout <= 0.0) {
    // Fast path (the whole online-refinement loop runs with dropout=0):
    // `1.0 * g == g` exactly, so one axpy is bit-identical to the per-
    // coordinate loop below, and the short-circuit above means the RNG
    // stream is untouched either way.
    simd::Axpy(1.0, grad.data(), dst.data(), dst.size());
  } else {
    for (std::size_t c = 0; c < dst.size(); ++c) {
      if (rng.NextDouble() < dropout) continue;
      dst[c] += grad[c];
    }
  }
  std::fill(grad.begin(), grad.end(), 0.0);
}

struct EdgeTables {
  std::vector<graph::Edge> edges;
  AliasSampler edge_sampler;
  AliasSampler negative_sampler;
  std::vector<graph::NodeId> node_of_index;
};

EdgeTables BuildTables(const graph::BipartiteGraph& graph) {
  EdgeTables t;
  t.edges = graph.Edges();
  Require(!t.edges.empty(), "TrainEmbeddings: graph has no edges");
  std::vector<double> weights;
  weights.reserve(t.edges.size());
  for (const graph::Edge& e : t.edges) weights.push_back(e.weight);
  t.edge_sampler = AliasSampler(weights);
  t.negative_sampler = BuildNegativeSampler(graph, &t.node_of_index);
  return t;
}

/// The per-sample update dispatch shared by offline training and tests.
/// (i, j) is a directed edge draw; mutates `store` rows for i, j and
/// sampled negatives.
void TrainStep(const EdgeTables& tables, const TrainerConfig& config,
               EmbeddingStore& store, graph::NodeId i, graph::NodeId j,
               double lr, std::span<double> grad, Rng& rng) {
  const auto ego = [&store](graph::NodeId n) { return store.Ego(n); };
  const auto context = [&store](graph::NodeId n) { return store.Context(n); };
  switch (config.objective) {
    case Objective::kLineFirstOrder:
      SampledStep(store.Ego(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kLineSecondOrder:
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kLineBothOrders:
      SampledStep(store.Ego(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      break;
    case Objective::kELine:
      // Second-order term: context of j given ego of i (Eq. 5).
      SampledStep(store.Ego(i), grad, context, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Ego(i), grad, config.dropout, rng);
      // Mirrored term: ego of j given context of i (Eq. 8). This is what
      // propagates similarity beyond one-hop neighborhoods.
      SampledStep(store.Context(i), grad, ego, j, tables.negative_sampler,
                  tables.node_of_index, config.negative_samples, lr,
                  /*update_targets=*/true, rng);
      ApplyGradient(store.Context(i), grad, config.dropout, rng);
      break;
  }
}

}  // namespace

AliasSampler BuildNegativeSampler(const graph::BipartiteGraph& graph,
                                  std::vector<graph::NodeId>* node_of_index) {
  Require(node_of_index != nullptr,
          "BuildNegativeSampler: node_of_index must not be null");
  node_of_index->clear();
  std::vector<double> weights;
  for (graph::NodeId node = 0; node < graph.NumNodes(); ++node) {
    if (!graph.IsActive(node) || graph.Degree(node) == 0) continue;
    node_of_index->push_back(node);
    weights.push_back(
        std::pow(static_cast<double>(graph.Degree(node)), 0.75));
  }
  Require(!weights.empty(), "BuildNegativeSampler: no active nodes");
  return AliasSampler(weights);
}

EmbeddingStore TrainEmbeddings(const graph::BipartiteGraph& graph,
                               const TrainerConfig& config) {
  Require(config.dim > 0, "TrainEmbeddings: dim must be positive");
  Require(config.num_threads >= 1, "TrainEmbeddings: need >= 1 thread");

  EdgeTables tables = BuildTables(graph);
  Rng init_rng(config.seed);
  EmbeddingStore store(graph.NumNodes(), config.dim, init_rng);

  const std::size_t total_samples =
      config.samples_per_edge * graph.NumEdges();
  const double lr0 = config.initial_learning_rate;
  const double lr_min = lr0 * config.final_learning_rate_fraction;

  auto worker = [&](std::size_t worker_index, std::size_t samples) {
    Rng rng(config.seed ^ (0xABCD0000ULL + worker_index));
    std::vector<double> grad(config.dim, 0.0);
    for (std::size_t s = 0; s < samples; ++s) {
      // Linear learning-rate decay over this worker's share; workers run in
      // lockstep statistically so the global schedule is preserved.
      const double progress =
          static_cast<double>(s) / static_cast<double>(samples);
      const double lr = std::max(lr_min, lr0 * (1.0 - progress));
      const graph::Edge& e = tables.edges[tables.edge_sampler.Sample(rng)];
      // Undirected edge: pick a direction uniformly.
      graph::NodeId i = e.record;
      graph::NodeId j = e.mac;
      if (rng.Bernoulli(0.5)) std::swap(i, j);
      TrainStep(tables, config, store, i, j, lr, grad, rng);
    }
  };

  if (config.num_threads == 1) {
    worker(0, total_samples);
  } else {
    // Hogwild-style lock-free parallel SGD: sparse updates rarely collide.
    std::vector<std::thread> threads;
    threads.reserve(config.num_threads);
    const std::size_t share = total_samples / config.num_threads;
    for (std::size_t t = 0; t < config.num_threads; ++t) {
      threads.emplace_back(worker, t, share);
    }
    for (std::thread& t : threads) t.join();
  }
  return store;
}

void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations) {
  const NegativeSamplerSet negatives = NegativeSamplerSet::Build(graph);
  RefineNewNodes(graph, new_nodes, store, config, iterations, negatives);
}

namespace {

/// One frozen-base negative-sampling SGD step: like SampledStep with
/// update_targets=false, but target rows are fetched through `target_row`
/// so the same code serves the shared EmbeddingStore (batch Update) and the
/// per-context EmbeddingOverlay (snapshot-isolated serving). The arithmetic
/// and RNG sequence match SampledStep exactly.
template <typename TargetRowFn>
void FrozenSampledStep(std::span<const double> src, std::span<double> grad,
                       TargetRowFn&& target_row, graph::NodeId target,
                       const NegativeSamplerSet& negative_sampler,
                       std::size_t negatives, double lr, Rng& rng) {
  const std::size_t dim = src.size();
  // Positive sample: label 1.
  {
    const std::span<const double> tgt = target_row(target);
    const double g =
        (1.0 - Sigmoid(simd::Dot(tgt.data(), src.data(), dim))) * lr;
    simd::Axpy(g, tgt.data(), grad.data(), dim);
  }
  // K negative samples: label 0.
  for (std::size_t k = 0; k < negatives; ++k) {
    const graph::NodeId z = negative_sampler.SampleNode(rng);
    if (z == target) continue;
    const std::span<const double> neg = target_row(z);
    const double g = -Sigmoid(simd::Dot(neg.data(), src.data(), dim)) * lr;
    simd::Axpy(g, neg.data(), grad.data(), dim);
  }
}

/// Shared implementation of both RefineNewNodes overloads. `Graph` is
/// BipartiteGraph or GraphOverlay; `Store` is EmbeddingStore or
/// EmbeddingOverlay. Only `new_nodes` rows of `store` are written.
template <typename Graph, typename Store>
void RefineNewNodesImpl(const Graph& graph,
                        std::span<const graph::NodeId> new_nodes,
                        Store& store, const TrainerConfig& config,
                        std::size_t iterations,
                        const NegativeSamplerSet& negatives) {
  Require(store.num_nodes() == graph.NumNodes(),
          "RefineNewNodes: store/graph size mismatch (call Grow first)");
  const Store& reads = store;  // const reads may touch any (frozen) row
  const auto ego_row = [&reads](graph::NodeId n) { return reads.Ego(n); };
  const auto context_row = [&reads](graph::NodeId n) {
    return reads.Context(n);
  };
  Rng rng(config.seed ^ 0x5EEDFACEULL);
  std::vector<double> grad(config.dim, 0.0);
  const bool ego_pairs_with_ego =
      config.objective == Objective::kLineFirstOrder;

  for (const graph::NodeId node : new_nodes) {
    const std::span<const graph::Neighbor> neighbors =
        graph.NeighborsOf(node);
    if (neighbors.empty()) continue;  // isolated: keep random init

    // Warm start in E-LINE's pairing: the node's ego row is scored against
    // its neighbors' context rows (Eq. 5) and its context row against their
    // ego rows (Eq. 8), so each starts at the weighted mean of the rows it
    // is scored against. That already lies near the refined optimum; SGD
    // below only polishes it. First-order LINE scores ego against ego and
    // never trains context rows, so its ego row starts from their ego rows.
    const std::span<double> node_ego = store.Ego(node);
    const std::span<double> node_context = store.Context(node);
    std::fill(node_ego.begin(), node_ego.end(), 0.0);
    std::fill(node_context.begin(), node_context.end(), 0.0);
    double weight_sum = 0.0;
    for (const graph::Neighbor& nb : neighbors) {
      Axpy(nb.weight,
           ego_pairs_with_ego ? reads.Ego(nb.node) : reads.Context(nb.node),
           node_ego);
      Axpy(nb.weight, reads.Ego(nb.node), node_context);
      weight_sum += nb.weight;
    }
    Scale(node_ego, 1.0 / weight_sum);
    Scale(node_context, 1.0 / weight_sum);

    // Alias table over this node's incident edges.
    std::vector<double> weights;
    weights.reserve(neighbors.size());
    for (const graph::Neighbor& nb : neighbors) weights.push_back(nb.weight);
    const AliasSampler local_edges(weights);

    const double lr0 = config.initial_learning_rate;
    for (std::size_t s = 0; s < iterations; ++s) {
      const double lr = std::max(
          lr0 * config.final_learning_rate_fraction,
          lr0 * (1.0 - static_cast<double>(s) /
                           static_cast<double>(iterations)));
      const graph::Neighbor& nb = neighbors[local_edges.Sample(rng)];
      // Only the new node's rows move: the frozen step never writes target
      // rows, matching Sec. V-A's frozen base model.
      FrozenSampledStep(reads.Ego(node), grad, context_row, nb.node,
                        negatives, config.negative_samples, lr, rng);
      ApplyGradient(store.Ego(node), grad, /*dropout=*/0.0, rng);
      if (config.objective == Objective::kELine) {
        FrozenSampledStep(reads.Context(node), grad, ego_row, nb.node,
                          negatives, config.negative_samples, lr, rng);
        ApplyGradient(store.Context(node), grad, /*dropout=*/0.0, rng);
      }
    }
  }
}

}  // namespace

void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives) {
  RefineNewNodesImpl(graph, new_nodes, store, config, iterations, negatives);
}

void RefineNewNodes(const graph::GraphOverlay& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingOverlay& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives) {
  RefineNewNodesImpl(graph, new_nodes, store, config, iterations, negatives);
}

}  // namespace grafics::embed
