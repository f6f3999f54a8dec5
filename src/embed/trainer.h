// LINE and E-LINE embedding training over the bipartite graph.
//
// Implements the paper's Sec. IV-B:
//  * LINE second-order proximity (Eq. 5), first-order, and joint variants
//    for the ablation of Fig. 13;
//  * E-LINE (Eq. 9), optimized through the negative-sampling surrogate of
//    Eq. 10: each sampled edge (i, j) pulls together sigma(u'_j · u_i) AND
//    the mirrored sigma(u_j · u'_i), with K degree^{3/4}-distributed
//    negative nodes pushed away in both tables;
//  * edge-sampling SGD in LINE style — edges are drawn with probability
//    proportional to weight c_ij, so the weight never multiplies gradients;
//  * online refinement (Sec. V-A): a freshly added node's embeddings are
//    optimized while every pre-existing embedding stays frozen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/alias_sampler.h"
#include "embed/embedding_overlay.h"
#include "embed/embedding_store.h"
#include "embed/negative_sampler.h"
#include "graph/bipartite_graph.h"
#include "graph/graph_overlay.h"

namespace grafics::embed {

enum class Objective {
  kLineFirstOrder,   // sigma(u_j · u_i): ego-ego, undirected
  kLineSecondOrder,  // sigma(u'_j · u_i): the LINE variant the paper uses
  kLineBothOrders,   // joint first + second (ablation)
  kELine,            // second-order + mirrored term (the paper's algorithm)
};

struct TrainerConfig {
  std::size_t dim = 8;                   // paper baseline: 8
  Objective objective = Objective::kELine;
  std::size_t negative_samples = 5;      // K in Eq. 10
  /// Linearly decayed, LINE-style. 0.01 keeps the embedding smooth enough
  /// for few-label clustering; larger rates over-fragment the space.
  double initial_learning_rate = 0.01;
  double final_learning_rate_fraction = 1e-4;
  /// Gradient-component dropout probability (paper trains E-LINE with
  /// dropout 0.1): each embedding coordinate is excluded from a given SGD
  /// step with this probability, a cheap regularizer against the high
  /// variance of few-label regimes.
  double dropout = 0.1;
  /// Total SGD samples = samples_per_edge * |E|.
  std::size_t samples_per_edge = 150;
  /// Hogwild-style parallelism. 1 (default) is bit-for-bit deterministic.
  std::size_t num_threads = 1;
  std::uint64_t seed = 1;
};

/// Trains embeddings for every node of `graph`. The returned store has one
/// (ego, context) pair per node id.
EmbeddingStore TrainEmbeddings(const graph::BipartiteGraph& graph,
                               const TrainerConfig& config);

/// Online-inference refinement: learns the embeddings of `new_nodes` while
/// every other row stays fixed. Each new node is warm-started in E-LINE's
/// pairing: its ego row at the weighted mean of its neighbors' context rows,
/// since Eq. 5 scores ego against context, and its context row at the mean
/// of their ego rows (Eq. 8). First-order LINE scores ego against ego, so
/// there the ego row starts at the mean of their ego rows. Then `iterations`
/// SGD steps refine it. `store` must already contain rows for the new nodes
/// (EmbeddingStore::Grow).
void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations);

/// As above, but reuses a precomputed negative-sampler set. The hot path
/// for per-record online inference: building the degree^{3/4} table is
/// O(|V|+|M|), so callers serving many predictions build it once over the
/// frozen base model and pass it in (and the ingest path extends it in
/// O(delta) per fold — see embed/negative_sampler.h).
void RefineNewNodes(const graph::BipartiteGraph& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingStore& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives);

/// Snapshot-isolated variant: refines scratch nodes of a GraphOverlay into
/// an EmbeddingOverlay, leaving the underlying trained graph and store
/// untouched. This is the serving path — one (overlay, overlay) pair per
/// InferenceContext, so concurrent contexts never share mutable state. The
/// negative sampler must be built over the frozen base graph (scratch nodes
/// are never drawn as negatives).
void RefineNewNodes(const graph::GraphOverlay& graph,
                    std::span<const graph::NodeId> new_nodes,
                    EmbeddingOverlay& store, const TrainerConfig& config,
                    std::size_t iterations,
                    const NegativeSamplerSet& negatives);

/// Negative-sampling distribution of the paper: Pr(z) proportional to
/// deg(z)^{3/4} over active nodes. Exposed for tests and the online path.
AliasSampler BuildNegativeSampler(const graph::BipartiteGraph& graph,
                                  std::vector<graph::NodeId>* node_of_index);

}  // namespace grafics::embed
