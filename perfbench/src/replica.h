// In-process layer measurements of the traced run: staged replicas of
// InferenceContext::Predict and Grafics::Train, plus timed calls into the
// graph, embed, cluster, ingest and store modules. replica.cc is the only
// file of the benchmark that calls module internals, so a signature change
// there can break only the traced run.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "workload.h"

namespace perfbench {

/// Times every in-process layer call for `fleet`, recording one span per
/// call, and sets the matching per-layer metrics. Appends to `gate_failures`
/// when a replica differs from the real call, when a restored store differs
/// from the live model, or when child spans cover less than 95% of a
/// replica's time.
void MeasureLayers(const RunOptions& options, const Fleet& fleet,
                   SpanLog& spans, MetricSet& metrics,
                   std::vector<std::string>& gate_failures);

}  // namespace perfbench
