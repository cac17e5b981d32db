// Per-layer probes of a traced run. Each probe calls one layer's public
// functions at the shapes the workloads use, inside a benchmark span named
// after the layer, and turns the span durations into the per-layer
// metrics (perfbench/README.md maps each metric to the end-to-end metric
// and workload it should move). Probe outputs are checked like workload
// outputs; a wrong one counts as a failed operation.
#pragma once

#include "metrics.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Sets every per-layer metric except bench.trace_overhead_frac.
void measure_layers(const RunOptions& options, Tracer& tracer,
                    MetricSet& metrics, Outcome& outcome);

}  // namespace perfbench
