// Runner — executes one JobSpec on its tier and returns the JobRecord the
// store persists. Numeric-tier jobs spin up a whole xmpi world under the
// white-box monitor (monitor::run_job); replay-tier jobs evaluate the
// perfsim analytic model at paper scale. Both are safe to call from
// multiple host threads at once: worlds are self-contained and the shared
// papisim library is internally locked.
#pragma once

#include <string>

#include "batch/record.hpp"
#include "batch/spec.hpp"

namespace plin::batch {

/// Runs `spec` to completion and returns its record. Throws (solver
/// failure, bad residual, impossible placement, ...) rather than returning
/// partial data; the serve engine captures and retries.
///
/// If `trace_dir` is non-empty, a numeric-tier job archives the span-trace
/// bundle of its first repetition under `<trace_dir>/<spec.key()>/`
/// (docs/tracing.md); replay-tier jobs never trace (no xmpi world runs).
JobRecord execute_job(const JobSpec& spec, const std::string& trace_dir = {});

}  // namespace plin::batch
