// The traced run: end-to-end with and without spans (tracing overhead),
// then each layer replayed through its public entry points on the
// workload's stream, with spans around every call.
#ifndef SHEDBENCH_LAYERS_H_
#define SHEDBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "e2e.h"

namespace shedbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts, bases; printed, not reported
};

/// Runs the traced measurement for about `seconds` of end-to-end time plus
/// the layer replays; returns every per-layer metric (ledger included) and
/// adds the operations it checked to `checked`. Spans are written to
/// `trace_path` (JSON lines) when it is non-empty.
std::vector<Metric> MeasureLayers(const Inputs& in, double seconds,
                                  const std::string& trace_path,
                                  E2eSamples* checked);

}  // namespace shedbench

#endif  // SHEDBENCH_LAYERS_H_
