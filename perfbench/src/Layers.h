//===- perfbench/src/Layers.h - Per-layer probes ----------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer costs, measured from outside by timing calls into each
/// layer's public functions, each under a span named after its metric.
/// Used by traced runs only; untraced runs never execute a probe.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Harness.h"
#include "Workloads.h"

#include <string>

namespace perfbench {

/// Sets every per-layer metric except the tracing overhead in \p Out.
/// Detector metrics use \p W's own programs; the service metrics use
/// \p W's service when it has one and a short-lived one otherwise.
/// Oracle failures of that short-lived service land in \p Log.
void measureLayers(const Workload &W, uint64_t Seed,
                   const std::string &WorkDir, OracleLog &Log,
                   MetricSet &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
