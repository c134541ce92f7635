// The monitoring host's collection telemetry as CSV.
//
// The Collector itself is an in-simulation model (sweeps, retries, the
// bounded store-and-forward buffer); what survives a run on disk is this
// CSV: one row per monitored host with the full retry/gap/dropped-bytes
// accounting, followed by the attempt log.  The figure export
// (experiment/figures.hpp) persists it through the core::io FileSystem
// seam like every other durable output, so the write can be crashed or
// fault-injected.
#pragma once

#include <string>

#include "monitoring/collector.hpp"

namespace zerodeg::monitoring {

/// The collection telemetry of a finished run as CSV text: a per-host stats
/// section ordered by host id, then the chronological attempt log.  A pure
/// render — byte-identical for identical runs, no I/O.
[[nodiscard]] std::string render_collection_csv(const Collector& collector);

}  // namespace zerodeg::monitoring
