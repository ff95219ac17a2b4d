// The benchmark's three closed-loop workloads. Each sets itself up
// `setup_repeats` times, then runs its timed phase for `opt.seconds` in
// units of work, each after a host_speed probe that scales the unit's
// host-wall times, with `setup_repeats_timed` more set-ups spread
// between the units. Every set-up must reproduce the same exact
// simulated fingerprint. With tracing on, the phase alternates
// untraced units (the baseline of obs.trace_overhead_pct) with traced
// ones; per-layer metrics come from the traced units and from the
// fingerprint pass, end-to-end metrics only from untraced runs.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace perfbench {

outcome run_runtime_tenants(const options& opt);
outcome run_query_scan(const options& opt);
outcome run_service_io_loopback(const options& opt);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
