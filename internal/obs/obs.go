// Package obs is the observability subsystem: it turns the simulator's
// phase-segment traces (sim.Group.EnableTrace) and the experiment engine's
// cell lifecycle (runner.Hook) into inspectable artifacts.
//
// Two time domains share one trace file, both starting at zero:
//
//   - simulated-proc tracks carry *virtual* time — one Chrome trace process
//     per traced application run, one thread per simulated processor, one
//     complete event per phase segment; and
//   - host tracks carry *wall* time — the runner's cell spans (compute,
//     disk-hit, dedup waits) and instants (memo hits), collected through
//     the run's request hook and packed into non-overlapping lanes.
//
// The Builder assembles both into Chrome trace-event JSON loadable in
// Perfetto or chrome://tracing; ValidateChrome is the schema check the tests
// (and any downstream tooling) gate on. PhaseStat/RunPhases compute the
// per-phase min/max/mean/imbalance aggregates behind the study's
// load-balance discussion, rendered by PhaseTable as the `-phasereport`
// table and embedded in the `-runreport=json` document.
//
// The subsystem is strictly additive: nothing in sim, runner, or the
// experiments imports obs, and with tracing disabled (no hook attached, no
// EnableTrace) no code in this package runs at all — the invariant behind
// the byte-identity guarantee on `o2kbench -exp all` (DESIGN.md §5.11).
package obs
