// Package repro is gowifi: a from-scratch, stdlib-only, deterministic
// discrete-event simulation stack for IEEE 802.11 wireless LANs — DCF MAC,
// rate-adaptation drivers (ARF/AARF/SampleRate/Minstrel), PHY error models
// for 802.11/a/b/g, an interference-tracking medium, a management plane
// (scan/auth/assoc/roaming/power save), WEP/CCMP link privacy, baseline
// MACs (ALOHA/TDMA), Bianchi's analytical model, and a harness that
// regenerates the full evaluation suite.
//
// Start with README.md (architecture map, quickstart and the experiment
// index with expected shapes) and PERFORMANCE.md (fast-path architecture,
// regression walls and measurements). The public scenario API lives in
// internal/core; the runnable entry points are cmd/wlansim,
// cmd/experiments, cmd/wlantrace, cmd/wlanlint and the examples tree.
//
// # Performance architecture
//
// The simulator is built around two hot loops — the event kernel and the
// medium's transmission fan-out — and both run allocation-free in steady
// state (see PERFORMANCE.md for the measurements and bench/README.md for
// the repository benchmark):
//
//   - internal/sim pools Event objects on a free list behind
//     generation-checked Timer handles, keeps the queue as a
//     struct-of-arrays 4-ary heap popped one event at a time in (at, seq)
//     order, and reaps cancelled events lazily in bulk. ReserveSeq +
//     ScheduleArgSeq let one closure-free heap entry stand for a train of
//     events known in advance, and Advance lets it run the train's next
//     event without going back through the heap whenever that event is the
//     next one due.
//   - internal/medium pools transmissions, each owning its arrivals and
//     delivering their edges through two cursors instead of two kernel
//     events per receiver, which walk from edge to edge and re-queue only
//     when something else is due first; gives every static transmitter a
//     fan-out row (the static receivers it reaches, their power,
//     propagation delay and edge order computed once; rebuilt when the
//     topology changes), reuses wire buffers, decodes each transmission
//     once per fan-out, and folds each constant-interference span of a
//     reception through internal/phy's error model as it closes.
//   - internal/harness describes every experiment as a parameter grid of
//     independent scenario points (harness.Grid); Grid.Run evaluates them
//     one after another and is the reference for everything below.
//   - internal/cluster is the one sweep engine: one cost-ordered
//     work-stealing queue over every (experiment, point) of an invocation
//     and a worker list — in-process goroutines (the default), subprocesses
//     on stdin/stdout (`experiments -shards N`), TCP agents (`-agents`),
//     each opened once per run — with re-dispatch, one checkpoint journal
//     per run and merges byte-identical to the sequential run, emitted in
//     suite order. internal/sweep is its data format: shard wire format,
//     worker-side evaluation, merge, checkpoint journal.
package repro
