// Package sim is a discrete-event model of the runtime pipeline of paper §5
// executing on a simulated cluster (internal/machine). It replays an
// application's launch stream under any combination of {DCR, index
// launches, tracing, dynamic checks} and produces the makespan from which
// the scaling figures are regenerated.
//
// The model charges explicit costs to three resource classes:
//
//   - each node's runtime/analysis core (issuance, logical analysis,
//     distribution handling, physical analysis, dynamic checks),
//   - each node's accelerator processors (task execution),
//   - the network (slice broadcast, per-task sends, halo traffic).
//
// What differs between configurations is *where* those costs are paid:
//
//   - DCR + IDX: every node issues one O(1) launch, shards it with a pure
//     sharding functor, and analyzes only its local points.
//   - DCR + no IDX: every node issues all |D| tasks (control replication
//     replays the whole program on every node) — the per-node O(|D|) term
//     that caps scaling.
//   - no DCR + IDX: node 0 issues one launch and broadcasts fixed-size
//     slices through an O(log N) tree; destinations expand and analyze
//     locally. With tracing enabled, the launch is expanded *before*
//     distribution (tracing operates on individual tasks), reproducing the
//     interference the paper observes in Figures 4–5.
//   - no DCR + no IDX: node 0 issues, analyzes and serially sends every
//     task — the centralized bottleneck.
package sim

import (
	"indexlaunch/internal/machine"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
)

// CostModel holds the runtime overhead constants, in seconds. Defaults are
// calibrated to Legion-like magnitudes (a few microseconds per runtime
// operation; see paper §6.3: "approximately the same as the overhead of
// launching a task in Regent/Legion at these scales" ≈ 3 ms for 1e6 tasks).
type CostModel struct {
	// LaunchIssue is the cost of issuing one index launch (one runtime
	// call, O(1) regardless of |D|).
	LaunchIssue float64
	// TaskIssue is the cost of issuing one individual task.
	TaskIssue float64
	// LogicalLaunch is the whole-partition logical analysis of one index
	// launch.
	LogicalLaunch float64
	// LogicalTask is the per-task logical analysis when tasks are issued
	// individually.
	LogicalTask float64
	// ShardPerLocalTask is the DCR distribution cost per local point
	// (memoized sharding-functor evaluation + local enqueue).
	ShardPerLocalTask float64
	// ExpandPerTask is the cost of expanding one point task out of a slice
	// at its destination (or at node 0 when tracing forces early
	// expansion).
	ExpandPerTask float64
	// SendPerTask is node 0's serialization cost to ship one individual
	// task in centralized mode.
	SendPerTask float64
	// CentralPerTask is the additional per-task burden of the single
	// centralized context in non-DCR mode: coherence updates, mapping and
	// data-movement orchestration that DCR distributes but the original
	// centralized design funnels through one node. It is paid whether or
	// not the task's analysis was memoized by tracing.
	CentralPerTask float64
	// SliceHandling is the per-hop handling cost of one slice in the
	// broadcast tree.
	SliceHandling float64
	// HopLatency is the message-transport overhead per broadcast-tree hop
	// (sequence bookkeeping and ack turnaround), on top of the network
	// latency and SliceHandling — the cost-domain mirror of
	// internal/wire's reliable hop.
	HopLatency float64
	// RetransmitTimeout is the delay a hop pays when its transmission is
	// dropped (FaultModel.DropEveryHop): the ack timeout that elapses
	// before the re-send.
	RetransmitTimeout float64
	// PhysBase + PhysPerLog·log2(|P|) is the physical (per-task) dependence
	// analysis cost, the bounding-volume-hierarchy query of §5.
	PhysBase   float64
	PhysPerLog float64
	// CheckPerPointArg is the dynamic safety check cost per launch-domain
	// point per argument (§6.3 measures ~1–3 ns/point).
	CheckPerPointArg float64
	// ReplayPerTask is the per-task analysis cost under trace replay.
	ReplayPerTask float64
	// GPULaunch is the fixed execution overhead per task (kernel launch).
	GPULaunch float64
	// StageLatency·log2(N+1) is charged once per launch before its tasks
	// become ready: the mapper calls, metadata round-trips and event
	// propagation that every stage pays and that grow slowly with machine
	// size.
	StageLatency float64
	// RetryPenalty is the scheduling overhead of re-executing a failed
	// point task (failure detection + requeue), charged per retry on top
	// of the repeated kernel launch and compute time.
	RetryPenalty float64
	// HeartbeatPeriod is the period, in simulated seconds, of the
	// self-healing failure detector's heartbeat rounds — the cost-domain
	// mirror of rt's HeartbeatPolicy. Each round probes every non-observer
	// node (FaultModel.Outages silence probes) and drives the same
	// internal/health detector the real runtime uses, so suspect,
	// quarantine and rejoin transitions appear with identical semantics.
	// Probe traffic is charged off the critical path: rounds × (N−1)
	// probes, two HopLatency each. 0 disables detection.
	HeartbeatPeriod float64
	// SpeculationQuantile enables straggler speculation when > 0 —
	// the cost-domain mirror of rt's SpeculationPolicy. The cost model
	// knows each launch's nominal task time exactly, so the adaptive
	// quantile threshold collapses to nominal × health.DefaultSpecMultiplier:
	// an injected straggler (FaultModel.StragglerEvery) gets a backup
	// launch on an assumed-idle healthy node once the threshold elapses,
	// and the earlier completion wins, exactly one attempt's work being
	// discarded.
	SpeculationQuantile float64
}

// DefaultCosts returns the calibrated cost model used by the experiments.
func DefaultCosts() CostModel {
	return CostModel{
		LaunchIssue:       5e-6,
		TaskIssue:         6e-6,
		LogicalLaunch:     10e-6,
		LogicalTask:       6e-6,
		ShardPerLocalTask: 0.7e-6,
		ExpandPerTask:     1.5e-6,
		SendPerTask:       4e-6,
		CentralPerTask:    150e-6,
		SliceHandling:     2e-6,
		HopLatency:        0.5e-6,
		RetransmitTimeout: 120e-6,
		PhysBase:          2e-6,
		PhysPerLog:        0.5e-6,
		CheckPerPointArg:  2.5e-9,
		ReplayPerTask:     1.2e-6,
		GPULaunch:         8e-6,
		StageLatency:      12e-6,
		RetryPenalty:      25e-6,
	}
}

// FaultModel injects deterministic task failures into the execution stage,
// mirroring internal/rt's retry machinery in the cost domain: every
// RetryEvery-th point task (counted runtime-wide in issuance order) fails
// once and re-executes on its processor, paying RetryPenalty plus a second
// kernel launch and compute. DropEveryHop does the same for the message
// transport: every DropEveryHop-th broadcast-tree hop transmission (counted
// runtime-wide) is dropped and re-sent after RetransmitTimeout, mirroring
// internal/wire's chaos injection. Zeros disable injection.
type FaultModel struct {
	RetryEvery   int64
	DropEveryHop int64
	// StragglerEvery makes every StragglerEvery-th point task (counted
	// runtime-wide in issuance order) run StragglerFactor× slower than
	// nominal — the straggler injection CostModel.SpeculationQuantile
	// speculates against. Zero (or a factor <= 1) disables it.
	StragglerEvery  int64
	StragglerFactor float64
	// Outages silence nodes' heartbeat probes for windows of detector
	// rounds, mirroring chaos partitions starving rt's heartbeats; they
	// only matter when CostModel.HeartbeatPeriod enables the detector.
	Outages []Outage
}

// Outage silences one node's heartbeat probes for a window of detector
// rounds: probes of Node fail for rounds [FromRound, FromRound+Rounds).
type Outage struct {
	Node      int
	FromRound int64
	Rounds    int64
}

// covers reports whether the outage silences node during round.
func (o Outage) covers(node int, round int64) bool {
	return o.Node == node && round >= o.FromRound && round < o.FromRound+o.Rounds
}

// Config selects one simulated execution configuration — one curve of one
// figure.
type Config struct {
	Machine machine.Spec
	Cost    CostModel
	// DCR enables dynamic control replication.
	DCR bool
	// IDX enables index launches.
	IDX bool
	// Tracing enables Legion-style tracing (capture on the first body
	// iteration, replay on the rest).
	Tracing bool
	// BulkTracing models the paper's future work: tracing at launch
	// granularity. With it, tracing no longer forces index launches to
	// expand before centralized distribution, and DCR replays cost O(1)
	// per launch instead of O(local tasks).
	BulkTracing bool
	// DynChecks enables the dynamic projection-functor checks for launches
	// flagged NonTrivialFunctor.
	DynChecks bool
	// Faults optionally injects deterministic task re-execution.
	Faults FaultModel
	// Profile attaches an observability recorder (internal/obs): the cost
	// model's per-node charges are decomposed into the same pipeline-stage
	// spans internal/rt records, on the simulated clock, so simulated and
	// real runs are viewed with one tool. Nil disables profiling; the
	// simulated timings are identical either way.
	Profile *obs.Recorder
	// Metrics attaches a live metrics registry (internal/metrics): the cost
	// model's charges are recorded as the same counter and histogram
	// families internal/rt maintains, on the simulated clock — the metrics
	// face of the rt/sim parity guarantee. Nil disables metrics; the
	// simulated timings are identical either way.
	Metrics *metrics.Registry
	// TraceSeed, when non-zero and a Profile is attached, stamps every
	// recorded span with a trace context rooted at NewTraceRef(TraceSeed):
	// launch i's spans hang off root.Child(i+1), mirroring the span tree an
	// rt run of the same workload produces — the tracing face of the rt/sim
	// parity guarantee. 0 records untraced spans as before.
	TraceSeed uint64
}

// Label renders the configuration the way the paper's legends do.
func (c Config) Label() string {
	s := "No DCR"
	if c.DCR {
		s = "DCR"
	}
	if c.IDX {
		return s + ", IDX"
	}
	return s + ", No IDX"
}
