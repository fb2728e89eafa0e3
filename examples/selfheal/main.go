// Self-healing: failure detection, quarantine & rejoin, and speculative
// straggler re-launch — with no explicit KillNode call anywhere.
//
// Heartbeat probes ride the same chaos-injected transport as the slice
// messages, so a seeded partition of the 0↔1 link starves node 1's
// heartbeats. The phi-accrual detector suspects it, the mapper re-maps its
// pending point tasks onto the survivors, and when the partition window
// heals the node is quarantined, resynced and readmitted — all observable
// in the detector's transition log. A second launch then deliberately
// straggles on its home node; the runtime's latency baseline triggers a
// speculative backup on another node, the backup's result commits first,
// and the cancelled original is counted wasted. The final field contents
// match a fault-free run exactly.
//
//	go run ./examples/selfheal
package main

import (
	"fmt"
	"log"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/health"
	"indexlaunch/internal/privilege"
	"indexlaunch/internal/projection"
	"indexlaunch/internal/region"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/wire"
)

func main() {
	// The 0↔1 link goes dark for its first 16 heartbeat pings. Probes go
	// straight from node 0 to each node, so only node 1 falls silent; its
	// subtree keeps answering, and slices bound for it are re-parented
	// around the suspect relay. Every probe fate is a pure hash of (seed,
	// link, seq, attempt): reruns produce a byte-identical transition log.
	plan := &wire.ChaosPlan{
		Seed:       3,
		Partitions: []wire.Partition{{A: 0, B: 1, AfterSends: 0, Sends: 16}},
	}

	runtime := rt.MustNew(rt.Config{
		Nodes: 8, ProcsPerNode: 2, IndexLaunches: true,
		Chaos: plan,
		// Short ack timeouts keep the demo snappy.
		Retransmit: wire.RetransmitPolicy{
			Timeout:    200 * time.Microsecond,
			MaxBackoff: 2 * time.Millisecond,
		},
		// A detector round every 4 issued points; single-attempt probes so
		// the partition starves heartbeats immediately.
		Heartbeat: rt.HeartbeatPolicy{Every: 4, ProbeAttempts: 1},
		// Speculate against tasks exceeding 2× the p90 execute latency,
		// once 16 samples establish a baseline.
		Speculate: rt.SpeculationPolicy{
			Quantile: 0.9, Multiplier: 2, MinSamples: 16,
			MinDelay: 5 * time.Millisecond,
		},
	})
	defer runtime.Shutdown()

	const fieldVal region.FieldID = 0
	fields := region.MustFieldSpace(region.Field{ID: fieldVal, Name: "val", Kind: region.F64})
	tree := region.MustNewTree("data", domain.Range1(0, 159), fields)
	blocks, err := tree.PartitionEqual(tree.Root(), "blocks", 16)
	if err != nil {
		log.Fatal(err)
	}

	inc := runtime.MustRegisterTask("inc", func(ctx *rt.Context) ([]byte, error) {
		acc, err := ctx.WriteF64(0, fieldVal)
		if err != nil {
			return nil, err
		}
		pr, _ := ctx.Region(0)
		pr.Region.Domain.Each(func(p domain.Point) bool {
			acc.Set(p, acc.Get(p)+1)
			return true
		})
		return nil, nil
	})

	// Six rounds of 16 point tasks. The detector runs at issuance
	// boundaries, so suspicion, re-mapping, quarantine and rejoin all
	// happen while these launches flow.
	for round := 0; round < 6; round++ {
		launch := core.MustForall("inc", inc, domain.Range1(0, 15), core.Requirement{
			Partition: blocks,
			Functor:   projection.Identity(1),
			Priv:      privilege.ReadWrite,
			Fields:    []region.FieldID{fieldVal},
		})
		if _, err := runtime.ExecuteIndex(launch); err != nil {
			log.Fatal(err)
		}
	}
	if err := runtime.FenceErr(); err != nil {
		log.Fatalf("launches failed: %v", err)
	}

	fmt.Println("detector transitions (round, node, state change — no KillNode was called):")
	fmt.Print(health.RenderLog(runtime.HealthLog()))
	stats := runtime.Stats()
	fmt.Printf("detection: %d probes (%d failed), suspects=%d rejoins=%d, re-mapped points=%d\n",
		stats.HealthProbes, stats.HealthProbeFails, stats.HealthSuspects,
		stats.HealthRejoins, stats.Remapped)
	fmt.Printf("liveness after healing: %s\n", runtime.HealthCounts())

	// Straggler speculation: the task is pure (it returns a payload) and
	// dawdles only on its home node, watching ctx.Cancelled() like any
	// well-behaved speculated body. The backup attempt lands on another
	// node, returns promptly, and wins the commit race.
	slow := runtime.MustRegisterTask("slow", func(ctx *rt.Context) ([]byte, error) {
		if ctx.Point.X() == 5 && ctx.Node == 5 {
			select {
			case <-ctx.Cancelled():
				return nil, fmt.Errorf("cancelled straggler")
			case <-time.After(10 * time.Second):
			}
		}
		return []byte{byte(ctx.Point.X())}, nil
	})
	fm, err := runtime.ExecuteIndex(core.MustForall("straggle", slow, domain.Range1(0, 7)))
	if err != nil {
		log.Fatal(err)
	}
	if err := fm.WaitErr(); err != nil {
		log.Fatalf("speculated launch failed: %v", err)
	}
	// The future completes when the backup commits; the cancelled original
	// drains asynchronously, so give its accounting a moment.
	deadline := time.Now().Add(5 * time.Second)
	stats = runtime.Stats()
	for stats.SpecWasted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		stats = runtime.Stats()
	}
	fmt.Printf("speculation: %d backups launched, %d won, %d wasted\n",
		stats.SpecLaunched, stats.SpecWon, stats.SpecWasted)

	sum, err := region.SumF64(tree.Root(), fieldVal)
	if err != nil {
		log.Fatal(err)
	}
	// Every element incremented once per round — the fault-free answer,
	// despite a partition, a suspected node and a straggler.
	fmt.Printf("self-heal completion: sum=%.0f (want %d), %d tasks executed\n",
		sum, 6*160, stats.TasksExecuted)
}
