package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"indexlaunch/internal/bench"
	"indexlaunch/internal/sched"
)

// Golden tests for the deterministic benchmark snapshots. BENCH_fig5.json
// (the paper's Figure 5 circuit weak-scaling curves, from the simulator)
// and BENCH_sched.json (the scheduler's virtual-time suite) are pure
// functions of their inputs, so they gate exactly: a run must reproduce
// every committed name→value pair, with no name missing, none extra and
// no value changed. After an intended change to the simulator's cost model
// or the scheduler's policy core, regenerate both files and commit the
// diff:
//
//	go test -run TestBenchSnapshotsReproduce -update .
//
// Wall-clock numbers are deliberately not snapshotted here: they are
// measured by perfbench/ (repeated runs with their spread) and by the
// go test -bench functions.

var update = flag.Bool("update", false, "rewrite BENCH_fig5.json and BENCH_sched.json from this run")

// benchSnapshot is one committed BENCH_<name>.json file.
type benchSnapshot struct {
	Name   string            `json:"name"`
	Meta   map[string]string `json:"meta,omitempty"`
	Values []benchValue      `json:"values"`
}

// benchValue is one named deterministic measurement.
type benchValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// figureSnapshot flattens a figure into a snapshot: one value per series
// point, named like "fig5/DCR, IDX/16".
func figureSnapshot(f bench.Figure) benchSnapshot {
	id := strings.ToLower(f.ID)
	snap := benchSnapshot{
		Name: id,
		Meta: map[string]string{"title": f.Title, "ylabel": f.YLabel},
	}
	for _, s := range f.Series {
		for i, x := range s.X {
			if i >= len(s.Y) {
				continue
			}
			snap.Values = append(snap.Values, benchValue{
				Name:  fmt.Sprintf("%s/%s/%d", id, s.Label, x),
				Value: s.Y[i],
			})
		}
	}
	return snap
}

// schedCase is one run of the scheduler's virtual-time suite: a seeded
// 2000-job trace under one queue discipline, with tenant weights a=1, b=2,
// c=4 in both admission and the fair queue.
type schedCase struct {
	name  string // "sched/<discipline>/seed<n>"
	trace sched.Trace
	// config returns a fresh TraceConfig: queue disciplines are stateful,
	// so every run needs its own.
	config func() sched.TraceConfig
}

// schedCases is the fifo/priority/fair × seeds 1, 7, 42 workload behind
// BENCH_sched.json, shared with BenchmarkSchedTrace.
func schedCases() []schedCase {
	weights := map[string]int{"a": 1, "b": 2, "c": 4}
	adm := sched.Admission{
		MaxQueued: 4096,
		Tenants: map[string]sched.Quota{
			"a": {Weight: 1}, "b": {Weight: 2}, "c": {Weight: 4},
		},
	}
	disciplines := []struct {
		name string
		mk   func() sched.Queue
	}{
		{"fifo", sched.NewFIFO},
		{"priority", sched.NewStrictPriority},
		{"fair", func() sched.Queue { return sched.NewWeightedFair(1, weights, 1) }},
	}
	var cases []schedCase
	for _, d := range disciplines {
		for _, seed := range []int64{1, 7, 42} {
			cases = append(cases, schedCase{
				name: fmt.Sprintf("sched/%s/seed%d", d.name, seed),
				trace: sched.GenTrace(seed, sched.TraceOptions{
					Jobs: 2000, MaxPriority: 3, MaxInterArrival: 1, MaxCost: 3,
					MinService: 1, MaxService: 6,
				}),
				config: func() sched.TraceConfig {
					return sched.TraceConfig{Executors: 4, Queue: d.mk(), Admission: adm}
				},
			})
		}
	}
	return cases
}

// schedSnapshot runs the scheduler suite: throughput, p99 queue wait and
// makespan per (discipline, seed).
func schedSnapshot() benchSnapshot {
	snap := benchSnapshot{
		Name: "sched",
		Meta: map[string]string{
			"title": "Scheduler virtual-time throughput and queue waits (seeds 1,7,42)",
		},
	}
	for _, c := range schedCases() {
		res := sched.RunTrace(c.trace, c.config())
		snap.Values = append(snap.Values,
			benchValue{Name: c.name + "/jobs_per_ktick", Value: res.JobsPerKTick},
			benchValue{Name: c.name + "/p99_wait_ticks", Value: float64(res.P99Wait())},
			benchValue{Name: c.name + "/makespan_ticks", Value: float64(res.Makespan)},
		)
	}
	return snap
}

// TestBenchSnapshotsReproduce regenerates both deterministic suites and
// requires them to equal the committed snapshots exactly. With -update it
// rewrites the files instead.
func TestBenchSnapshotsReproduce(t *testing.T) {
	for _, snap := range []benchSnapshot{
		figureSnapshot(bench.Fig5CircuitWeak(bench.Options{Iters: 3, MaxNodes: 16})),
		schedSnapshot(),
	} {
		path := "BENCH_" + snap.Name + ".json"
		t.Run(snap.Name, func(t *testing.T) {
			if *update {
				data, err := json.MarshalIndent(snap, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var committed benchSnapshot
			if err := json.Unmarshal(data, &committed); err != nil {
				t.Fatalf("parsing %s: %v", path, err)
			}
			want := map[string]float64{}
			for _, v := range committed.Values {
				want[v.Name] = v.Value
			}
			for _, v := range snap.Values {
				w, ok := want[v.Name]
				switch {
				case !ok:
					t.Errorf("%s: extra value %q = %v", path, v.Name, v.Value)
				case v.Value != w:
					t.Errorf("%s: %q = %v, committed %v", path, v.Name, v.Value, w)
				}
				delete(want, v.Name)
			}
			for name, w := range want {
				t.Errorf("%s: missing value %q (committed %v)", path, name, w)
			}
			if t.Failed() {
				t.Log("after an intended change, regenerate with: go test -run TestBenchSnapshotsReproduce -update .")
			}
		})
	}
}
