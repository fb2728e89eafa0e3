package rt

import (
	"runtime"
	"testing"

	"indexlaunch/internal/privilege"
	"indexlaunch/internal/region"
)

// naiveVersionMap is the ablation baseline: a flat list of access records
// scanned linearly per query, standing in for a runtime without the
// interval-tree (bounding-volume-hierarchy) index of §5.
type naiveVersionMap struct {
	recs []naiveRec
}

type naiveRec struct {
	iv     region.Interval
	writes bool
	ev     *Event
}

func (m *naiveVersionMap) access(ivs []region.Interval, priv privilege.Privilege, ev *Event) []*Event {
	var deps []*Event
	for _, iv := range ivs {
		for _, r := range m.recs {
			if !r.iv.Overlaps(iv) {
				continue
			}
			if r.writes || priv.IsWrite() {
				deps = append(deps, r.ev)
			}
		}
	}
	for _, iv := range ivs {
		m.recs = append(m.recs, naiveRec{iv: iv, writes: priv.IsWrite(), ev: ev})
	}
	return deps
}

// accessPattern simulates one timestep of a stencil-like workload: P tasks
// each writing a disjoint block and reading a 3-block halo.
func accessPattern(p int, fn func(ivs []region.Interval, priv privilege.Privilege)) {
	const blockSize = 64
	for t := 0; t < p; t++ {
		lo := int64(t * blockSize)
		fn([]region.Interval{{Lo: lo, Hi: lo + blockSize - 1}}, privilege.Write)
		rLo := lo - blockSize
		if rLo < 0 {
			rLo = 0
		}
		fn([]region.Interval{{Lo: rLo, Hi: lo + 2*blockSize - 1}}, privilege.Read)
	}
}

// BenchmarkAblationVersionMapIntervalTree measures the production version
// map (sorted segments, binary search) on the stencil access pattern.
func BenchmarkAblationVersionMapIntervalTree(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(benchName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm := newVersionMap(nil, nil)
				for step := 0; step < 4; step++ {
					accessPattern(p, func(ivs []region.Interval, priv privilege.Privilege) {
						vm.access(1, 0, ivs, priv, privilege.OpNone, NewEvent())
					})
				}
			}
		})
	}
}

// BenchmarkAblationVersionMapNaiveScan measures the linear-scan baseline on
// the same pattern; the gap demonstrates why physical analysis needs the
// logarithmic index.
func BenchmarkAblationVersionMapNaiveScan(b *testing.B) {
	for _, p := range []int{64, 512} {
		b.Run(benchName(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vm := &naiveVersionMap{}
				for step := 0; step < 4; step++ {
					accessPattern(p, func(ivs []region.Interval, priv privilege.Privilege) {
						vm.access(ivs, priv, NewEvent())
					})
				}
			}
		})
	}
}

func benchName(p int) string {
	if p == 64 {
		return "tasks=64"
	}
	return "tasks=512"
}

// BenchmarkIndexLaunchIssuance measures end-to-end issuance+analysis of an
// index launch versus the equivalent loop of single launches through the
// real runtime (tasks are no-ops), showing the per-task issuance overhead
// the paper's "No IDX" configurations pay. It reports ns/point (issuance
// time) and allocs/point (issuance plus executing the issued tasks, so the
// count includes the fence after the timed loop).
func BenchmarkIndexLaunchIssuance(b *testing.B) {
	for _, idx := range []bool{true, false} {
		name := "indexlaunch"
		if !idx {
			name = "taskloop"
		}
		b.Run(name, func(b *testing.B) {
			r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, DCR: true, IndexLaunches: idx})
			defer r.Shutdown()
			task := r.MustRegisterTask("noop", func(*Context) ([]byte, error) { return nil, nil })
			launch := benchLaunch(b, r, task)
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.ExecuteIndex(launch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			r.Fence()
			runtime.ReadMemStats(&ms1)
			points := float64(b.N) * float64(launch.Parallelism())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/points, "ns/point")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/points, "allocs/point")
		})
	}
}
