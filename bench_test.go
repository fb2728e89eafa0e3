// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation (§6). One benchmark per experiment:
//
//	go test -bench=Table2 -benchtime=1x .   # dynamic self-check timings
//	go test -bench=Fig5   -benchtime=1x .   # circuit weak scaling curves
//	go test -bench=. -benchmem .            # everything
//
// Figure benchmarks print the regenerated series (the same rows the paper
// plots) once, then time regeneration; table benchmarks measure the real
// dynamic-check implementation directly.
package repro

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"indexlaunch/internal/bench"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/safety"
	"indexlaunch/internal/sched"
)

var printOnce sync.Map

func benchFigure(b *testing.B, id int, opts bench.Options) {
	gen := bench.Figures()[id]
	if gen == nil {
		b.Fatalf("no generator for figure %d", id)
	}
	if _, done := printOnce.LoadOrStore(fmt.Sprintf("fig%d", id), true); !done {
		b.Logf("\n%s", gen(opts).Render())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := gen(opts)
		if len(fig.Series) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFig4CircuitStrong regenerates Figure 4 (circuit strong scaling,
// 4 configurations, 1–512 nodes).
func BenchmarkFig4CircuitStrong(b *testing.B) {
	benchFigure(b, 4, bench.Options{Iters: 10})
}

// BenchmarkFig5CircuitWeak regenerates Figure 5 (circuit weak scaling,
// 1–1024 nodes).
func BenchmarkFig5CircuitWeak(b *testing.B) {
	benchFigure(b, 5, bench.Options{Iters: 10})
}

// BenchmarkFig6CircuitWeakOverdecomposed regenerates Figure 6 (circuit weak
// scaling, 10× overdecomposition, tracing off).
func BenchmarkFig6CircuitWeakOverdecomposed(b *testing.B) {
	benchFigure(b, 6, bench.Options{Iters: 10})
}

// BenchmarkFig7StencilStrong regenerates Figure 7 (stencil strong scaling).
func BenchmarkFig7StencilStrong(b *testing.B) {
	benchFigure(b, 7, bench.Options{Iters: 10})
}

// BenchmarkFig8StencilWeak regenerates Figure 8 (stencil weak scaling).
func BenchmarkFig8StencilWeak(b *testing.B) {
	benchFigure(b, 8, bench.Options{Iters: 10})
}

// BenchmarkFig9SoleilFluidWeak regenerates Figure 9 (Soleil-X fluid-only
// weak scaling).
func BenchmarkFig9SoleilFluidWeak(b *testing.B) {
	benchFigure(b, 9, bench.Options{Iters: 10})
}

// BenchmarkFig10SoleilFullWeak regenerates Figure 10 (Soleil-X full
// multi-physics weak scaling, dynamic-check vs no-check vs No-IDX).
func BenchmarkFig10SoleilFullWeak(b *testing.B) {
	benchFigure(b, 10, bench.Options{Iters: 10})
}

// Table 2: per-functor self-check timings. Sub-benchmarks sweep the launch
// domain size; ns/op is the paper's "elapsed time" column.
func BenchmarkTable2SelfCheck(b *testing.B) {
	if _, done := printOnce.LoadOrStore("table2", true); !done {
		b.Logf("\n%s", bench.Table2SelfChecks().Render())
	}
	for fi, c := range bench.Table2Functors(1) {
		fi := fi
		b.Run(c.Label, func(b *testing.B) {
			for _, size := range bench.Table2Sizes {
				size := size
				b.Run(fmt.Sprintf("D=%.0e", float64(size)), func(b *testing.B) {
					f := bench.Table2Functors(size)[fi].Functor
					d := domain.Range1(0, size-1)
					bounds := domain.Rect1(0, size-1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if r := safety.DynamicSelfCheck(d, bounds, f); !r.Injective {
							b.Fatal("Table 2 functors are safe by construction")
						}
					}
				})
			}
		})
	}
}

// Table 3: multi-argument cross-check timings, 2–5 arguments on one shared
// partition.
func BenchmarkTable3CrossCheck(b *testing.B) {
	if _, done := printOnce.LoadOrStore("table3", true); !done {
		b.Logf("\n%s", bench.Table3CrossChecks().Render())
	}
	for n := 2; n <= 5; n++ {
		n := n
		b.Run(fmt.Sprintf("args=%d", n), func(b *testing.B) {
			for _, size := range bench.Table2Sizes {
				size := size
				b.Run(fmt.Sprintf("D=%.0e", float64(size)), func(b *testing.B) {
					d := domain.Range1(0, size-1)
					bounds := domain.Rect1(0, 2*size-1)
					args := bench.Table3Args(n, size)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if r := safety.DynamicCrossCheck(d, bounds, args); !r.Safe {
							b.Fatal("Table 3 arguments are safe by construction")
						}
					}
				})
			}
		})
	}
}

// Ablation: the paper's linear-time single-mask cross-check versus the
// naive pairwise image-intersection baseline it replaces (§4).
func BenchmarkAblationCrossCheckLinearVsPairwise(b *testing.B) {
	const size = int64(1e4)
	d := domain.Range1(0, size-1)
	bounds := domain.Rect1(0, 2*size-1)
	args := bench.Table3Args(4, size)
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			safety.DynamicCrossCheck(d, bounds, args)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			safety.PairwiseCrossCheck(d, bounds, args)
		}
	})
}

// BenchmarkSchedTrace times sched.RunTrace, the multi-tenant scheduler's
// virtual-time replay, on the workload BENCH_sched.json gates: each
// discipline × seed case of schedCases, with its tenant weights and
// admission.
func BenchmarkSchedTrace(b *testing.B) {
	for _, c := range schedCases() {
		b.Run(strings.TrimPrefix(c.name, "sched/"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := sched.RunTrace(c.trace, c.config()); res.Makespan == 0 {
					b.Fatal("empty scheduler run")
				}
			}
		})
	}
}
