// Command idxbench regenerates the paper's evaluation tables and figures
// from the command line:
//
//	idxbench                         # everything (Figures 4–10, Tables 2–3)
//	idxbench -fig 5                  # one figure
//	idxbench -table 2                # one table
//	idxbench -iters 30               # longer simulated runs
//	idxbench -max-nodes 128          # cap the node sweep (faster)
//	idxbench -metrics 127.0.0.1:8080 # serve live /metrics while running
//	idxbench -fig 5 -heartbeat 2e-4  # self-healing detector overhead on a sweep
//
// The simulator is deterministic: the same flags print the same numbers on
// every run. The Figure 5 sweep at -iters 3 -max-nodes 16 is committed as
// BENCH_fig5.json and gated exactly by the repository's golden test
// (TestBenchSnapshotsReproduce).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"indexlaunch/internal/bench"
	"indexlaunch/internal/metrics"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate only this figure (4-10)")
	table := flag.Int("table", 0, "regenerate only this table (2-3)")
	extension := flag.Bool("extension", false, "also run the bulk-tracing extension experiment")
	chart := flag.Bool("chart", false, "render figures as ASCII charts instead of tables")
	iters := flag.Int("iters", 0, "simulated timesteps per data point (0 = default)")
	maxNodes := flag.Int("max-nodes", 0, "cap the node sweep (0 = paper's range)")
	profile := flag.String("profile", "", "with -fig: also profile the figure's DCR+IDX configuration and write a Chrome trace (view with idxprof)")
	metricsAddr := flag.String("metrics", "", "serve live /metrics, /metrics.json and /statusz on this address while figures run (watch with: idxprof watch)")
	heartbeat := flag.Float64("heartbeat", 0, "enable the self-healing failure detector in every simulation at this heartbeat period in simulated seconds (0 = off)")
	speculate := flag.Float64("speculate", 0, "enable straggler speculation in every simulation at this latency quantile (0 = off)")
	flag.Parse()

	render := func(f bench.Figure) string {
		if *chart {
			return f.RenderChart()
		}
		return f.Render()
	}

	opts := bench.Options{Iters: *iters, MaxNodes: *maxNodes, Heartbeat: *heartbeat, Speculate: *speculate}
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		srv, err := metrics.Serve(*metricsAddr, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		opts.Metrics = reg
		fmt.Printf("metrics: serving %s/metrics (watch with: idxprof watch %s)\n", srv.URL(), srv.Addr())
	}
	figures := bench.Figures()
	tables := bench.Tables()

	switch {
	case *fig != 0:
		gen, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "idxbench: no figure %d (have 4-10)\n", *fig)
			os.Exit(1)
		}
		f := gen(opts)
		fmt.Print(render(f))
		if *profile != "" {
			p, err := bench.ProfileFigure(*fig, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
				os.Exit(1)
			}
			if err := p.WriteFile(*profile); err != nil {
				fmt.Fprintf(os.Stderr, "idxbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("profile: wrote %s (%d events, %d nodes); inspect with: idxprof %s\n",
				*profile, len(p.Events), p.Nodes, *profile)
		}
	case *profile != "":
		fmt.Fprintln(os.Stderr, "idxbench: -profile requires -fig")
		os.Exit(2)
	case *table != 0:
		gen, ok := tables[*table]
		if !ok {
			fmt.Fprintf(os.Stderr, "idxbench: no table %d (have 2-3)\n", *table)
			os.Exit(1)
		}
		fmt.Print(gen().Render())
	default:
		var figIDs []int
		for id := range figures {
			figIDs = append(figIDs, id)
		}
		sort.Ints(figIDs)
		for _, id := range figIDs {
			f := figures[id](opts)
			fmt.Print(render(f))
			fmt.Println()
		}
		var tabIDs []int
		for id := range tables {
			tabIDs = append(tabIDs, id)
		}
		sort.Ints(tabIDs)
		for _, id := range tabIDs {
			fmt.Print(tables[id]().Render())
			fmt.Println()
		}
		if *extension {
			f := bench.FigBulkTracing(opts)
			fmt.Print(render(f))
		}
	}
}
