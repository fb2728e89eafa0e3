// Command idxprof analyzes the observability artifacts of idxbench, idxsim
// and idxlang.
//
// Profile mode (the default) reads a profile dumped by a -profile flag (or
// by any program using internal/obs): it prints per-node ASCII timelines,
// per-stage and per-launch aggregation tables, and the critical path
// through the recorded dependence graph. The input is Chrome trace_event
// JSON, so the same file also loads directly in chrome://tracing or
// Perfetto.
//
//	idxprof p.json
//	idxprof -width 120 -steps 20 p.json
//
// Watch mode polls a live /metrics.json endpoint (served by a -metrics
// flag) and prints what changed between polls — a terminal top(1) for the
// runtime pipeline.
//
//	idxprof watch 127.0.0.1:8080
//	idxprof watch -interval 1s -count 10 http://127.0.0.1:8080
//	idxprof watch -heartbeat -speculate 127.0.0.1:8080   # only health_*/spec_* families
//
// Trace mode renders a retained end-to-end job trace (the GET /trace/{id}
// payload of idxserve's tracing layer) as an indented cross-layer timeline:
// one line per span, nested by parent, sched admission through runtime
// stages to transport hops.
//
//	idxprof trace 127.0.0.1:8080 3        # fetch and render job 3's trace
//	idxprof trace http://host:8080/trace/1a2b3c
//	idxprof trace trace.json              # render a saved trace payload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "watch":
			runWatch(os.Args[2:])
			return
		case "trace":
			runTraceRender(os.Args[2:])
			return
		}
	}
	width := flag.Int("width", 80, "timeline width in columns")
	steps := flag.Int("steps", 12, "critical-path chain steps to print")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idxprof [-width n] [-steps n] profile.json")
		fmt.Fprintln(os.Stderr, "       idxprof watch [-interval d] [-count n] host:port")
		fmt.Fprintln(os.Stderr, "       idxprof trace trace.json | <url> | host:port <id>")
		os.Exit(2)
	}
	p, err := obs.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(obs.RenderSummary(p))
	fmt.Println()
	fmt.Print(obs.RenderTimeline(p, *width))
	fmt.Println()
	fmt.Print(obs.CriticalPath(p).Render(p.WallNS, *steps))
}

// runTraceRender renders a retained job trace as a cross-layer timeline.
// The source is a saved JSON payload, a full /trace/{id} URL, or a
// host:port plus trace/job ID pair.
func runTraceRender(args []string) {
	fs := flag.NewFlagSet("idxprof trace", flag.ExitOnError)
	_ = fs.Parse(args)
	var data []byte
	var err error
	switch fs.NArg() {
	case 1:
		src := fs.Arg(0)
		if strings.Contains(src, "://") {
			data, err = fetchBytes(src)
		} else {
			data, err = os.ReadFile(src)
		}
	case 2:
		host := fs.Arg(0)
		if !strings.Contains(host, "://") {
			host = "http://" + host
		}
		data, err = fetchBytes(strings.TrimRight(host, "/") + "/trace/" + fs.Arg(1))
	default:
		fmt.Fprintln(os.Stderr, "usage: idxprof trace trace.json | idxprof trace <url> | idxprof trace host:port <id>")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	var tr trace.Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: parse trace: %v\n", err)
		os.Exit(1)
	}
	if err := tr.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stages: %s\n", strings.Join(tr.Stages(), " "))
}

func fetchBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// runWatch polls a live /metrics.json endpoint and prints per-interval
// deltas.
func runWatch(args []string) {
	fs := flag.NewFlagSet("idxprof watch", flag.ExitOnError)
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	count := fs.Int("count", 0, "number of polls (0 = until interrupted)")
	heartbeat := fs.Bool("heartbeat", false, "show only the failure-detector families (health_*)")
	speculate := fs.Bool("speculate", false, "show only the straggler-speculation families (spec_*)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idxprof watch [-interval d] [-count n] [-heartbeat] [-speculate] host:port")
		os.Exit(2)
	}
	url := fs.Arg(0)
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics.json") {
		url = strings.TrimRight(url, "/") + "/metrics.json"
	}
	var prev metrics.Snapshot
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		snap, err := fetchSnapshot(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "idxprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("-- %s\n", time.Now().Format(time.TimeOnly))
		out := metrics.RenderDelta(prev, snap)
		if *heartbeat || *speculate {
			out = filterFamilies(out, *heartbeat, *speculate)
		}
		fmt.Print(out)
		prev = snap
	}
}

// filterFamilies keeps only the RenderDelta lines of the self-healing
// families: health_* when heartbeat is set, spec_* when speculate is set.
func filterFamilies(table string, heartbeat, speculate bool) string {
	var b strings.Builder
	for _, line := range strings.Split(table, "\n") {
		if heartbeat && strings.HasPrefix(line, "health_") ||
			speculate && strings.HasPrefix(line, "spec_") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func fetchSnapshot(url string) (metrics.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.Snapshot{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return metrics.ReadJSONSnapshot(resp.Body)
}
