package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/metrics"
	"indexlaunch/internal/obs"
	"indexlaunch/internal/rt"
	"indexlaunch/internal/sched"
	"indexlaunch/internal/trace"
	"indexlaunch/internal/wal"
	"indexlaunch/internal/wire"
)

// The serve workload's server runs in a child process — this binary,
// started with serveChildArg — so a crash of the service is observed as
// failed operations instead of ending the benchmark. The child serves
// sched.Handler on loopback and adds three things of its own:
//
//   - a "bench" job kind: synthetic launches plus the body's own fence,
//     timed around each call;
//   - a watcher on POST /jobs that waits for each accepted job and
//     reports its completion on stdout, so the load generator learns of
//     it without polling;
//   - POST /bench/mark, which snapshots counters at the start of the
//     measured phase; closing stdin makes the child print its counters
//     and exit.
//
// Stdout carries one message per line: "ready <addr>", "done <json>" per
// job, and "stats <json>" at the end.

const serveChildArg = "serve-child"

// serveTraceHeadRate is the head-sampling fraction of the served tracer;
// failed, slow and preempted jobs are always retained.
const serveTraceHeadRate = 0.1

// benchOpHeader carries the load generator's operation number on POST
// /jobs, so a completion can be matched before the 202 reply arrives.
const benchOpHeader = "X-Bench-Op"

// doneMsg reports one finished job. Times are Unix nanoseconds on the
// child's clock (the same machine's clock as the parent's).
type doneMsg struct {
	Op       uint64     `json:"op"`
	ID       int64      `json:"id"`
	State    string     `json:"state"`
	Ack      int64      `json:"ack"` // 202 written
	Start    int64      `json:"bs"`  // body started
	BodyEnd  int64      `json:"be"`  // body returned
	End      int64      `json:"end"` // terminal state visible
	IssueNS  int64      `json:"issue_ns"`
	VerifyNS int64      `json:"verify_ns"`
	Points   int        `json:"points"`
	Launches [][2]int64 `json:"launches,omitempty"` // each ExecuteIndex call
	Fence    [2]int64   `json:"fence"`
	Retained bool       `json:"retained"`
}

// childStats is the child's final report: counters at the mark and at the
// end, allocation deltas between them, and per-tenant job counts.
type childStats struct {
	Mark, End      map[string]float64
	Mallocs, Bytes uint64
	PeakRSSMB      float64
	WindowS        float64
	Tenants        []sched.TenantStatus
}

// bodyTimes is what the bench kind measured inside one job body.
type bodyTimes struct {
	start, end        int64
	issueNS, verifyNS int64
	points            int
	launches          [][2]int64
	fence             [2]int64
}

type bodyLog struct {
	mu sync.Mutex
	m  map[sched.JobID]bodyTimes
}

func (b *bodyLog) put(id sched.JobID, t bodyTimes) {
	b.mu.Lock()
	b.m[id] = t
	b.mu.Unlock()
}

func (b *bodyLog) take(id sched.JobID) bodyTimes {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.m[id]
	delete(b.m, id)
	return t
}

// benchKind builds the bench job body: Rounds synthetic launches of Tasks
// points, then the body's own fence, with each call timed.
func benchKind(log *bodyLog, traced bool) sched.KindFunc {
	return func(req sched.SubmitRequest) (sched.RunFunc, error) {
		if req.Tasks < 1 || req.Rounds < 1 {
			return nil, fmt.Errorf("bench job needs tasks and rounds >= 1, got %d and %d", req.Tasks, req.Rounds)
		}
		tasks, rounds := req.Tasks, req.Rounds
		return func(jc *sched.JobContext, r *rt.Runtime) error {
			id, ok := r.TaskNamed(sched.SyntheticTaskName)
			if !ok {
				return fmt.Errorf("task %q not registered", sched.SyntheticTaskName)
			}
			bt := bodyTimes{start: time.Now().UnixNano()}
			defer func() { log.put(jc.Job, bt) }()
			for i := 0; i < rounds; i++ {
				l, err := core.Forall(sched.SyntheticTaskName, id, domain.Range1(0, int64(tasks-1)))
				if err != nil {
					return err
				}
				if traced {
					tv := time.Now()
					l.Verify(r.Config().Checks)
					bt.verifyNS += time.Since(tv).Nanoseconds()
				}
				t0 := time.Now()
				_, err = r.ExecuteIndex(l)
				t1 := time.Now()
				if err != nil {
					return err
				}
				bt.issueNS += t1.Sub(t0).Nanoseconds()
				bt.points += tasks
				bt.launches = append(bt.launches, [2]int64{t0.UnixNano(), t1.UnixNano()})
			}
			tf := time.Now().UnixNano()
			err := r.FenceErr()
			bt.end = time.Now().UnixNano()
			bt.fence = [2]int64{tf, bt.end}
			return err
		}, nil
	}
}

// lineWriter serializes protocol lines from many goroutines.
type lineWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (lw *lineWriter) line(kind string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.w.WriteString(kind)
	lw.w.WriteByte(' ')
	lw.w.Write(b)
	lw.w.WriteByte('\n')
	return lw.w.Flush()
}

// captureWriter tees a handler's status and body so the watcher can read
// the job ID of an accepted submission.
type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.body.Write(b)
	return c.ResponseWriter.Write(b)
}

// counterScalars snapshots the registry's values the parent derives
// per-layer metrics from.
func counterScalars(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Gather().Scalars() {
		for _, p := range []string{"idx_", "xport_", "wal_", "trace_"} {
			if strings.HasPrefix(s.Name, p) {
				out[s.Name] = s.Value
				break
			}
		}
	}
	return out
}

func serveChild(args []string) error {
	fs := flag.NewFlagSet(serveChildArg, flag.ContinueOnError)
	dataDir := fs.String("data", "", "journal directory")
	traceDir := fs.String("trace-dir", "", "trace store directory")
	seed := fs.Uint64("seed", 1, "trace-ID seed")
	traced := fs.Bool("traced", false, "time the safety check of each launch")
	workers := fs.Int("cluster", 0, "run the executor's remote points on this many worker meshes over TCP; 0 keeps idxserve's centralized executors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	// The configuration of idxserve's defaults, with its fair queue, a
	// durable journal (interval fsync) and tracing with a durable store;
	// with -cluster, that of idxserve -cluster: one executor whose node-0
	// runtime sends remote points to the workers.
	executors, rtc := 2, rt.Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true}
	var meshes []*wire.Mesh
	var remote atomic.Int64
	if *workers > 0 {
		var err error
		if meshes, err = openMeshes(*workers, reg, func(int) func(string, domain.Point, []byte) ([]byte, error) {
			return syntheticExec(&remote)
		}); err != nil {
			return err
		}
		defer closeMeshes(meshes)
		executors, rtc = 1, rt.Config{Nodes: *workers + 1, ProcsPerNode: 2, IndexLaunches: true, Cluster: meshes[0]}
	}
	scalars := func() map[string]float64 {
		m := counterScalars(reg)
		if meshes != nil {
			frames, bytes := wireTotals(meshes[0])
			m["bench_wire_frames"], m["bench_wire_bytes"] = float64(frames), float64(bytes)
			m["bench_wire_retransmits"] = float64(meshRetransmits(meshes))
			m["bench_remote_points"] = float64(remote.Load())
		}
		return m
	}
	tr, err := trace.New(trace.Config{HeadRate: serveTraceHeadRate, Dir: *traceDir, Registry: reg})
	if err != nil {
		return err
	}
	defer tr.Close()
	bodies := &bodyLog{m: map[sched.JobID]bodyTimes{}}
	kinds := map[string]sched.KindFunc{"bench": benchKind(bodies, *traced)}
	adm := sched.Admission{MaxQueued: 1024, Tenants: map[string]sched.Quota{}}
	for t, w := range serveWeights {
		adm.Tenants[t] = sched.Quota{Weight: w}
	}
	s, err := sched.New(sched.Config{
		Executors: executors,
		Runtime:   rtc,
		Setup:     sched.SyntheticSetup,
		Queue:     sched.NewWeightedFair(1, adm.Weights(), 1),
		Admission: adm,
		Durable:   sched.DurableOptions{Dir: *dataDir, Fsync: wal.SyncInterval, FsyncInterval: 100 * time.Millisecond},
		Metrics:   reg,
		Profile:   obs.NewRecorder("perfbench-serve", rtc.Nodes, 4096),
		Trace:     tr,
		TraceSeed: *seed,
		Kinds:     kinds,
	})
	if err != nil {
		return err
	}
	defer s.Shutdown()

	out := &lineWriter{w: bufio.NewWriter(os.Stdout)}
	var waiters sync.WaitGroup
	var markMu sync.Mutex
	var mark map[string]float64
	var markMem runtime.MemStats
	var markAt time.Time

	inner := sched.Handler(s, kinds)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, req *http.Request) {
		op, _ := strconv.ParseUint(req.Header.Get(benchOpHeader), 10, 64) // 0 when absent
		cw := &captureWriter{ResponseWriter: w}
		inner.ServeHTTP(cw, req)
		ack := time.Now().UnixNano()
		if cw.status != http.StatusAccepted {
			return
		}
		var sr sched.SubmitResponse
		if err := json.Unmarshal(cw.body.Bytes(), &sr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve child: decode submit reply:", err)
			return
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			_ = s.Wait(sr.ID) // the outcome is read back as the job's state
			// Job takes the scheduler lock, so it returns only after the
			// completion (journal append, tail sampling) has finished.
			info, _ := s.Job(sr.ID)
			end := time.Now().UnixNano()
			bt := bodies.take(sr.ID)
			_, retained := tr.Get(strconv.FormatInt(int64(sr.ID), 10))
			if err := out.line("done", doneMsg{
				Op: op, ID: int64(sr.ID), State: info.State, Ack: ack,
				Start: bt.start, BodyEnd: bt.end, End: end,
				IssueNS: bt.issueNS, VerifyNS: bt.verifyNS, Points: bt.points,
				Launches: bt.launches, Fence: bt.fence, Retained: retained,
			}); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench serve child: report completion:", err)
			}
		}()
	})
	mux.HandleFunc("POST /bench/mark", func(w http.ResponseWriter, _ *http.Request) {
		markMu.Lock()
		defer markMu.Unlock()
		runtime.ReadMemStats(&markMem)
		mark, markAt = scalars(), time.Now()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("/", inner)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close() // shutting down; in-flight requests are the parent's to fail
		<-served
	}()
	if err := out.line("ready", ln.Addr().String()); err != nil {
		return err
	}

	// The parent closes stdin when it has every completion it waits for.
	if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
		return err
	}
	waiters.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	markMu.Lock()
	st := childStats{Mark: mark, End: scalars(), Tenants: s.Status().Tenants}
	if mark != nil {
		st.Mallocs, st.Bytes = end.Mallocs-markMem.Mallocs, end.TotalAlloc-markMem.TotalAlloc
		st.WindowS = time.Since(markAt).Seconds()
	}
	markMu.Unlock()
	if st.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	if err := out.line("stats", st); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
