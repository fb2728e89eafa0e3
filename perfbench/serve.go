package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Serve drives the job service in a child process over loopback HTTP, in
// two measured phases after a warm-up:
//
//   - open loop: the seeded Poisson schedule of submissions and reads,
//     sent by serveClients goroutines whatever the service's state; each
//     operation is timed from when it was due;
//   - closed loop: serveClients clients, each submitting its next job
//     once the previous one finished.
//
// The load comes from at most serveClients busy goroutines and
// connections, the machine's core count, so the generator does not starve
// the service of processors.

const (
	serveClients     = 2
	serveWarmupJobs  = 40
	serveOpenShare   = 2.0 / 3 // of --seconds; the rest is the closed phase
	serveLateLimitMS = 10      // a generator later than this at p99 fell behind
	serveWaitLimit   = 60 * time.Second
	crashKeepLines   = 20
)

// opRec is one operation of the load generator.
type opRec struct {
	op    uint64
	kind  opKind
	job   jobSpec
	phase string // "warmup", "open" or "closed"

	due, sent, replied time.Time
	status             int
	err                error // transport or reply-decoding error

	// Completion, for accepted submissions.
	done     chan struct{}
	msg      doneMsg
	recv     time.Time
	finished bool // a completion (or the child's death) resolved it
}

func (r *opRec) accepted() bool { return r.kind == opPost && r.status == http.StatusAccepted }

// ok reports whether the operation succeeded end to end.
func (r *opRec) ok() bool { return r.failure() == "" }

// failure names why the operation failed, "" when it succeeded.
func (r *opRec) failure() string {
	switch {
	case r.sent.IsZero():
		return "not sent: child gone"
	case r.err != nil:
		return fmt.Sprintf("%v: request error", r.kind)
	case r.kind == opPost && !r.accepted():
		return fmt.Sprintf("post: status %d", r.status)
	case r.kind == opPost && !r.finished:
		return "post: no completion"
	case r.kind == opPost && r.msg.State != "done":
		return "post: job " + r.msg.State
	case r.kind == opReadJob && r.status != http.StatusOK:
		return fmt.Sprintf("read_job: status %d", r.status)
	case r.kind == opReadTrace && r.status != http.StatusOK && r.status != http.StatusNotFound:
		// A trace read finds the trace, or learns it was not retained.
		return fmt.Sprintf("read_trace: status %d", r.status)
	}
	return ""
}

// child is one running serve child and the generator's view of it.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	base   string
	client *http.Client
	pid    string

	mu       sync.Mutex
	pending  map[uint64]*opRec
	accepted []int64 // job IDs, in acceptance order
	retained []int64 // job IDs whose traces were retained, newest last
	stats    *childStats

	dead     atomic.Bool
	exited   chan struct{} // closed once stdout hit EOF and the process was reaped
	peakRSS  atomic.Uint64 // float64 bits, last polled
	nextOp   atomic.Uint64
	crash    crashLog
	waitErr  error
	diedAt   time.Time
	stopPoll chan struct{}
}

// crashLog keeps the first lines the child wrote to stderr, and the first
// lines of a panic or fatal error wherever it starts.
type crashLog struct {
	mu      sync.Mutex
	partial []byte
	head    []string
	panic   []string
}

func (c *crashLog) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partial = append(c.partial, b...)
	for {
		i := bytes.IndexByte(c.partial, '\n')
		if i < 0 {
			break
		}
		line := string(c.partial[:i])
		c.partial = c.partial[i+1:]
		if len(c.head) < crashKeepLines {
			c.head = append(c.head, line)
		}
		if c.panic == nil && (strings.HasPrefix(line, "panic:") || strings.HasPrefix(line, "fatal error:")) {
			c.panic = []string{}
		}
		if c.panic != nil && len(c.panic) < crashKeepLines {
			c.panic = append(c.panic, line)
		}
	}
	return len(b), nil
}

func (c *crashLog) lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.partial) > 0 {
		c.head = append(c.head, string(c.partial))
		c.partial = nil
	}
	if c.panic != nil {
		return append([]string(nil), c.panic...)
	}
	return append([]string(nil), c.head...)
}

// startChild launches the serve child with a fresh journal and trace store
// under dir and waits until it listens. With workers > 0 the child's one
// executor sends remote points to that many worker meshes over TCP, as
// idxserve -cluster does; with 0 it runs idxserve's two centralized
// executors.
func startChild(o runOpts, workers int, dir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, serveChildArg,
		"-data", filepath.Join(dir, "journal"), "-trace-dir", filepath.Join(dir, "traces"),
		"-seed", strconv.FormatInt(o.Seed, 10), "-traced="+strconv.FormatBool(o.Traced),
		"-cluster", strconv.Itoa(workers))
	c := &child{cmd: cmd, pending: map[uint64]*opRec{}, exited: make(chan struct{}), stopPoll: make(chan struct{})}
	cmd.Stderr = &c.crash
	if c.stdin, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c.pid = strconv.Itoa(cmd.Process.Pid)
	ready := make(chan string, 1)
	go c.read(bufio.NewReader(stdout), ready)
	go c.pollRSS()
	select {
	case addr := <-ready:
		c.base = "http://" + addr
	case <-c.exited:
		return nil, fmt.Errorf("serve child exited before listening: %v: %s", c.waitErr, strings.Join(c.crash.lines(), " | "))
	case <-time.After(30 * time.Second):
		c.kill()
		return nil, fmt.Errorf("serve child did not listen within 30s")
	}
	c.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		},
	}
	return c, nil
}

// read consumes the child's stdout until EOF; then the child is dead (or
// finished) and every operation still waiting on it is resolved as lost.
func (c *child) read(br *bufio.Reader, ready chan<- string) {
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			c.handle(line, ready)
		}
		if err != nil {
			break
		}
	}
	c.diedAt = time.Now()
	c.dead.Store(true)
	c.waitErr = c.cmd.Wait()
	close(c.stopPoll)
	c.mu.Lock()
	lost := c.pending
	c.pending = map[uint64]*opRec{}
	c.mu.Unlock()
	for _, r := range lost {
		close(r.done)
	}
	close(c.exited)
}

func (c *child) handle(line []byte, ready chan<- string) {
	kind, body, _ := bytes.Cut(bytes.TrimSpace(line), []byte(" "))
	switch string(kind) {
	case "ready":
		var addr string
		if json.Unmarshal(body, &addr) == nil {
			ready <- addr
		}
	case "done":
		var m doneMsg
		if err := json.Unmarshal(body, &m); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: bad completion from serve child:", err)
			return
		}
		now := time.Now()
		c.mu.Lock()
		defer c.mu.Unlock()
		if m.Retained {
			c.retained = append(c.retained, m.ID)
		}
		if r := c.pending[m.Op]; r != nil {
			delete(c.pending, m.Op)
			r.msg, r.recv, r.finished = m, now, true
			close(r.done)
		}
	case "stats":
		var st childStats
		if err := json.Unmarshal(body, &st); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: bad stats from serve child:", err)
			return
		}
		c.mu.Lock()
		c.stats = &st
		c.mu.Unlock()
	}
}

// pollRSS keeps the child's last-seen peak RSS, the value reported if it
// dies before reporting its own.
func (c *child) pollRSS() {
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		if v, err := peakRSSMB(c.pid); err == nil {
			c.peakRSS.Store(math.Float64bits(v))
		}
		select {
		case <-c.stopPoll:
			return
		case <-t.C:
		}
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already gone is fine
	<-c.exited
}

// stop asks the child for its final counters and waits for it to exit.
func (c *child) stop() *childStats {
	_ = c.stdin.Close() // EOF is the stop signal; a dead child's pipe may already be closed
	select {
	case <-c.exited:
	case <-time.After(serveWaitLimit):
		c.kill()
	}
	c.client.CloseIdleConnections()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// newOp registers an operation so its completion can be matched.
func (c *child) newOp(kind opKind, job jobSpec, phase string, due time.Time) *opRec {
	r := &opRec{op: c.nextOp.Add(1), kind: kind, job: job, phase: phase, due: due, done: make(chan struct{})}
	if kind == opPost {
		c.mu.Lock()
		if c.dead.Load() {
			close(r.done)
		} else {
			c.pending[r.op] = r
		}
		c.mu.Unlock()
	}
	return r
}

// resolveFailed drops a submission that was never accepted.
func (c *child) resolveFailed(r *opRec) {
	c.mu.Lock()
	_, waiting := c.pending[r.op]
	delete(c.pending, r.op)
	c.mu.Unlock()
	if waiting {
		close(r.done)
	}
}

// do sends one operation; pick chooses the read target.
func (c *child) do(r *opRec, pick uint64) {
	if c.dead.Load() {
		c.resolveFailed(r)
		return
	}
	var req *http.Request
	var err error
	switch r.kind {
	case opPost:
		body, _ := json.Marshal(map[string]any{ // a map of plain values always marshals
			"tenant": r.job.Tenant, "kind": "bench", "tasks": r.job.Tasks, "rounds": r.job.Rounds,
		})
		req, err = http.NewRequest(http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
		if err == nil {
			req.Header.Set(benchOpHeader, strconv.FormatUint(r.op, 10))
		}
	case opReadJob:
		req, err = http.NewRequest(http.MethodGet, c.base+"/jobs/"+strconv.FormatInt(c.pickJob(pick, false), 10), nil)
	case opReadTrace:
		req, err = http.NewRequest(http.MethodGet, c.base+"/trace/"+strconv.FormatInt(c.pickJob(pick, true), 10), nil)
	}
	if err != nil {
		r.err = err
		c.resolveFailed(r)
		return
	}
	r.sent = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		r.err = err
		c.resolveFailed(r)
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.replied = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
	}
	switch {
	case r.kind == opPost && r.accepted():
		var sr struct {
			ID int64 `json:"id"`
		}
		if err := json.Unmarshal(b, &sr); err != nil {
			r.err = err
		}
		c.mu.Lock()
		c.accepted = append(c.accepted, sr.ID)
		c.mu.Unlock()
	case r.kind == opPost:
		c.resolveFailed(r)
	case r.kind == opReadJob && r.status == http.StatusOK:
		var info struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &info); err != nil || (info.State != "queued" && info.State != "running" && info.State != "done") {
			r.err = fmt.Errorf("job read returned %q", b)
		}
	}
}

// serveReadWindow is how many of the latest accepted jobs a job read
// picks from: well inside the service's retention of finished jobs
// (4096), so a read never asks for a job the service has retired.
const serveReadWindow = 1024

// pickJob selects a read target: a recently accepted job, or for trace
// reads a recently retained one when there is any.
func (c *child) pickJob(pick uint64, trace bool) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if trace && len(c.retained) > 0 {
		recent := c.retained[max(0, len(c.retained)-32):]
		return recent[pick%uint64(len(recent))]
	}
	if len(c.accepted) == 0 {
		return 1
	}
	recent := c.accepted[max(0, len(c.accepted)-serveReadWindow):]
	return recent[pick%uint64(len(recent))]
}

// waitAll waits until every submission in recs is resolved or the child
// is gone.
func (c *child) waitAll(recs []*opRec) {
	limit := time.After(serveWaitLimit)
	for _, r := range recs {
		if r.kind != opPost {
			continue
		}
		select {
		case <-r.done:
		case <-c.exited:
		case <-limit:
			return
		}
	}
}

// closedLoop runs serveClients clients until deadline, each submitting
// its next job once the previous one finished.
func (c *child) closedLoop(gen *jobGen, phase string, deadline time.Time, jobs int) []*opRec {
	var mu sync.Mutex
	var recs []*opRec
	var wg sync.WaitGroup
	var issued atomic.Int64
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !c.dead.Load() {
				if jobs > 0 && issued.Add(1) > int64(jobs) {
					return
				}
				if jobs == 0 && !time.Now().Before(deadline) {
					return
				}
				mu.Lock()
				spec := gen.next()
				mu.Unlock()
				r := c.newOp(opPost, spec, phase, time.Now())
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
				c.do(r, 0)
				select {
				case <-r.done:
				case <-c.exited:
					return
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// setupServe starts a child and warms it up with a short closed loop; the
// warm-up jobs' operations are returned for the correctness tallies.
func setupServe(o runOpts, workers int, dir string) (*child, []*opRec, error) {
	c, err := startChild(o, workers, dir)
	if err != nil {
		return nil, nil, err
	}
	warm := c.closedLoop(newJobGen(o.Seed, "serve/warmup"), "warmup", time.Time{}, serveWarmupJobs)
	return c, warm, nil
}

// runServe runs the served workload on a child started with workers (see
// startChild).
func runServe(o runOpts, workers int) (*runResult, error) {
	var setups []float64
	var c *child
	var warm []*opRec
	for i := 0; i < o.Reps; i++ {
		if c != nil {
			c.stop()
		}
		// A fresh directory per child: a journal left by an earlier child
		// would be recovered into this one.
		dir, err := os.MkdirTemp(o.Dir, "serve-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if c, warm, err = setupServe(o, workers, dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := newRunResult(max(4, workers+1))
	if !c.dead.Load() {
		if resp, err := c.client.Post(c.base+"/bench/mark", "", nil); err == nil {
			resp.Body.Close()
		}
	}

	// Open phase.
	openDur := time.Duration(float64(o.Seconds) * serveOpenShare)
	schedule := serveSchedule(o.Seed, openDur)
	openRecs := make([]*opRec, len(schedule))
	late := make([]float64, len(schedule))
	start := time.Now()
	epoch := start
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(schedule) {
					return
				}
				op := schedule[k]
				due := start.Add(op.Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := c.newOp(op.Kind, op.Job, "open", due)
				openRecs[k] = r
				late[k] = ms(time.Since(due))
				c.do(r, op.Pick)
			}
		}()
	}
	wg.Wait()
	openEnd := time.Now()
	c.waitAll(openRecs)

	// Closed phase.
	closedStart := time.Now()
	closedDur := o.Seconds - openDur
	closedEnd := closedStart.Add(closedDur)
	closedRecs := c.closedLoop(newJobGen(o.Seed, "serve/closed-mix"), "closed", closedEnd, 0)
	c.waitAll(closedRecs)
	end := time.Now()
	st := c.stop()
	if st != nil {
		res.E2E.set("peak_rss_mb", st.PeakRSSMB, "MB", 1)
	} else {
		res.E2E.set("peak_rss_mb", math.Float64frombits(c.peakRSS.Load()), "MB", 1)
	}
	if c.dead.Load() && c.waitErr != nil {
		res.Crash = c.crash.lines()
		res.check(false, "serve child died %.1fs into the measured phases: %v", c.diedAt.Sub(start).Seconds(), c.waitErr)
		res.Notes["child_died_after_s"] = c.diedAt.Sub(start).Seconds()
	}

	// Failed or unsent operations count as missing every latency limit:
	// their latency is the time from due until the phase ended.
	var jobLat, submitLat, readLat, traceLat, launchMS, queueMS, bodyMS, finishMS []float64
	var issueNS, verifyNS, fenceNS, points, launches, bodies int64
	tally := map[string]int64{}
	all := append(append(append([]*opRec(nil), warm...), openRecs...), closedRecs...)
	// A completion arriving after waitAll gave up writes its record under
	// c.mu; read them under it too.
	c.mu.Lock()
	defer c.mu.Unlock()
	reasons := map[string]int{}
	for _, r := range all {
		res.Attempted++
		if why := r.failure(); why != "" {
			res.Failed++
			reasons[why]++
		}
		if r.accepted() && r.finished && r.msg.State == "done" {
			tally[r.job.Tenant]++
		}
		if r.phase == "warmup" {
			continue
		}
		if r.kind == opPost && r.accepted() && r.finished {
			m := r.msg
			queueMS = append(queueMS, float64(m.Start-m.Ack)/1e6)
			bodyMS = append(bodyMS, float64(m.BodyEnd-m.Start)/1e6)
			finishMS = append(finishMS, float64(m.End-m.BodyEnd)/1e6)
			issueNS += m.IssueNS
			verifyNS += m.VerifyNS
			fenceNS += m.Fence[1] - m.Fence[0]
			for _, l := range m.Launches {
				launchMS = append(launchMS, float64(l[1]-l[0])/1e6)
			}
			points += int64(m.Points)
			launches += int64(r.job.Rounds)
			bodies++
		}
		if r.phase != "open" {
			continue
		}
		lat := ms(openEnd.Sub(r.due))
		if r.ok() {
			switch r.kind {
			case opPost:
				lat = ms(r.recv.Sub(r.due))
			default:
				lat = ms(r.replied.Sub(r.due))
			}
		}
		switch r.kind {
		case opPost:
			jobLat = append(jobLat, lat)
			if !r.replied.IsZero() {
				submitLat = append(submitLat, ms(r.replied.Sub(r.sent)))
			}
		case opReadJob:
			readLat = append(readLat, lat)
		case opReadTrace:
			readLat = append(readLat, lat)
			traceLat = append(traceLat, lat)
		}
	}

	// Correctness: every accepted job reached done (counted above), and the
	// scheduler's per-tenant counts match what the clients saw.
	if st == nil {
		res.check(false, "serve: no scheduler counts (child gone)")
	} else {
		for _, ts := range st.Tenants {
			if ts.Completed != tally[ts.Tenant] || ts.Failed != 0 {
				res.check(false, "serve: tenant %s: scheduler counts %d completed / %d failed, clients saw %d done",
					ts.Tenant, ts.Completed, ts.Failed, tally[ts.Tenant])
				res.Failed += abs64(ts.Completed-tally[ts.Tenant]) + ts.Failed
			}
			delete(tally, ts.Tenant)
		}
		for t, n := range tally {
			res.check(false, "serve: tenant %s missing from scheduler status (%d jobs done)", t, n)
		}
	}

	// Closed-phase throughput: jobs finished inside the phase window, and
	// points finished in each whole window of burstLen (or of the phase,
	// when shorter). As in circuit and cluster, tasks_per_s is the median
	// of the windows' rates.
	var closedJobs float64
	window := min(burstLen, closedDur)
	windowPoints := make([]float64, int(closedDur/window))
	for _, r := range closedRecs {
		if r.ok() && !r.recv.After(closedEnd) {
			closedJobs++
			if w := int(r.recv.Sub(closedStart) / window); w < len(windowPoints) {
				windowPoints[w] += float64(r.job.points())
			}
		}
	}
	rates := make([]float64, len(windowPoints))
	for i, p := range windowPoints {
		rates[i] = p / window.Seconds()
	}
	res.Notes["window_tasks_per_s"] = rates
	E := res.E2E
	E.set("setup_s", median(setups), "s", len(setups))
	E.set("tasks_per_s", median(rates), "1/s", len(rates))
	E.set("jobs_per_s", closedJobs/closedDur.Seconds(), "1/s", int(closedJobs))
	E.pct("launch_ms_p50", launchMS, 0.50, "ms")
	E.pct("job_ms_p50", jobLat, 0.50, "ms")
	E.pct("job_ms_p99", jobLat, 0.99, "ms")
	E.pct("submit_ms_p99", submitLat, 0.99, "ms")
	E.pct("read_ms_p99", readLat, 0.99, "ms")
	E.set("error_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", int(res.Attempted))

	L := res.Layers
	fpoints := float64(points)
	L.set("rt.issue_us_per_point", ratio(float64(issueNS)/1e3, fpoints), "us", int(bodies))
	L.set("rt.fence_ms", ratio(float64(fenceNS)/1e6, float64(bodies)), "ms", int(bodies))
	L.set("safety.verify_us_per_launch", ratio(float64(verifyNS)/1e3, float64(launches)), "us", int(launches))
	L.pct("sched.queue_ms_p50", queueMS, 0.50, "ms")
	L.pct("sched.queue_ms_p99", queueMS, 0.99, "ms")
	L.pct("sched.body_ms_p50", bodyMS, 0.50, "ms")
	L.pct("sched.finish_ms_p50", finishMS, 0.50, "ms")
	L.pct("sched.finish_ms_p99", finishMS, 0.99, "ms")
	L.pct("trace.query_ms_p99", traceLat, 0.99, "ms")
	L.pct("loadgen.late_ms_p99", late, 0.99, "ms")
	if p99, err := percentile(late, 0.99); err == nil {
		// A late generator invalidates the open-loop latencies (job_ms_*,
		// submit_ms_p99, read_ms_p99), not the service's outputs, so it is
		// flagged rather than failed.
		behind := p99 > serveLateLimitMS
		if behind {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"the load generator sent %.1f ms late at p99 (limit %d ms), so the open-loop latencies are invalid", p99, serveLateLimitMS))
		}
		res.Notes["loadgen_behind_schedule"] = behind
	}
	res.Notes["open_ops"] = len(schedule)
	res.Notes["failures_by_reason"] = reasons
	res.Notes["closed_jobs"] = closedJobs
	if st != nil && st.Mark != nil {
		d := func(name string) float64 { return st.End[name] - st.Mark[name] }
		tasks := d("idx_tasks_executed_total")
		L.set("rt.version_queries_per_point", ratio(d("idx_version_queries_total"), tasks), "count", 1)
		L.set("rt.dep_edges_per_point", ratio(d("idx_dep_edges_total"), tasks), "count", 1)
		L.set("rt.allocs_per_point", ratio(float64(st.Mallocs), tasks), "count", 1)
		L.set("rt.alloc_bytes_per_point", ratio(float64(st.Bytes), tasks), "B", 1)
		for _, stage := range stageMetricStages {
			L.set("rt.stage_"+stage+"_ns_per_point",
				ratio(d(`idx_stage_latency_ns{stage="`+stage+`"}_sum`), tasks), "ns", 1)
		}
		L.set("wal.appends_per_job", ratio(d("wal_appends_total"), float64(bodies)), "count", 1)
		L.set("wal.fsyncs_per_s", ratio(d("wal_fsyncs_total"), st.WindowS), "1/s", 1)
		var retained float64
		for name := range st.End {
			if strings.HasPrefix(name, "trace_retained_total{") {
				retained += d(name)
			}
		}
		L.set("trace.retained_per_1k_jobs", 1000*ratio(retained, d("trace_finished_total")), "count", 1)
		sends := d("xport_sends_total")
		L.set("xport.sends_per_launch", ratio(sends, d("idx_launch_calls_total")), "count", 1)
		L.set("xport.retransmits_per_1k_sends", 1000*ratio(d("xport_retransmits_total"), sends), "count", 1)
		if workers > 0 {
			remote, frames := d("bench_remote_points"), d("bench_wire_frames")
			L.set("wire.frames_per_remote_point", ratio(frames, remote), "count", 1)
			L.set("wire.bytes_per_remote_point", ratio(d("bench_wire_bytes"), remote), "B", 1)
			L.set("wire.retransmits_per_1k_frames", 1000*ratio(d("bench_wire_retransmits"), frames), "count", 1)
		}
	}

	if o.Traced {
		sp := newSpanRecorder(epoch)
		for _, r := range append(openRecs, closedRecs...) {
			if r != nil && !r.sent.IsZero() {
				serveSpans(sp, r)
			}
		}
		res.spans, res.dropped = sp.snapshot()
	}
	res.wallNS = end.Sub(start).Nanoseconds()
	return res, nil
}

// serveSpans turns one operation's timestamps into its span tree.
func serveSpans(sp *spanRecorder, r *opRec) {
	if r.kind != opPost {
		name := "http.read"
		if r.kind == opReadTrace {
			name = "trace.query"
		}
		if !r.replied.IsZero() {
			sp.add(0, 0, r.op, name, 0, r.sent, r.replied)
		}
		return
	}
	endAt := r.replied
	if r.finished {
		endAt = r.recv
	}
	if endAt.IsZero() {
		return
	}
	root := sp.newID()
	sp.add(root, 0, r.op, "bench.job", 0, r.due, endAt)
	sp.add(0, root, r.op, "http.submit", 0, r.sent, r.replied)
	if !r.finished || r.msg.Start == 0 {
		return
	}
	m := r.msg
	t := func(ns int64) time.Time { return time.Unix(0, ns) }
	sp.add(0, root, r.op, "sched.queue", 1, t(m.Ack), t(m.Start))
	body := sp.newID()
	sp.add(body, root, r.op, "sched.body", 1, t(m.Start), t(m.BodyEnd))
	for _, l := range m.Launches {
		sp.add(0, body, r.op, "rt.issue", 1, t(l[0]), t(l[1]))
	}
	sp.add(0, body, r.op, "rt.fence", 1, t(m.Fence[0]), t(m.Fence[1]))
	sp.add(0, root, r.op, "sched.finish", 1, t(m.BodyEnd), t(m.End))
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
