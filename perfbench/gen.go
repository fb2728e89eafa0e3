package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"indexlaunch/internal/apps/circuit"
	"indexlaunch/internal/sched"
)

// Every input the benchmark feeds the program is drawn here from --seed:
// the circuit graph, the cluster launch sizes, and the serve arrival
// schedule and job mix. The same seed yields byte-identical inputs; each
// workload draws from its own stream so changing one generator does not
// shift another's inputs.

// rng is splitmix64: tiny, fast and stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	_, _ = h.Write([]byte(stream)) // hash.Hash.Write never fails
	return &rng{s: uint64(seed) ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws uniformly from [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// float draws uniformly from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp draws an exponential variate with the given mean.
func (r *rng) exp(mean float64) float64 { return -mean * math.Log(1-r.float()) }

// Circuit: a fixed size overdecomposed into many small pieces, so the
// runtime's per-point issue and analysis cost dominates the task bodies.
// The seed picks the graph: which nodes the wires join and which wires
// cross pieces.
const (
	circuitPieces        = 1024
	circuitNodesPerPiece = 8
	circuitWiresPerPiece = 16
	circuitCrossFraction = 0.1
)

func circuitParams(seed int64) circuit.Params {
	return circuit.Params{
		Pieces:        circuitPieces,
		NodesPerPiece: circuitNodesPerPiece,
		WiresPerPiece: circuitWiresPerPiece,
		CrossFraction: circuitCrossFraction,
		Seed:          int64(newRNG(seed, "circuit").next() >> 1),
	}
}

// Cluster: region-free launches of seeded size over seeded index ranges,
// so every launch evaluates different points.
const (
	clusterMinPoints = 16
	clusterMaxPoints = 112
)

type clusterLaunch struct {
	Base int64
	Size int
}

type clusterGen struct{ r *rng }

func newClusterGen(seed int64) *clusterGen { return &clusterGen{r: newRNG(seed, "cluster")} }

func (g *clusterGen) next() clusterLaunch {
	size := g.r.intn(clusterMinPoints, clusterMaxPoints)
	return clusterLaunch{Base: int64(g.r.next() % (1 << 40)), Size: size}
}

// expectedSum is what the launch's FutureMap.SumF64 must return: the sum
// of the synthetic body over the launch domain, evaluated sequentially.
func (l clusterLaunch) expectedSum() float64 {
	var s float64
	for x := l.Base; x < l.Base+int64(l.Size); x++ {
		s += math.Float64frombits(binary.LittleEndian.Uint64(sched.SyntheticEval(x)))
	}
	return s
}

// Serve: one open-loop schedule of Poisson arrivals — job submissions plus
// job-state and trace reads beside them — and a job mix for the closed
// loop and warm-up.
const (
	servePostRate      = 300.0 // job submissions per second, open phase
	serveReadJobRate   = 60.0  // GET /jobs/{id} per second
	serveReadTraceRate = 140.0 // GET /trace/{id} per second
	serveMinTasks      = 8
	serveMaxTasks      = 32
	serveMaxRounds     = 3
)

var serveTenants = []string{"a", "b", "c"}

// serveWeights are the fair-share weights of serveTenants.
var serveWeights = map[string]int{"a": 1, "b": 2, "c": 4}

type opKind uint8

const (
	opPost opKind = iota
	opReadJob
	opReadTrace
)

var opKindNames = [...]string{"post", "read_job", "read_trace"}

func (k opKind) String() string { return opKindNames[k] }

// jobSpec is one synthetic job: Rounds index launches of Tasks points.
type jobSpec struct {
	Tenant string
	Tasks  int
	Rounds int
}

func (j jobSpec) points() int { return j.Tasks * j.Rounds }

type jobGen struct{ r *rng }

func newJobGen(seed int64, stream string) *jobGen { return &jobGen{r: newRNG(seed, stream)} }

func (g *jobGen) next() jobSpec {
	return jobSpec{
		Tenant: serveTenants[g.r.intn(0, len(serveTenants)-1)],
		Tasks:  g.r.intn(serveMinTasks, serveMaxTasks),
		Rounds: g.r.intn(1, serveMaxRounds),
	}
}

// serveOp is one scheduled open-loop operation. Pick selects the read
// target among the jobs known when the read is sent.
type serveOp struct {
	Kind opKind
	Due  time.Duration
	Job  jobSpec
	Pick uint64
}

// serveSchedule merges three independent Poisson streams over dur.
func serveSchedule(seed int64, dur time.Duration) []serveOp {
	var ops []serveOp
	stream := func(kind opKind, rate float64) {
		r := newRNG(seed, "serve/"+kind.String())
		jobs := newJobGen(seed, "serve/open-mix")
		meanNS := float64(time.Second) / rate
		for t := time.Duration(r.exp(meanNS)); t < dur; t += time.Duration(r.exp(meanNS)) {
			op := serveOp{Kind: kind, Due: t, Pick: r.next()}
			if kind == opPost {
				op.Job = jobs.next()
			}
			ops = append(ops, op)
		}
	}
	stream(opPost, servePostRate)
	stream(opReadJob, serveReadJobRate)
	stream(opReadTrace, serveReadTraceRate)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}
