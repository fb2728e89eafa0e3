package rt

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/region"
	"indexlaunch/internal/wire"
)

// The executor-pool support surface: TaskNamed lookup, CapacityFactor
// health read-through, and Recycle's reuse contract (quiescent-only reset
// of per-job bookkeeping while registered tasks and config survive).

func TestRecycleBetweenJobs(t *testing.T) {
	r := MustNew(Config{Nodes: 4, ProcsPerNode: 2, IndexLaunches: true})
	defer r.Shutdown()
	id := r.MustRegisterTask("noop", func(ctx *Context) ([]byte, error) {
		return EncodeF64(float64(ctx.Point.X())), nil
	})
	if got, ok := r.TaskNamed("noop"); !ok || got != id {
		t.Fatalf("TaskNamed = %v, %v; want %v, true", got, ok, id)
	}
	if _, ok := r.TaskNamed("missing"); ok {
		t.Fatal("TaskNamed found an unregistered task")
	}
	if f := r.CapacityFactor(); f != 1 {
		t.Fatalf("CapacityFactor = %v on a healthy machine, want 1", f)
	}
	for job := 0; job < 3; job++ {
		launch := core.MustForall("noop", id, domain.Range1(0, 15))
		if _, err := r.ExecuteIndex(launch); err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if err := r.FenceErr(); err != nil {
			t.Fatalf("job %d fence: %v", job, err)
		}
		if err := r.Recycle(); err != nil {
			t.Fatalf("job %d recycle: %v", job, err)
		}
	}
	// Tasks registered before recycling still resolve.
	if _, ok := r.TaskNamed("noop"); !ok {
		t.Fatal("registered task lost across Recycle")
	}
	if st := r.Stats(); st.TasksExecuted != 48 {
		t.Fatalf("TasksExecuted = %d across 3 recycled jobs, want 48", st.TasksExecuted)
	}
}

// Regression test for the transport recycle race: a broadcast used to
// return while hop senders were still retransmitting, and Recycle then
// cleared the delivery state under them, so an orphaned retransmission
// delivered a stale slice into the next job's reassembly. Back-to-back
// chaotic jobs with Recycle between them must see no stray delivery, and
// Shutdown must leave no goroutine behind — the chaos decorator's delayed
// copies included.
func TestChaosRecycleBetweenJobsNoStaleDeliveries(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			before := runtime.NumGoroutine()
			r := MustNew(Config{
				Nodes: 8, ProcsPerNode: 2, IndexLaunches: true, Retransmit: fastRetransmit,
				Chaos: &wire.ChaosPlan{Seed: seed, Drop: 0.2, Dup: 0.3, Reorder: 0.3, DelayMax: 300 * time.Microsecond},
			})
			tree, part := lineSetup(t, 160, 16)
			inc := r.MustRegisterTask("inc", incrementTask)
			const jobs = 12
			for job := 0; job < jobs; job++ {
				if _, err := r.ExecuteIndex(core.MustForall("inc", inc, domain.Range1(0, 15), identityRW(part))); err != nil {
					t.Fatalf("job %d: %v", job, err)
				}
				if err := r.FenceErr(); err != nil {
					t.Fatalf("job %d fence: %v", job, err)
				}
				if err := r.Recycle(); err != nil {
					t.Fatalf("job %d recycle: %v", job, err)
				}
			}
			// Late duplicate copies are still landing; give them time to
			// reach their receivers (and be deduplicated) before counting.
			time.Sleep(20 * time.Millisecond)
			r.Shutdown()
			if strays := registryValue(t, r.Metrics(), "rt_stray_deliveries_total"); strays != 0 {
				t.Errorf("%d deliveries landed outside their broadcast's reassembly", strays)
			}
			if st := r.Stats(); st.MsgRetransmits == 0 || st.MsgDedups == 0 {
				t.Errorf("chaos left the transport idle: %+v", st)
			}
			if sum, err := region.SumF64(tree.Root(), fieldVal); err != nil || sum != jobs*160 {
				t.Errorf("sum = %v (err %v), want %d", sum, err, jobs*160)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after Shutdown, %d before the runtime", n, before)
			}
		})
	}
}
