package shard

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rings/internal/oracle"
	"rings/internal/simnet"
)

// The replica read path (rsCall): every read runs inline, fails over in
// place, and costs what its walk costs.

// quietProber parks the background prober for the length of a test, so
// breaker transitions and link traffic are the reads' alone.
func quietProber(cfg Config) Config {
	cfg.ProbeInterval = time.Hour
	return cfg
}

// waitGoroutines waits for the goroutine count to come back down to
// want: the ones a test's reads or transports started have all exited.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledLinkFailsOverAfterTimeout: a read waits a stalled
// transport out until the transport's own timeout fails the call, then
// fails over in place. With replica 1's request link stalled and the
// rotation starting on it, the read is answered by the in-process twin
// after the timeout and long before the stalled reply is due, counts one
// failover and opens no breaker, and equals the shard snapshot's own
// answer; the late reply is dropped, and nothing is left running at
// Close.
func TestStalledLinkFailsOverAfterTimeout(t *testing.T) {
	const (
		timeout = 50 * time.Millisecond
		stall   = 500 * time.Millisecond
	)
	baseline := runtime.NumGoroutine()
	tr, err := NewSimTransport(2, timeout)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(quietProber(Config{
		Oracle: oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3,
			SkipOverlay: true},
		Shards:   2,
		Replicas: 2,
		Transport: func(s, r int, b Backend) Backend {
			if r != 1 {
				return b
			}
			return tr.Wrap(s, b)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	nodes, snap := f.ShardNodes(0), f.ShardSnapshot(0)
	want, err := snap.Estimate(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	plan := simnet.NewFaultPlan(7)
	plan.SetLink(-1, 0, simnet.LinkFaults{Delay: stall})
	tr.SetFaults(plan)
	rs := f.shards[0].reps
	rs.cursor.Store(0) // the next read starts on replica 1, the stalled one
	before, start := f.Stats(), time.Now()
	got, err := f.Estimate(int(nodes[0]), int(nodes[1]))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lower != want.Lower || got.Upper != want.Upper || got.OK != want.OK || got.Version != want.Version {
		t.Fatalf("failed-over read answered %+v, the shard snapshot %+v", got.EstimateResult, want)
	}
	if elapsed < timeout || elapsed >= stall {
		t.Fatalf("the read took %v, want at least the %v timeout and below the %v stall", elapsed, timeout, stall)
	}
	after := f.Stats()
	if d := after.Failovers - before.Failovers; d != 1 {
		t.Fatalf("failovers +%d, want +1", d)
	}
	if after.BreakerOpens != before.BreakerOpens {
		t.Fatalf("one timeout opened a breaker: %+v -> %+v", before, after)
	}

	// The stalled request is still in flight. It reaches the server after
	// the stall, and the reply is dropped: the caller has long gone, and
	// the next read (which starts on the in-process replica) is answered
	// as if it never was.
	tr.Network().Quiesce()
	if plan.Delayed() != 1 {
		t.Fatalf("%d delayed messages, want the one stalled request", plan.Delayed())
	}
	again, err := f.Estimate(int(nodes[0]), int(nodes[1]))
	if err != nil || again.Lower != want.Lower || again.Upper != want.Upper {
		t.Fatalf("read after the late reply: %+v, %v", again.EstimateResult, err)
	}
	if s := f.Stats(); s.Failovers != after.Failovers || s.BreakerOpens != after.BreakerOpens {
		t.Fatalf("the late reply moved the failover counters: %+v -> %+v", after, s)
	}
	f.Close()
	tr.Close()
	waitGoroutines(t, baseline, "after Close")
}

// flakyBackend is an in-process wrapper whose reads fail as a dead
// transport would while down is set.
type flakyBackend struct {
	Backend
	down *atomic.Bool
}

func (b flakyBackend) unavailable() error {
	if b.down.Load() {
		return fmt.Errorf("flaky: %w", ErrUnavailable)
	}
	return nil
}

func (b flakyBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	if err := b.unavailable(); err != nil {
		return oracle.EstimateResult{}, err
	}
	return b.Backend.Estimate(u, v)
}

func (b flakyBackend) Nearest(target int) (oracle.NearestResult, error) {
	if err := b.unavailable(); err != nil {
		return oracle.NearestResult{}, err
	}
	return b.Backend.Nearest(target)
}

func (b flakyBackend) Route(src, dst int) (oracle.RouteResult, error) {
	if err := b.unavailable(); err != nil {
		return oracle.RouteResult{}, err
	}
	return b.Backend.Route(src, dst)
}

// mixedRead issues the i-th read of a deterministic estimate / nearest /
// route mix over shard s's nodes.
func mixedRead(f *Fleet, nodes []int32, i int) error {
	a, b := int(nodes[i%len(nodes)]), int(nodes[(i*7+3)%len(nodes)])
	var err error
	switch i % 3 {
	case 0:
		_, err = f.Estimate(a, b)
	case 1:
		_, err = f.Nearest(a)
	default:
		_, err = f.Route(a, b)
	}
	return err
}

// TestLocalReplicasAnswerInline: a fleet whose replicas are all
// in-process starts no goroutine for a read; a replica
// that fails as unavailable is failed over in place — every read still
// answered, each failed attempt one failover — until its breaker opens
// at the threshold, after which it is skipped without being tried.
func TestLocalReplicasAnswerInline(t *testing.T) {
	const threshold = 3
	var down atomic.Bool
	f, err := NewFleet(quietProber(Config{
		Oracle:           oracle.Config{Workload: "cube", N: 48, Seed: 9, MemberStride: 4},
		Shards:           4,
		Replicas:         2,
		BreakerThreshold: threshold,
		Transport: func(s, r int, b Backend) Backend {
			if s == 0 && r == 1 {
				return flakyBackend{Backend: b, down: &down}
			}
			return b
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	goroutines := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		if err := mixedRead(f, f.ShardNodes(i%f.K()), i/f.K()); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if st := f.Stats(); st.Failovers != 0 {
		t.Fatalf("healthy in-process fleet: %d failovers, want none", st.Failovers)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines after 10k inline reads, %d before", n, goroutines)
	}

	// Replica (0,1) goes dark without the breaker knowing (a kill trips
	// it first, so no read would reach the gate). Reads on shard 0
	// alternate their first replica: every other one meets the failure.
	down.Store(true)
	nodes := f.ShardNodes(0)
	for i := 0; i < 40; i++ {
		before := f.Stats().Failovers
		if err := mixedRead(f, nodes, i); err != nil {
			t.Fatalf("read %d with (0,1) unavailable: %v", i, err)
		}
		st := f.Stats()
		if d := st.Failovers - before; d < 0 || d > 1 {
			t.Fatalf("read %d counted %d failovers", i, d)
		}
		wantState := "closed"
		if st.Failovers >= threshold {
			wantState = "open"
		}
		if got := f.ReplicaStatuses()[1].State; got != wantState {
			t.Fatalf("after %d failed attempts (threshold %d) the breaker is %s, want %s", st.Failovers, threshold, got, wantState)
		}
	}
	if st := f.Stats(); st.Failovers != threshold || st.BreakerOpens != 1 {
		t.Fatalf("after 40 reads: %d failovers, %d breaker opens; want %d, 1",
			st.Failovers, st.BreakerOpens, threshold)
	}
}

// TestStaleFailureCannotReopenBreaker: a failure is charged to the
// breaker generation it was observed in. Attempts that met the dead
// replica's gate before its restart, and only report after the prober
// has resynced it and closed the breaker, must not open it again.
func TestStaleFailureCannotReopenBreaker(t *testing.T) {
	cfg := fastReplicaKnobs(Config{
		Oracle:   oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3, SkipOverlay: true},
		Shards:   2,
		Replicas: 2,
	})
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs := f.shards[0].reps
	rep := rs.reps[1]
	if err := f.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}

	var seen, done sync.WaitGroup
	release := make(chan struct{})
	want := f.ShardSnapshot(0).Version
	for i := 0; i < cfg.BreakerThreshold; i++ {
		seen.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			_, err := rsTry(rs, rep, want, func(b Backend) (oracle.EstimateResult, int64, error) {
				res, err := b.Estimate(0, 1)
				seen.Done()
				<-release
				return res, res.Version, err
			})
			if !IsUnavailable(err) {
				t.Errorf("attempt against the killed replica: %v, want unavailable", err)
			}
		}()
	}
	seen.Wait()
	if err := f.RestartReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	waitReplica(t, f, 0, 1, "recovered", recovered)
	opens := f.Stats().BreakerOpens

	close(release)
	done.Wait()
	if st := waitReplica(t, f, 0, 1, "observed", func(ReplicaStatus) bool { return true }); st.State != "closed" {
		t.Fatalf("failures from before the restart reopened the breaker: %+v", st)
	}
	if got := f.Stats().BreakerOpens; got != opens {
		t.Fatalf("breaker_opens moved %d -> %d on stale failures", opens, got)
	}
	// A failure observed in the current generation still counts.
	for i := 0; i < cfg.BreakerThreshold; i++ {
		rs.fail(rep, rep.brk.gen.Load())
	}
	if got := f.Stats().BreakerOpens; got != opens+1 {
		t.Fatalf("breaker_opens %d -> %d after %d current failures, want +1", opens, got, cfg.BreakerThreshold)
	}
}

// TestIntraEstimateAllocations pins what one intra-shard Fleet.Estimate
// allocates on a replicated in-process fleet (a cache hit, so the walk is
// not counted).
func TestIntraEstimateAllocations(t *testing.T) {
	f, err := NewFleet(quietProber(Config{
		Oracle:   oracle.Config{Workload: "cube", N: 48, Seed: 9, MemberStride: 4},
		Shards:   4,
		Replicas: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nodes := f.ShardNodes(1)
	u, v := int(nodes[2]), int(nodes[5])
	for i := 0; i < 2; i++ { // both replicas' caches hold the pair
		if _, err := f.Estimate(u, v); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(500, func() {
		if _, err := f.Estimate(u, v); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per intra-shard Fleet.Estimate (R=2): %.1f", got)
	if got > 1 {
		t.Errorf("intra-shard Fleet.Estimate allocates %.1f times, want at most 1", got)
	}
}

// dyingBackend is an in-process wrapper whose next Estimate, once armed,
// runs onCall and then fails as a dead transport would.
type dyingBackend struct {
	Backend
	armed  *atomic.Bool
	onCall func()
}

func (b dyingBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	if b.armed.CompareAndSwap(true, false) {
		b.onCall()
		return oracle.EstimateResult{}, fmt.Errorf("dying: %w", ErrUnavailable)
	}
	return b.Backend.Estimate(u, v)
}

// TestShardDownNeedsASecondLook: a read looks at each replica's breaker
// at its own instant. Here replica 0 is still recovering when the read
// passes it over, and is back in service by the time replica 1 — the only
// one the read tried — fails under it: at every instant one replica was
// serving, so the read must be answered (by a second walk), not refused
// as ErrShardDown. With both replicas really down the verdict stands.
func TestShardDownNeedsASecondLook(t *testing.T) {
	var (
		armed atomic.Bool
		f     *Fleet
	)
	f, err := NewFleet(fastReplicaKnobs(Config{
		Oracle:   oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3, SkipOverlay: true},
		Shards:   2,
		Replicas: 2,
		Transport: func(s, r int, b Backend) Backend {
			if s != 0 || r != 1 {
				return b
			}
			return dyingBackend{Backend: b, armed: &armed, onCall: func() {
				if err := f.RestartReplica(0, 0); err != nil {
					t.Error(err)
				}
				waitReplica(t, f, 0, 0, "recovered", recovered)
			}}
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	nodes := f.ShardNodes(0)
	u, v := int(nodes[0]), int(nodes[1])
	want, err := f.Estimate(u, v)
	if err != nil {
		t.Fatal(err)
	}

	if err := f.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	f.shards[0].reps.cursor.Store(1) // the walk starts on replica 0: passed over, its breaker is open
	got, err := f.Estimate(u, v)
	if err != nil {
		t.Fatalf("replica 0 recovered before replica 1 failed, yet the read was refused: %v", err)
	}
	if got.Lower != want.Lower || got.Upper != want.Upper || got.Version != want.Version {
		t.Fatalf("second look answered %+v, want %+v", got.EstimateResult, want.EstimateResult)
	}

	for r := 0; r < 2; r++ {
		if err := f.KillReplica(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Estimate(u, v); !errors.Is(err, ErrShardDown) {
		t.Fatalf("both replicas killed: %v, want ErrShardDown", err)
	}
}

// TestShardDownSaysShardOnce: every way a fleet read can find a shard
// down — every breaker open, a walk whose replicas all fail — is
// ErrShardDown, on every read
// endpoint, and its text carries the package prefix once: the sentinel's,
// not one per layer that passed the failure along (a batch also names
// which shard, "shard 0: ").
func TestShardDownSaysShardOnce(t *testing.T) {
	// gatesDown fails every call on shard 0 the way a killed replica's
	// gate does, leaving the breakers closed so each replica is tried.
	gatesDown := func(_ *testing.T, f *Fleet) {
		for _, rep := range f.shards[0].reps.reps {
			rep.gate.down.Store(true)
		}
	}
	cases := []struct {
		name   string
		down   func(t *testing.T, f *Fleet)
		detail bool // the last replica's failure follows the sentinel
	}{
		{name: "every breaker open", down: func(t *testing.T, f *Fleet) {
			for r := 0; r < 2; r++ {
				if err := f.KillReplica(0, r); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "inline walk", down: gatesDown, detail: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFleet(quietProber(Config{
				Oracle:           oracle.Config{Workload: "cube", N: 24, Seed: 5, MemberStride: 3},
				Shards:           2,
				Replicas:         2,
				BreakerThreshold: 1 << 20,
			}))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			nodes := f.ShardNodes(0)
			u, v := int(nodes[0]), int(nodes[1])
			tc.down(t, f)
			reads := map[string]func() error{
				"estimate": func() error { _, err := f.Estimate(u, v); return err },
				"batch":    func() error { _, err := f.EstimateBatch([]oracle.Pair{{U: u, V: v}}); return err },
				"nearest":  func() error { _, err := f.Nearest(u); return err },
				"route":    func() error { _, err := f.Route(u, v); return err },
			}
			for name, read := range reads {
				err := read()
				if !errors.Is(err, ErrShardDown) {
					t.Fatalf("%s: %v, want ErrShardDown", name, err)
				}
				text := err.Error()
				if !strings.Contains(text, ErrShardDown.Error()) || strings.Count(text, "shard: ") != 1 {
					t.Errorf("%s: %q, want %q with the prefix said once", name, text, ErrShardDown.Error())
				}
				if tc.detail != strings.Contains(text, "administratively down") {
					t.Errorf("%s: %q, want the last replica's failure as detail: %v", name, text, tc.detail)
				}
			}
		})
	}
}
