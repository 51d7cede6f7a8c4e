package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// runTraced is one -trace 1 run. Against the real server it makes a
// single-client traced pass over the first requests of the stream
// (client.* spans, and the request list the in-process replay reuses),
// then an untraced two-client closed window (the wire and /proc numbers),
// one that flips tracing on and off (the tracing overhead), and a paced
// phase (generator lateness).
// With the server stopped it replays the recorded requests in-process
// against the layers' public functions (replay.go). It reports the
// per-layer metrics and writes every span to bench/out/trace-<w>.jsonl.
func runTraced(ctx context.Context, e *env, w *workload, sc scale, seed int64) (*result, error) {
	n := w.n
	if sc.n > 0 {
		n = sc.n
	}
	f, err := setUp(ctx, e, w, n, 1)
	if err != nil {
		return nil, err
	}
	defer f.close()
	workers := newWorkers(w, f, seed)
	defer func() {
		for _, wk := range workers {
			wk.c.close()
		}
	}()
	pid := f.srv.cmd.Process.Pid
	epoch := time.Now()
	var drv *churnDriver
	if w.churn {
		drv = &churnDriver{every: sc.mutationEvery}
	}

	// Single-client pass: the server is fresh, so the in-process replay
	// below starts from the same state and sees the same cold-to-warm
	// cache trajectory. It doubles as the warm-up of the windows after it.
	count := w.tracedReqs / max(sc.tracedShrink, 1)
	first := workers[0]
	first.tr = newTracer(epoch, 1)
	first.churn = drv
	log := make([]request, 0, count+count/8)
	first.log = &log
	for i := 0; i < count; i++ {
		// Ten mutations spread over the pass: the list is replayed by
		// position, not by clock, so the cadence is a request count.
		if drv != nil && i%(count/10) == count/10-1 {
			first.mutate()
		}
		r := first.gen.next()
		first.issue(&r, time.Time{})
	}
	first.recheck()
	passTracer := first.tr
	first.tr, first.log, first.churn = nil, nil, nil
	loopback := spansByKind(passTracer, "client.roundtrip", log)

	// An untraced closed window gives the wire and /proc numbers; the one
	// after it flips tracing on and off every few hundred requests inside
	// each client, so both modes sample the same machine noise and the
	// rate gap between them is the tracing overhead.
	half := sc
	half.measure /= 2
	closedDur, pacedDur, closedWin, pacedWin, rate := w.windows(half)
	if drv != nil {
		drv.due = time.Now().Add(drv.every)
		workers[1].churn = drv
	}
	before := tallyOf(workers)
	cpu, err := measureCPU(pid, func() { closedLoop(workers, closedDur) })
	if err != nil {
		return nil, err
	}
	plainReqs := summarize(workers, closedWin, closedDur, nil).requests
	after := tallyOf(workers)
	tracers := []*tracer{passTracer, newTracer(epoch, 2), newTracer(epoch, 3)}
	overhead := toggledLoop(workers, tracers[1:], closedDur)

	pacedBefore := tallyOf(workers)
	pacedLoop(workers, rate, pacedDur)
	paced := summarize(workers, pacedWin, pacedDur, nil)
	t := tallyOf(workers)
	select {
	case <-f.srv.exited:
		return nil, fmt.Errorf("ringsrv exited during the run (%v); see %s", f.srv.waitErr, filepath.Join(e.out, w.name+".log"))
	default:
	}
	env := runEnv(f.srv)
	f.srv.stop() // the in-process passes get the machine to themselves

	m := map[string]float64{
		"ringsrv.req_bytes_per_answer":  ratio(float64(after.sent-before.sent), float64(after.answers-before.answers)),
		"ringsrv.resp_bytes_per_answer": ratio(float64(after.recv-before.recv), float64(after.answers-before.answers)),
		"ringsrv.cpu_user_us_per_req":   ratio(float64(cpu.srvUser/time.Microsecond), float64(plainReqs)),
		"ringsrv.cpu_sys_us_per_req":    ratio(float64(cpu.srvSys/time.Microsecond), float64(plainReqs)),
		"ringsrv.mutation.p50_ms":       medianDur(t.mutLat, time.Millisecond),
		"ringsrv.mutation.max_ms":       quantileDur(t.mutLat, 1, time.Millisecond),
		"ringsrv.publish.p50_us":        medianDur(t.pubLat, time.Microsecond),
		"ringsrv.shed_total":            float64(t.shed),
		"ringsrv.tolerated_races":       float64(t.tolerated),
		"ringsrv.paced_p50_us":          best(paced.p50us, false),
		"ringsrv.paced_p99_us":          best(paced.p99us, false),
		"ringsrv.rss_boot_mb":           f.rssBoot,
		"ringsrv.hydrate_s":             f.hydrate.Seconds(),
		"oracle.cache.hit_ratio":        ratio(float64(after.cacheHits-before.cacheHits), float64(after.cacheSeen-before.cacheSeen)),
		"bench.cpu_us_per_req":          ratio(float64(cpu.self/time.Microsecond), float64(plainReqs)),
		"bench.paced_late_frac":         ratio(float64(t.late-pacedBefore.late), float64(t.attempted-pacedBefore.attempted)),
		"bench.trace_overhead_frac":     overhead,
		"bench.build_s":                 e.buildTime.Seconds(),
	}

	rp := &replayer{w: w, n: n, tr: newTracer(epoch, 4), m: m, tmp: f.tmp}
	if err := rp.run(log); err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	// A server-side share is the gap between the medians of two passes
	// over the same inputs: the loopback round trip and the in-process
	// call. (The spans that would split it live inside ringsrv.)
	selfUs := func(k kind) float64 {
		if len(loopback[k]) == 0 || len(rp.byKind[k]) == 0 {
			return 0
		}
		return medianDur(loopback[k], time.Microsecond) - medianDur(rp.byKind[k], time.Microsecond)
	}
	m["ringsrv.estimate.self_us"] = selfUs(kEstimate)
	m["ringsrv.nearest.self_us"] = selfUs(kNearest)
	m["ringsrv.route.self_us"] = selfUs(kRoute)
	m["ringsrv.lookup.self_us"] = selfUs(kLookup)
	m["ringsrv.batch.self_us_per_pair"] = ratio(selfUs(kBatch), float64(w.batchPairs))
	m["bench.fail_frac"] = ratio(float64(t.failed+rp.failed), float64(t.attempted+len(log)))

	tracers = append(tracers, rp.tr)
	if err := writeTrace(filepath.Join(e.out, "trace-"+w.name+".jsonl"), tracers...); err != nil {
		return nil, err
	}
	return &result{
		Workload:  w.name,
		Seed:      seed,
		Trace:     true,
		Correct:   t.failed+rp.failed == 0 && plainReqs > 0,
		Attempted: t.attempted + len(log),
		Failed:    t.failed + rp.failed,
		Metrics:   m,
		Env:       env,
		Failures:  append(t.failures, rp.failures...),
	}, nil
}

// spansByKind groups the durations of the spans called name by the kind
// of the request they belong to. The tracer's requests are numbered in
// log order (the low bits of a request id are the client's sequence).
func spansByKind(t *tracer, name string, log []request) [numKinds][]time.Duration {
	var out [numKinds][]time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		k := log[s.Request&(1<<40-1)-1].kind
		out[k] = append(out[k], time.Duration(s.EndNs-s.StartNs))
	}
	return out
}

// toggleEvery is how many requests a client sends in one tracing mode
// before it flips to the other.
const toggleEvery = 256

// toggledLoop is a closed loop in which every client alternates between
// traced and untraced stretches of toggleEvery requests, timing each
// stretch as a whole (request, verification and span bookkeeping). It
// returns the tracing overhead: 1 - traced rate / untraced rate.
func toggledLoop(workers []*worker, tracers []*tracer, dur time.Duration) float64 {
	var (
		mu   sync.Mutex
		reqs [2]int
		busy [2]time.Duration
		wg   sync.WaitGroup
	)
	end := time.Now().Add(dur)
	for i, wk := range workers {
		wg.Add(1)
		go func(wk *worker, tr *tracer) {
			defer wg.Done()
			var n [2]int
			var t [2]time.Duration
			lap := time.Now()
			for sent := 0; lap.Before(end); sent++ {
				mode := sent / toggleEvery % 2
				wk.tr = nil
				if mode == 1 {
					wk.tr = tr
				}
				if wk.mutateIfDue() {
					lap = time.Now() // a commit is not a traced-vs-untraced difference
				}
				r := wk.gen.next()
				wk.issue(&r, time.Time{})
				now := time.Now()
				n[mode]++
				t[mode] += now.Sub(lap)
				lap = now
			}
			wk.tr = nil
			wk.samples = wk.samples[:0]
			mu.Lock()
			for mode := range n {
				reqs[mode] += n[mode]
				busy[mode] += t[mode]
			}
			mu.Unlock()
		}(wk, tracers[i])
	}
	wg.Wait()
	recheckAll(workers)
	return 1 - ratio(ratio(float64(reqs[1]), busy[1].Seconds()), ratio(float64(reqs[0]), busy[0].Seconds()))
}
