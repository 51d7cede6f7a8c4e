package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// env is what every run of this process shares: where the repository
// is, where outputs go, and the ringsrv binary built from its source.
type env struct {
	root, out, bin string
	buildTime      time.Duration
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out, err := outDir(root)
	if err != nil {
		return nil, err
	}
	bin, took, err := buildServer(ctx, root, out)
	if err != nil {
		return nil, err
	}
	return &env{root: root, out: out, bin: bin, buildTime: took}, nil
}

// result is one run's report: the record -out appends and -compare reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Env records where the numbers came from.
	Env map[string]string `json:"env"`
	// Windows holds the per-window values the closed and paced metrics
	// were taken from (untraced runs), for looking at a run afterwards.
	Windows map[string][]float64 `json:"windows,omitempty"`
	// Failures holds the first few failed operations, for the log.
	Failures []string `json:"failures,omitempty"`
}

func runEnv(srv *server) map[string]string {
	return map[string]string{
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"go":            runtime.Version(),
		"build_version": srv.health.BuildVersion,
		"transport":     "loopback TCP, 2 keep-alive connections, one process",
	}
}

// sample is one timed query: at is its completion time (closed loop) or
// its due time (paced), as an offset from the phase start.
type sample struct {
	at, lat time.Duration
}

// churnDriver is the run's one stream of membership mutations. Whichever
// client issues them (client 1 on the clock, client 0 in the traced
// single-client pass), the operations come from here in order.
type churnDriver struct {
	k     int
	every time.Duration
	due   time.Time
}

// worker is one client connection with its request stream and tallies.
type worker struct {
	id    int
	w     *workload
	c     *client
	gen   *generator
	truth *truth
	// churn is set on the worker that issues mutations in this phase.
	churn *churnDriver
	tr    *tracer
	seq   int64

	samples []sample
	// log, when non-nil, records every request issued (the traced
	// single-client pass replays it in-process afterwards).
	log *[]request

	attempted, failed, tolerated, shed int
	late                               int
	answers                            int64
	stretchSum                         float64
	stretchN                           int
	cacheHits, cacheSeen               int
	mutLat, pubLat                     []time.Duration
	deferred                           []deferredCheck
	failures                           []string

	ans     answer
	stretch []float64
}

// deferredCheck is an answer whose version the tracker had not seen yet.
type deferredCheck struct {
	req request
	ans answer
}

func (wk *worker) fail(format string, args ...any) {
	wk.failed++
	if len(wk.failures) < 5 {
		wk.failures = append(wk.failures, fmt.Sprintf(format, args...))
	}
}

// issue sends one request, timing it from due (or from now when due is
// zero), then settles it off the clock. It returns the latency and
// whether the request produced a verified answer.
func (wk *worker) issue(r *request, due time.Time) (time.Duration, bool) {
	if wk.log != nil {
		*wk.log = append(*wk.log, *r)
	}
	wk.seq++
	reqID := int64(wk.id)<<40 | wk.seq
	root := wk.tr.begin(reqID, 0)
	start := due
	if start.IsZero() {
		start = time.Now()
	}
	wk.ans = answer{batch: wk.ans.batch[:0]}
	err := wk.c.do(r, &wk.ans, wk.tr, reqID, wk.tr.id(root))
	lat := time.Since(start)

	sp := wk.tr.begin(reqID, wk.tr.id(root))
	ok := wk.settle(r, &wk.ans, err, lat)
	wk.tr.end(sp, "client.verify")
	wk.tr.end(root, "client.request")
	return lat, ok
}

// settle classifies and verifies one response after its latency has been
// taken. Everything that is not a verified 200 (or a tolerated churn
// race) is a failed operation.
func (wk *worker) settle(r *request, a *answer, err error, lat time.Duration) bool {
	wk.attempted++
	if err != nil {
		wk.fail("%s: %v", r.kind, err)
		return false
	}
	if a.status != http.StatusOK {
		switch {
		case a.status == http.StatusServiceUnavailable && a.code == "overloaded":
			wk.shed++
			wk.fail("%s: shed (503 overloaded)", r.kind)
		case wk.w.churn && a.status == http.StatusBadRequest && a.code == "out_of_range":
			// An id that raced a shrink swap: counted, not failed.
			wk.tolerated++
		default:
			wk.fail("%s: status %d code %q", r.kind, a.status, a.code)
		}
		return false
	}
	wk.answers += int64(r.answers())
	switch verr := wk.verify(r, a); {
	case errors.Is(verr, errUnknownVersion):
		d := deferredCheck{req: *r, ans: *a}
		d.ans.batch = append([]estimateAns(nil), a.batch...)
		wk.deferred = append(wk.deferred, d)
	case verr != nil:
		wk.fail("%v", verr)
		return false
	}
	switch r.kind {
	case kJoin, kLeave:
		wk.mutLat = append(wk.mutLat, lat)
	case kPublish:
		wk.pubLat = append(wk.pubLat, lat)
	}
	return true
}

// verify checks one 200 answer against the ground truth and folds it
// into the tracker (mutations, moves) and the stretch tally.
func (wk *worker) verify(r *request, a *answer) error {
	switch r.kind {
	case kEstimate:
		s, err := wk.truth.checkEstimate(r.u, r.v, &a.est)
		if err != nil {
			return err
		}
		if s > 0 {
			wk.stretchSum += s
			wk.stretchN++
		}
		if !a.est.Cross {
			wk.cacheSeen++
			if a.est.Cached {
				wk.cacheHits++
			}
		}
	case kBatch:
		var err error
		wk.stretch, err = wk.truth.checkBatch(r, a.batch, wk.stretch[:0])
		if err != nil {
			return err
		}
		for _, s := range wk.stretch {
			wk.stretchSum += s
			wk.stretchN++
		}
	case kNearest:
		return wk.truth.checkNearest(r.u, &a.near)
	case kRoute:
		return wk.truth.checkRoute(r.u, r.v, &a.route)
	case kLookup:
		return wk.truth.checkLookup(r.obj, r.u, &a.look)
	case kPublish, kUnpublish:
		return wk.truth.applyPublish(r.kind, r.obj, r.u, &a.pub)
	case kJoin, kLeave:
		return wk.truth.applyMutation(r.kind, r.u, &a.mut)
	}
	return nil
}

// recheck verifies the answers that were deferred on an unknown version,
// now that every mutation response of the phase has been applied.
func (wk *worker) recheck() {
	for i := range wk.deferred {
		d := &wk.deferred[i]
		if err := wk.verify(&d.req, &d.ans); err != nil {
			wk.fail("%v", err)
		}
	}
	wk.deferred = wk.deferred[:0]
}

// mutateIfDue issues the next churn operation when this worker drives
// mutations and one is due on the clock, and reports whether it did.
func (wk *worker) mutateIfDue() bool {
	if wk.churn == nil || time.Now().Before(wk.churn.due) {
		return false
	}
	wk.mutate()
	wk.churn.due = wk.churn.due.Add(wk.churn.every)
	return true
}

func (wk *worker) mutate() {
	r := wk.gen.nextMutation(wk.churn.k)
	wk.churn.k++
	wk.issue(&r, time.Time{})
}

// closedLoop runs every worker back to back for dur: each sends its next
// request as soon as the previous answer is in.
func closedLoop(workers []*worker, dur time.Duration) {
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for time.Now().Before(end) {
				wk.mutateIfDue()
				r := wk.gen.next()
				if lat, ok := wk.issue(&r, time.Time{}); ok {
					wk.samples = append(wk.samples, sample{at: time.Since(start), lat: lat})
				}
			}
		}(wk)
	}
	wg.Wait()
	recheckAll(workers)
}

// recheckAll settles the deferred checks once every client of a phase
// has stopped, so the last mutation response has reached the tracker.
func recheckAll(workers []*worker) {
	for _, wk := range workers {
		wk.recheck()
	}
}

// pacedDrain is how long past its nominal end the paced phase keeps
// working off a backlog before it gives the remaining requests up.
const pacedDrain = 5 * time.Second

// pacedLoop is the open loop: rate requests per second in total, split
// evenly over the workers' connections on interleaved fixed schedules.
// Each request is timed from the instant it was due, so a stall charges
// every request queued behind it.
func pacedLoop(workers []*worker, rate float64, dur time.Duration) {
	interval := time.Duration(float64(time.Second) * float64(len(workers)) / rate)
	count := int(dur / interval)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			offset := interval * time.Duration(i) / time.Duration(len(workers))
			for k := 0; k < count; k++ {
				due := start.Add(offset + time.Duration(k)*interval)
				sleepUntil(due)
				if time.Since(start) > dur+pacedDrain {
					wk.attempted += count - k
					wk.failed += count - k - 1
					wk.fail("paced phase %v behind schedule: gave up %d requests", time.Since(due).Round(time.Millisecond), count-k)
					break
				}
				wk.mutateIfDue()
				if time.Since(due) > time.Millisecond {
					wk.late++
				}
				r := wk.gen.next()
				if lat, ok := wk.issue(&r, due); ok {
					wk.samples = append(wk.samples, sample{at: due.Sub(start), lat: lat})
				}
			}
		}(i, wk)
	}
	wg.Wait()
	recheckAll(workers)
}

// sleepUntil blocks until t with the kernel's high-resolution timer.
// time.Sleep is not used: the Go runtime parks on epoll with a timeout in
// whole milliseconds, so a sub-millisecond sleep overshoots by up to a
// millisecond, which would be charged to every paced request.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR only makes the request a little early
	}
}

// windowStats holds each non-empty window's rate, p50 and p99 (and request
// count) of one phase. The reported value is the best window's (see
// best), so that a stall costs the windows it hits, not the run.
type windowStats struct {
	perSec, p50us, p99us []float64
	// cpuUs is ringsrv's CPU time per request in each window, when the
	// phase sampled it (cpuAtBoundaries).
	cpuUs    []float64
	requests int
}

// cpuAtBoundaries samples ringsrv's cumulative CPU time (user+system) at
// each of the n+1 window boundaries of a phase starting now, and delivers
// the samples when the phase is over (nil if /proc could not be read).
func cpuAtBoundaries(pid int, window time.Duration, n int) <-chan []time.Duration {
	out := make(chan []time.Duration, 1)
	start := time.Now()
	go func() {
		cum := make([]time.Duration, 0, n+1)
		for i := 0; i <= n; i++ {
			sleepUntil(start.Add(time.Duration(i) * window))
			user, sys, err := procCPU(pid)
			if err != nil {
				out <- nil
				return
			}
			cum = append(cum, user+sys)
		}
		out <- cum
	}()
	return out
}

// summarize splits the workers' samples into windows. cpu, when non-nil,
// holds ringsrv's cumulative CPU time at the window boundaries.
func summarize(workers []*worker, window, dur time.Duration, cpu []time.Duration) windowStats {
	buckets := make([][]float64, int(dur/window))
	var st windowStats
	for _, wk := range workers {
		for _, s := range wk.samples {
			if i := int(s.at / window); s.at >= 0 && i < len(buckets) {
				buckets[i] = append(buckets[i], float64(s.lat)/float64(time.Microsecond))
				st.requests++
			}
		}
		wk.samples = wk.samples[:0]
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		if cpu != nil {
			st.cpuUs = append(st.cpuUs, float64((cpu[i+1]-cpu[i])/time.Microsecond)/float64(len(b)))
		}
		st.perSec = append(st.perSec, float64(len(b))/window.Seconds())
		st.p50us = append(st.p50us, quantile(b, 0.50))
		st.p99us = append(st.p99us, quantile(b, 0.99))
	}
	return st
}

// best is the estimator across the windows of a phase: the highest rate,
// the lowest latency or cost. On a shared box interference is one-sided —
// a neighbour's burst only ever slows a window down — so the best window
// is the closest the run gets to the undisturbed machine, and it repeats
// far better from run to run than the median window does (README,
// "Bounds"). A change that slows the code slows every window, the best
// one included.
func best(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if higher {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// quantile reads the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantileDur is the q-quantile of ds in the given unit.
func quantileDur(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	return quantile(xs, q)
}

func medianDur(ds []time.Duration, unit time.Duration) float64 { return quantileDur(ds, 0.5, unit) }

// fixture is one set-up server with the ground truth that goes with it.
type fixture struct {
	srv     *server
	truth   *truth
	n       int
	setup   time.Duration // median over the set-up repetitions
	hydrate time.Duration
	rssBoot float64
	tmp     string
}

func (f *fixture) close() {
	f.srv.stop()
	os.RemoveAll(f.tmp)
}

// setUp boots the workload's server `repeats` times (a warm-start
// workload first cold-boots once, unmeasured, to write the snapshot file
// it then restarts from), keeps the last boot for the run, and reports
// the median set-up time: exec → first 200 on /healthz, plus fixture
// publishing where the workload has objects.
func setUp(ctx context.Context, e *env, w *workload, n, repeats int) (*fixture, error) {
	tmp, err := os.MkdirTemp(e.out, w.name+"-")
	if err != nil {
		return nil, err
	}
	f := &fixture{n: n, tmp: tmp}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	logPath := filepath.Join(e.out, w.name+".log")
	args := w.serverArgs(n, filepath.Join(tmp, "snap.bin"))
	if w.warm {
		prep, err := startServer(ctx, e.bin, logPath, args)
		if err != nil {
			return nil, fmt.Errorf("cold boot to write the snapshot file: %w", err)
		}
		prep.stop()
	}
	var times []time.Duration
	for i := 0; i < repeats; i++ {
		f.srv.stop()
		if f.srv, err = startServer(ctx, e.bin, logPath, args); err != nil {
			return nil, err
		}
		took := f.srv.bootTime
		if w.fleet {
			start := time.Now()
			if err := publishFixture(f.srv.base, n); err != nil {
				return nil, err
			}
			took += time.Since(start)
		}
		times = append(times, took)
	}
	f.setup = time.Duration(medianDur(times, 1))
	if w.warm {
		// Background hydration must be over before the warm-up, or the
		// measured windows would straddle the swap to the full snapshot.
		if f.hydrate, err = f.srv.waitRouting(ctx); err != nil {
			return nil, err
		}
	}
	if f.rssBoot, err = procStatusMB(f.srv.cmd.Process.Pid, "VmRSS"); err != nil {
		return nil, err
	}
	if f.truth, err = newTruth(w, n); err != nil {
		return nil, err
	}
	if w.fleet {
		for i, reps := range fixtureReplicas(n) {
			f.truth.objs = append(f.truth.objs, objState{cur: reps, moving: i%movingEvery == movingEvery-1})
		}
	}
	ok = true
	return f, nil
}

// publishFixture publishes every object's replicas over HTTP.
func publishFixture(base string, n int) error {
	c := newClient(base)
	defer c.close()
	var ans answer
	for obj, reps := range fixtureReplicas(n) {
		for _, node := range reps {
			r := request{kind: kPublish, obj: obj, u: node}
			if err := c.do(&r, &ans, nil, 0, 0); err != nil {
				return fmt.Errorf("publish fixture: %w", err)
			}
			if ans.status != http.StatusOK {
				return fmt.Errorf("publish fixture %s on node %d: status %d %s", objectName(obj), node, ans.status, ans.code)
			}
		}
	}
	return nil
}

// newWorkers opens two connections with their request streams.
func newWorkers(w *workload, f *fixture, seed int64) []*worker {
	workers := make([]*worker, 2)
	for i := range workers {
		workers[i] = &worker{
			id:    i,
			w:     w,
			c:     newClient(f.srv.base),
			gen:   newGenerator(w, f.truth, f.n, seed, i),
			truth: f.truth,
		}
	}
	return workers
}

// tally sums the workers' counters.
type tally struct {
	attempted, failed, tolerated, shed, late int
	answers, sent, recv                      int64
	stretchSum                               float64
	stretchN, cacheHits, cacheSeen           int
	mutLat, pubLat                           []time.Duration
	failures                                 []string
}

func tallyOf(workers []*worker) tally {
	var t tally
	for _, wk := range workers {
		t.attempted += wk.attempted
		t.failed += wk.failed
		t.tolerated += wk.tolerated
		t.shed += wk.shed
		t.late += wk.late
		t.answers += wk.answers
		t.sent += wk.c.sent.Load()
		t.recv += wk.c.recv.Load()
		t.stretchSum += wk.stretchSum
		t.stretchN += wk.stretchN
		t.cacheHits += wk.cacheHits
		t.cacheSeen += wk.cacheSeen
		t.mutLat = append(t.mutLat, wk.mutLat...)
		t.pubLat = append(t.pubLat, wk.pubLat...)
		t.failures = append(t.failures, wk.failures...)
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuWindow measures ringsrv's and the bench's own CPU over fn.
type cpuWindow struct {
	srvUser, srvSys, self time.Duration
}

func measureCPU(pid int, fn func()) (cpuWindow, error) {
	u0, s0, err := procCPU(pid)
	if err != nil {
		return cpuWindow{}, err
	}
	self0 := selfCPU()
	fn()
	u1, s1, err := procCPU(pid)
	if err != nil {
		return cpuWindow{}, err
	}
	return cpuWindow{srvUser: u1 - u0, srvSys: s1 - s0, self: selfCPU() - self0}, nil
}

// windows resolves the phase lengths of a run: two thirds of the
// measured time closed loop, one third paced, each a whole number of
// windows. A traced run spends the same shares on half the time each;
// the rest goes to its single-client pass and the in-process replay.
func (w *workload) windows(sc scale) (closed, paced, closedWin, pacedWin time.Duration, rate float64) {
	closedWin, pacedWin, rate = w.closedWindow, w.pacedWindow, w.pacedRate
	if sc.window > 0 {
		closedWin, pacedWin = sc.window, sc.window
	}
	if sc.pacedRate > 0 {
		rate = sc.pacedRate
	}
	closed = max(sc.measure*2/3/closedWin, 1) * closedWin
	paced = max(sc.measure/3/pacedWin, 1) * pacedWin
	return
}

// runWorkload is one untraced run: set-up, warm-up, closed loop, paced
// open loop, with every answer verified. It reports the end-to-end
// metrics.
func runWorkload(ctx context.Context, e *env, w *workload, sc scale, seed int64) (*result, error) {
	n := w.n
	if sc.n > 0 {
		n = sc.n
	}
	repeats := sc.setupRepeats
	if w.warm {
		repeats = sc.warmBoots
	}
	f, err := setUp(ctx, e, w, n, repeats)
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
	if w.churn {
		workers[1].churn = &churnDriver{every: sc.mutationEvery, due: time.Now().Add(sc.mutationEvery)}
	}
	closedDur, pacedDur, closedWin, pacedWin, rate := w.windows(sc)
	pid := f.srv.cmd.Process.Pid

	closedLoop(workers, sc.warmup)
	for _, wk := range workers {
		wk.samples = wk.samples[:0]
	}
	cpu := cpuAtBoundaries(pid, closedWin, int(closedDur/closedWin))
	closedLoop(workers, closedDur)
	closed := summarize(workers, closedWin, closedDur, <-cpu)
	pacedLoop(workers, rate, pacedDur)
	paced := summarize(workers, pacedWin, pacedDur, nil)
	rss, err := procStatusMB(pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	select {
	case <-f.srv.exited:
		return nil, fmt.Errorf("ringsrv exited during the run (%v); see %s", f.srv.waitErr, filepath.Join(e.out, w.name+".log"))
	default:
	}

	t := tallyOf(workers)
	res := &result{
		Workload: w.name,
		Seed:     seed,
		Windows: map[string][]float64{
			"req_per_s": closed.perSec, "p50_us": closed.p50us, "p99_us": closed.p99us, "srv_cpu_us_per_req": closed.cpuUs,
			"paced_p50_us": paced.p50us, "paced_p99_us": paced.p99us,
		},
		Correct:   t.failed == 0 && len(closed.cpuUs) > 0 && len(paced.p50us) > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Env:       runEnv(f.srv),
		Failures:  t.failures,
		Metrics: map[string]float64{
			"setup_s":            f.setup.Seconds(),
			"req_per_s":          best(closed.perSec, true),
			"p50_us":             best(closed.p50us, false),
			"p99_us":             best(closed.p99us, false),
			"srv_cpu_us_per_req": best(closed.cpuUs, false),
			"rss_mb":             rss,
			"stretch_mean":       ratio(t.stretchSum, float64(t.stretchN)),
		},
	}
	return res, nil
}
