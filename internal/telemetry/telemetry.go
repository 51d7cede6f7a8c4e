// Package telemetry is the zero-allocation metrics substrate of the
// serving stack: a registry of atomic counters, gauges and fixed-bucket
// log2 histograms, with Prometheus text-format exposition and a
// lock-free ring buffer for sampled query traces.
//
// Design constraints, in order:
//
//  1. Recording must be allocation-free and lock-free. The flat batch
//     path (oracle.Engine.EstimateBatchInto) asserts exactly 0 allocs/op
//     in its unit test, and every counter increment or histogram observe
//     it performs rides that assertion. Counters are single atomics;
//     histograms stripe their cells across slots chosen by a
//     stack-address hash so concurrent writers on different cores do
//     not bounce one cache line.
//  2. Registration happens at construction time, never on the hot path.
//     Labeled families preallocate one child per label value at
//     registration; With is a read-only map lookup returning a stable
//     pointer callers are expected to capture once.
//  3. Exposition is a cold path. WriteText walks the registry under its
//     mutex, sorts by name, and emits the Prometheus text format; it
//     allocates freely.
//
// A process-wide Default registry exists for instrumentation points that
// have no owning object (snapshot persist/open timings fire before any
// engine exists). Objects with a lifecycle — engines, fleets, churn
// mutators — own private registries so several instances never collide;
// cmd/ringsrv assembles them into one /metrics page with per-shard name
// prefixes.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//ringvet:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay a valid
// Prometheus counter; this is not enforced on the hot path).
//
//ringvet:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//ringvet:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// metricKind discriminates registry entries for exposition and for
// duplicate-registration checks.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFamily
	kindGaugeFamily
	kindHistogramFamily
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFamily:
		return "counter"
	case kindGauge, kindGaugeFamily:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric (scalar or family).
type entry struct {
	name string
	help string
	kind metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	// family fields: label key plus one child per preregistered value,
	// parallel slices in registration order.
	label    string
	values   []string
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
}

// Registry holds named metrics. Registration methods are get-or-create:
// asking for an existing name with the same kind returns the existing
// metric (so package-level instrumentation can register into Default
// from several call sites); a kind mismatch panics — it is always a
// programming error caught by the first test that touches the path.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	ordered []*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry for instrumentation points with
// no owning object (snapshot persist/open timings, build info).
var Default = NewRegistry()

func (r *Registry) lookup(name string, kind metricKind) *entry {
	e, ok := r.entries[name]
	if !ok {
		return nil
	}
	if e.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q already registered as %s", name, e.kind))
	}
	return e
}

func (r *Registry) add(e *entry) {
	r.entries[e.name] = e
	r.ordered = append(r.ordered, e)
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindCounter); e != nil {
		return e.counter
	}
	e := &entry{name: name, help: help, kind: kindCounter, counter: &Counter{}}
	r.add(e)
	return e.counter
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindGauge); e != nil {
		return e.gauge
	}
	e := &entry{name: name, help: help, kind: kindGauge, gauge: &Gauge{}}
	r.add(e)
	return e.gauge
}

// Histogram registers (or returns) the named histogram with log2 buckets
// spanning [2^minExp, 2^maxExp] (see NewHistogram).
func (r *Registry) Histogram(name, help string, minExp, maxExp int) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.lookup(name, kindHistogram); e != nil {
		return e.hist
	}
	e := &entry{name: name, help: help, kind: kindHistogram, hist: NewHistogram(minExp, maxExp)}
	r.add(e)
	return e.hist
}

// CounterFamily registers a counter family with one preallocated child
// per label value.
func (r *Registry) CounterFamily(name, help, label string, values ...string) *CounterFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindCounterFamily)
	if e == nil {
		e = &entry{name: name, help: help, kind: kindCounterFamily, label: label}
		for _, v := range values {
			e.values = append(e.values, v)
			e.counters = append(e.counters, &Counter{})
		}
		r.add(e)
	}
	f := &CounterFamily{index: make(map[string]*Counter, len(e.values))}
	for i, v := range e.values {
		f.index[v] = e.counters[i]
	}
	return f
}

// GaugeFamily registers a gauge family with one preallocated child per
// label value.
func (r *Registry) GaugeFamily(name, help, label string, values ...string) *GaugeFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindGaugeFamily)
	if e == nil {
		e = &entry{name: name, help: help, kind: kindGaugeFamily, label: label}
		for _, v := range values {
			e.values = append(e.values, v)
			e.gauges = append(e.gauges, &Gauge{})
		}
		r.add(e)
	}
	f := &GaugeFamily{index: make(map[string]*Gauge, len(e.values))}
	for i, v := range e.values {
		f.index[v] = e.gauges[i]
	}
	return f
}

// HistogramFamily registers a histogram family with one preallocated
// child per label value, all sharing the same bucket layout.
func (r *Registry) HistogramFamily(name, help string, minExp, maxExp int, label string, values ...string) *HistogramFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.lookup(name, kindHistogramFamily)
	if e == nil {
		e = &entry{name: name, help: help, kind: kindHistogramFamily, label: label}
		for _, v := range values {
			e.values = append(e.values, v)
			e.hists = append(e.hists, NewHistogram(minExp, maxExp))
		}
		r.add(e)
	}
	f := &HistogramFamily{index: make(map[string]*Histogram, len(e.values))}
	for i, v := range e.values {
		f.index[v] = e.hists[i]
	}
	return f
}

// CounterFamily indexes a family's preallocated children by label value.
type CounterFamily struct {
	index map[string]*Counter
}

// With returns the child for the given label value; it panics on a value
// that was not preregistered (families never grow on the hot path).
func (f *CounterFamily) With(value string) *Counter {
	c, ok := f.index[value]
	if !ok {
		panic(fmt.Sprintf("telemetry: counter family has no child %q", value))
	}
	return c
}

// GaugeFamily indexes a family's preallocated children by label value.
type GaugeFamily struct {
	index map[string]*Gauge
}

// With returns the child for the given label value (panics when not
// preregistered).
func (f *GaugeFamily) With(value string) *Gauge {
	g, ok := f.index[value]
	if !ok {
		panic(fmt.Sprintf("telemetry: gauge family has no child %q", value))
	}
	return g
}

// HistogramFamily indexes a family's preallocated children by label
// value.
type HistogramFamily struct {
	index map[string]*Histogram
}

// With returns the child for the given label value (panics when not
// preregistered).
func (f *HistogramFamily) With(value string) *Histogram {
	h, ok := f.index[value]
	if !ok {
		panic(fmt.Sprintf("telemetry: histogram family has no child %q", value))
	}
	return h
}

// snapshot returns the ordered entries sorted by name (exposition
// order); the entry pointers are stable, only the slice is copied.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	out := append([]*entry(nil), r.ordered...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
