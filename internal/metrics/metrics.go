// Package metrics is the run-telemetry layer: a lightweight,
// allocation-conscious registry of atomic instruments (counters, gauges,
// fixed-bucket histograms) plus the per-computation-round RoundStats
// stream that the coloring algorithms emit when a Sink is configured.
//
// The paper's empirical claims are trajectory claims — Algorithm 1
// converges in ≈2Δ computation rounds, Algorithm 2 in ≈4Δ, with the
// pairing probability of Proposition 1 per round — so the unit of
// observation here is the computation round, not the finished run.
// core.Options.Metrics wires a Sink into a run; with a nil sink the
// protocols skip all event logging, so the disabled cost is near zero.
//
// Instruments are safe for concurrent use (the shard engine steps nodes
// on several worker goroutines); RoundStats emission is sequential and
// ordered.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for the counter to stay monotonic).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add shifts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets: one bucket per
// upper bound (observations v <= bound), plus an implicit +Inf bucket.
// All mutation is atomic; the bucket layout is immutable after creation.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds. It panics on an empty or unsorted bound list.
func NewHistogram(bounds ...int64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry for
	// the +Inf bucket.
	Bounds []int64
	Counts []int64
	Sum    int64
	N      int64
}

// Snapshot copies the histogram state. Under concurrent Observe calls
// the copy is per-field atomic, not globally consistent — fine for
// monitoring, which is its job.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		N:      h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a name-indexed collection of instruments. Get-or-create
// lookups are guarded by a mutex; the returned instruments themselves
// are lock-free, so hot paths hold on to the instrument, not the name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // optional # HELP text, see prom.go
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use (later bounds are ignored).
func (r *Registry) Histogram(name string, bounds ...int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistSnapshot
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
