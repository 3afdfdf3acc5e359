package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. Increments
// commute, so counter values are identical at any worker count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) reset() { c.v.Store(0) }

// FloatCounter accumulates a float64 total (simulated seconds of cost)
// with a lock-free compare-and-swap add. Callers that need bit-for-bit
// reproducible totals must serialize their adds in a fixed order, which
// the pipeline does by charging per-stage costs once per RunSet in sorted
// category order after the deterministic clip-order merge.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v into the counter.
func (f *FloatCounter) Add(v float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

func (f *FloatCounter) reset() { f.bits.Store(0) }

// Gauge holds one instantaneous float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates delta into the gauge with a lock-free compare-and-swap
// (for up/down values like in-flight request counts).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram counts observations into fixed buckets chosen at registration
// time. Bucket increments commute, so histogram snapshots are identical
// at any worker count. Observations never allocate.
type Histogram struct {
	bounds []float64 // sorted upper bounds; counts has len(bounds)+1 slots
	counts []atomic.Int64
	count  atomic.Int64
	sum    FloatCounter
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.reset()
}

// HistogramSnapshot is the serializable state of one histogram. Counts
// has one slot per bucket bound plus a final overflow slot.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// MetricsSnapshot is a point-in-time, JSON-serializable copy of a
// registry's metrics. Map keys serialize in sorted order, so equal
// snapshots produce byte-identical JSON.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Costs      map[string]float64           `json:"costs,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// CostTotal sums the per-stage cost counters in sorted key order —
// the same fold order the cost accountant uses — so a snapshot taken
// after one RunSet reproduces the run's simulated runtime bit-for-bit.
func (s MetricsSnapshot) CostTotal() float64 {
	keys := make([]string, 0, len(s.Costs))
	for k := range s.Costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += s.Costs[k]
	}
	return total
}

// WriteJSON writes the snapshot as indented JSON.
func (s MetricsSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Registry holds named metrics. Registration (Counter, Cost, Gauge,
// Histogram) is get-or-create under a mutex and intended to
// run once per metric at package init; the returned handles record
// lock-free. The zero value is not usable; construct with NewRegistry.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	costs       map[string]*FloatCounter
	gauges      map[string]*Gauge
	gaugeGroups []func() map[string]float64
	hists       map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		costs:    map[string]*FloatCounter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
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

// Cost returns the named float cost counter, creating it on first use.
func (r *Registry) Cost(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.costs[name]
	if !ok {
		f = &FloatCounter{}
		r.costs[name] = f
	}
	return f
}

// Gauge returns the named gauge, creating it on first use.
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

// GaugeGroup registers live gauges computed together, for values owned
// elsewhere: at snapshot time fn runs once and every (name, value) pair it
// returns becomes a gauge. Gauges derived from one state snapshot are
// mutually consistent — e.g. the frame cache's hit count, miss count and
// hit rate, where evaluating each on its own would interleave with
// concurrent updates and could report a rate computed from counts no
// single moment ever had. A group may hold one gauge. fn must be safe to
// call at any time from any goroutine.
func (r *Registry) GaugeGroup(fn func() map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeGroups = append(r.gaugeGroups, fn)
}

// Histogram returns the named histogram, creating it with the given
// sorted bucket upper bounds on first use (bounds of an existing
// histogram are kept).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot copies the registry's current state. Live gauge functions are
// evaluated during the call.
func (r *Registry) Snapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Costs:      make(map[string]float64, len(r.costs)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, f := range r.costs {
		s.Costs[k] = f.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for _, fn := range r.gaugeGroups {
		for k, v := range fn() {
			s.Gauges[k] = v
		}
	}
	for k, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    h.sum.Value(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[k] = hs
	}
	return s
}

// Reset zeroes every registered metric while keeping all handles valid
// (pre-registered package-level handles keep recording into the same
// registry entries). Live gauge functions are unaffected: they reflect
// the state they observe.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, f := range r.costs {
		f.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}
