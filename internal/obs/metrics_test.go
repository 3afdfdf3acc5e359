package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounterAndCost(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("re-registering a counter must return the same handle")
	}
	f := r.Cost("a.cost")
	f.Add(1.5)
	f.Add(0.25)
	if got := f.Value(); got != 1.75 {
		t.Errorf("cost = %v, want 1.75", got)
	}
	g := r.Gauge("a.gauge")
	g.Set(3)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", 1, 10, 100)
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	// 0.5 and 1 land in <=1; 2 in <=10; 50 in <=100; 1000 overflows.
	want := []int64{2, 1, 1, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1053.5 {
		t.Errorf("sum = %v, want 1053.5", s.Sum)
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	f := r.Cost("y")
	h := r.Histogram("z", 1)
	c.Inc()
	f.Add(2)
	h.Observe(0.5)
	r.Reset()
	s := r.Snapshot()
	if s.Counters["x"] != 0 || s.Costs["y"] != 0 || s.Histograms["z"].Count != 0 {
		t.Errorf("reset left non-zero state: %+v", s)
	}
	// The old handles must still record into the registry.
	c.Inc()
	if r.Snapshot().Counters["x"] != 1 {
		t.Error("handle detached from registry after Reset")
	}
}

// TestGaugeFunc checks a computed gauge: a one-entry group over a value owned
// elsewhere, read afresh by every snapshot.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	live := 1.25
	r.GaugeGroup(func() map[string]float64 { return map[string]float64{"live": live} })
	if got := r.Snapshot().Gauges["live"]; got != 1.25 {
		t.Errorf("live gauge = %v", got)
	}
	live = 2.5
	if got := r.Snapshot().Gauges["live"]; got != 2.5 {
		t.Errorf("live gauge after update = %v", got)
	}
}

func TestGaugeGroup(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugeGroup(func() map[string]float64 {
		calls++
		// All values derive from one read of `calls`, so a snapshot always
		// sees a mutually consistent pair.
		return map[string]float64{
			"grp.count":   float64(calls),
			"grp.doubled": float64(2 * calls),
		}
	})
	s := r.Snapshot()
	if calls != 1 {
		t.Errorf("group evaluated %d times per snapshot, want 1", calls)
	}
	if s.Gauges["grp.count"] != 1 || s.Gauges["grp.doubled"] != 2 {
		t.Errorf("group gauges = %v, %v, want 1, 2", s.Gauges["grp.count"], s.Gauges["grp.doubled"])
	}
	s = r.Snapshot()
	if s.Gauges["grp.count"] != 2 || s.Gauges["grp.doubled"] != 4 {
		t.Errorf("second snapshot group gauges = %v, %v, want 2, 4", s.Gauges["grp.count"], s.Gauges["grp.doubled"])
	}
}

func TestConcurrentCountersCommute(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestCostTotalSortedFold(t *testing.T) {
	s := MetricsSnapshot{Costs: map[string]float64{"b": 0.2, "a": 0.1, "c": 0.3}}
	// Sorted fold: ((0.1 + 0.2) + 0.3), in float64 runtime arithmetic.
	vals := []float64{0.1, 0.2, 0.3}
	var want float64
	for _, v := range vals {
		want += v
	}
	if got := s.CostTotal(); got != want {
		t.Errorf("CostTotal = %v, want %v", got, want)
	}
}

func TestExporters(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(3)
	r.Cost("cost.detect").Add(1.5)
	r.Gauge("g").Set(0.5)
	r.Histogram("h", 1, 2).Observe(1.5)
	s := r.Snapshot()

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("JSON round-trip mismatch:\n got %+v\nwant %+v", back, s)
	}
}
