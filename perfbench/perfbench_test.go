package main

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/wire"
	"repro/internal/workload"
)

func TestScheduleIsPureFunctionOfSeed(t *testing.T) {
	a := schedule(7, 5000, 2*time.Second)
	if b := schedule(7, 5000, 2*time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if c := schedule(8, 5000, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	if n := len(a); n < 9500 || n > 10500 {
		t.Errorf("%d arrivals in 2s at 5000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}

	cfg := workload.Default(4, 100)
	ks := workload.BuildKeySpace(cfg, ring.New(4))
	o1 := openOps(workload.NewGen(cfg, ks, 7), 500)
	o2 := openOps(workload.NewGen(cfg, ks, 7), 500)
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("same seed, different operations")
	}
}

// stallClient stalls its first call, then answers at once.
type stallClient struct {
	mu    sync.Mutex
	calls int
	stall time.Duration
}

func (c *stallClient) Put(ctx context.Context, key string, value []byte) (uint64, error) {
	return 1, nil
}

func (c *stallClient) ROT(ctx context.Context, keys []string) ([]wire.KV, error) {
	c.mu.Lock()
	c.calls++
	first := c.calls == 1
	c.mu.Unlock()
	if first {
		time.Sleep(c.stall)
	}
	out := make([]wire.KV, len(keys))
	for i, k := range keys {
		out[i] = wire.KV{Key: k, Value: []byte{0}, TS: 1}
	}
	return out, nil
}

// TestStallInflatesQueuedLatency: with one session, requests due while the
// first one stalls wait for it, and their latency, timed from their due
// time, includes that wait.
func TestStallInflatesQueuedLatency(t *testing.T) {
	const stall = 60 * time.Millisecond
	s := newSession(&stallClient{stall: stall}, 1, nil)
	offs := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	ops := []op{{keys: []string{"a"}}, {keys: []string{"b"}}, {keys: []string{"c"}}}
	ps := &phaseStats{}
	runOpen([]*session{s}, offs, ops, ps)
	if len(ps.rot) != 3 {
		t.Fatalf("%d samples", len(ps.rot))
	}
	// The third op is due 20ms in and cannot start before 60ms: at least
	// 40ms late, although the call itself returns at once.
	lat := values(ps.rot)
	if lat[0] < us(35*time.Millisecond) {
		t.Errorf("latencies %v µs: a queued request was timed from its send time", lat)
	}
	if w := sortedCopy(ps.wait); w[len(w)-1] < us(35*time.Millisecond) {
		t.Errorf("session waits %v µs do not show the stall", w)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{10000, 99.9, 9990},
		{1000, 99, 990},
		{999, 90, 900}, // p99 = 990 leaves 9 beyond
		{100, 90, 90},
		{5, 50, 3},
	} {
		p, v, n := tail(series(c.n))
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", c.n, p, v, c.wantP, c.wantV)
		}
		if c.n >= 100 && n < 10 {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, n)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	gated := 0
	for _, w := range spec.Workloads {
		check(w.Name)
		if w.Ungated == "" {
			gated++
		}
		if w.LowRate <= 0 || w.HighRate <= w.LowRate {
			t.Errorf("workload %s: rates %g, %g", w.Name, w.LowRate, w.HighRate)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if n := gated; n < 2 || n > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", n, len(spec.EndToEnd), len(spec.PerLayer))
	}
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower is better", m)
	}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", m.Name, m.Bound)
		}
	}
}

// TestContractMatchesSpec keeps BENCHMARK.json the projection of spec.json.
func TestContractMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.contract()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from spec.json; regenerate it with: bash perfbench/run.sh --contract > BENCHMARK.json")
	}
}

// TestEveryMetricIsComputed runs the metric derivations over empty phases
// and scrapes and checks that each metric spec.json names gets a value.
func TestEveryMetricIsComputed(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	res := &childResult{Metrics: map[string]float64{"setup_s": 1, "rss_peak_mb": 1, "trace.overhead_frac": 0}, Samples: map[string]int{}}
	open := workload.NewGen(workload.Default(1, 1), &workload.KeySpace{Keys: [][]string{{"k"}}}, 1)
	phases := []*phase{
		{name: "low", open: open, slices: []*phaseStats{{}}},
		{name: "high", open: open, slices: []*phaseStats{{}}},
		{name: "peak", slices: []*phaseStats{{}}},
	}
	rt := readRuntime()
	latencyMetrics(res, phases)
	layerMetrics(res, spec.Workloads[0], phases, nil, nil, rt, rt, &sampler{peak: map[string]float64{}, sum: map[string]float64{}})
	traceMetrics(res, newTracer(), nil, nil)
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("metric %s is never computed", m.Name)
			}
		}
	}
}

func TestCheckerFlagsViolations(t *testing.T) {
	kv := func(k string, ts uint64, size int) wire.KV { return wire.KV{Key: k, Value: make([]byte, size), TS: ts} }
	c := newChecker(8)
	c.put("a", 10)
	c.rot([]string{"a", "b"}, []wire.KV{kv("a", 10, 8), kv("b", 5, 8)})
	if len(c.errors()) != 0 {
		t.Fatalf("clean history flagged: %v", c.errors())
	}
	for _, bad := range []struct {
		what string
		keys []string
		kvs  []wire.KV
	}{
		{"read-your-writes", []string{"a"}, []wire.KV{kv("a", 9, 8)}},
		{"monotonic reads", []string{"b"}, []wire.KV{kv("b", 4, 8)}},
		{"missing item", []string{"a", "b"}, []wire.KV{kv("a", 10, 8)}},
		{"misaligned", []string{"a", "b"}, []wire.KV{kv("b", 5, 8), kv("a", 10, 8)}},
		{"nil value", []string{"a"}, []wire.KV{{Key: "a", TS: 10}}},
		{"value size", []string{"a"}, []wire.KV{kv("a", 10, 7)}},
	} {
		before := len(c.errors())
		c.rot(bad.keys, bad.kvs)
		if len(c.errors()) == before {
			t.Errorf("%s not flagged", bad.what)
		}
	}
}

func TestHeadTailKeepsBothEnds(t *testing.T) {
	h := &headTail{max: 4}
	for _, s := range []string{"ab", "cdef", "ghij", "kl"} {
		h.Write([]byte(s))
	}
	if got, want := h.String(), "abcd\n[...]\nijkl"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	short := &headTail{max: 4}
	short.Write([]byte("abcdef"))
	if got := short.String(); got != "abcdef" {
		t.Errorf("nothing dropped: got %q", got)
	}
}
