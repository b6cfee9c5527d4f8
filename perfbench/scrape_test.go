package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func readGolden(t *testing.T, name string) scrape {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parseExposition(string(b))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestScrapeDeltaGolden checks the parser and every delta helper against a
// hand-computed pair of Prometheus expositions.
func TestScrapeDeltaGolden(t *testing.T) {
	a, b := readGolden(t, "before.prom"), readGolden(t, "after.prom")
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"counter delta", delta(a, b, "kv_transport_msgs_sent_total", nil), 600},
		{"gauge", b.sum("kv_transport_send_queue_frames", nil), 7},
		{"histogram mean over all series", histMean(a, b, "kv_server_op_seconds", match{"family": "contrarian", "op": "put"}), 0.00014},
		{"histogram mean over one series", histMean(a, b, "kv_server_op_seconds", match{"dc": "1"}), 0.0002},
		{"histogram mean of no series", histMean(a, b, "kv_server_op_seconds", match{"op": "rot"}), 0},
		{"p50 at a bucket edge", histQuantile(a, b, "kv_transport_flush_delay_seconds", nil, 0.5), 2.048e-6},
		{"p99 interpolated", histQuantile(a, b, "kv_transport_flush_delay_seconds", nil, 0.99), 2.048e-6 + 2.048e-6*0.98},
		{"escaped label value", b.sum("kv_test_escaped", match{"path": "a\"b\\c\nd"}), 2.5},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s: got %g, want %g", c.what, c.got, c.want)
		}
	}
}

// TestScrapeReadsRegistry checks the parser against what metrics.Registry
// actually renders, so a change to the exposition format shows here.
func TestScrapeReadsRegistry(t *testing.T) {
	r := metrics.NewRegistry()
	var c metrics.Counter
	var h metrics.StaticHist
	r.Counter("kv_test_ops_total", "Ops.", &c, metrics.Label{Name: "dc", Value: "1"})
	r.Histogram("kv_test_latency_seconds", "Latency.", &h)
	a, err := scrapeRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(5)
	for i := 0; i < 100; i++ {
		h.Record(100 * time.Microsecond)
	}
	b, err := scrapeRegistry(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(a, b, "kv_test_ops_total", match{"dc": "1"}); got != 5 {
		t.Errorf("counter delta = %g, want 5", got)
	}
	if got := histMean(a, b, "kv_test_latency_seconds", nil); !near(got, 100e-6) {
		t.Errorf("histogram mean = %g, want 100µs", got)
	}
	// 100µs lies in the (65.536µs, 131.072µs] exposition bucket.
	if got := histQuantile(a, b, "kv_test_latency_seconds", nil, 0.99); got <= 65.536e-6 || got > 131.072e-6 {
		t.Errorf("p99 = %g, want inside (65.536µs, 131.072µs]", got)
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, text := range []string{"novalue", "x 1.2.3", `x{a="b} 1`, `x{a} 1`} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("parseExposition(%q) succeeded", text)
		}
	}
	if sc, err := parseExposition(strings.Join([]string{"# HELP x y", "", "x 1"}, "\n")); err != nil || len(sc) != 1 {
		t.Errorf("comments and blank lines: %v, %d samples", err, len(sc))
	}
}
