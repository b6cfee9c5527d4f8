package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a named index over the package's lock-free instruments
// (Counter, Gauge, StaticHist) plus callback series, rendered on demand in
// the Prometheus text exposition format v0.0.4. It exists so the same
// counters the benchmark tables read become scrapeable on a live server.
//
// Registration takes a pointer to an instrument that already lives in a
// stats struct (transport.Stats, wal.Stats, ...): the hot Record/Add paths
// are untouched — no locks, no indirection — and the registry only reads
// the atomics at scrape time. The registry's own mutex guards the name
// index, which only registration and scraping touch.
//
// Labels are "label-lite": a fixed label set is attached at registration
// (dc/partition/family/op suffixes), there is no dynamic label lookup on
// the hot path. Series sharing a metric name must share help text and kind
// and are emitted under one HELP/TYPE block, as the format requires.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// Label is one name="value" pair attached to a series at registration.
type Label struct{ Name, Value string }

type seriesKind uint8

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered time series: exactly one of the value sources is
// set. fn-backed series let composites (replication lag, store occupancy,
// aggregate views) be computed at scrape time.
type series struct {
	labels  string // pre-rendered `{a="b",c="d"}`, or ""
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *StaticHist
}

type family struct {
	name, help string
	kind       seriesKind
	series     []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers c under name with the given labels.
func (r *Registry) Counter(name, help string, c *Counter, labels ...Label) {
	r.add(name, help, kindCounter, &series{counter: c}, labels)
}

// CounterFunc registers a counter whose value is computed at scrape time
// (aggregates over per-partition stats, derived totals). fn must be safe
// for concurrent use and monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindCounter, &series{fn: fn}, labels)
}

// Gauge registers g under name with the given labels.
func (r *Registry) Gauge(name, help string, g *Gauge, labels ...Label) {
	r.add(name, help, kindGauge, &series{gauge: g}, labels)
}

// GaugeFunc registers a gauge computed at scrape time (queue ages,
// replication lag, uptime). fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &series{fn: fn}, labels)
}

// Histogram registers h under name with the given labels. The exposition
// renders it as a Prometheus histogram in seconds (observations are
// nanoseconds, per StaticHist.Record), with power-of-two bucket bounds.
func (r *Registry) Histogram(name, help string, h *StaticHist, labels ...Label) {
	r.add(name, help, kindHistogram, &series{hist: h}, labels)
}

func (r *Registry) add(name, help string, kind seriesKind, s *series, labels []Label) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.fams = append(r.fams, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.kind, kind))
	}
	if f.help != help {
		panic(fmt.Sprintf("metrics: %s registered with two help strings", name))
	}
	for _, prev := range f.series {
		if prev.labels == s.labels {
			panic(fmt.Sprintf("metrics: duplicate series %s%s", name, s.labels))
		}
	}
	f.series = append(f.series, s)
}

// validName checks the Prometheus metric name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// renderLabels pre-renders a sorted, escaped `{k="v",...}` suffix so the
// scrape path is a plain string concatenation.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// histBounds are the bucket upper bounds, in nanoseconds, that histograms
// expose to Prometheus: every power of two from ~1µs to ~17s. The internal
// StaticHist keeps 32 sub-buckets per power of two; the exposition folds
// them into these 25 coarse cumulative buckets, which is plenty for
// latency dashboards and keeps the scrape small.
var histBounds = func() []uint64 {
	var b []uint64
	for k := 10; k <= 34; k++ {
		b = append(b, 1<<uint(k))
	}
	return b
}()

// cumulative folds the histogram's fine buckets into cumulative counts at
// each bound (counting observations strictly below the bound — within one
// fine bucket of the ≤ semantics Prometheus specifies, i.e. the histogram's
// native resolution) and returns the total observation count as summed over
// the buckets (what Count returns too). Taking the total from the same
// single bucket walk keeps the exposition internally consistent when a
// scrape races Record: the +Inf bucket must equal the _count sample.
func (h *StaticHist) cumulative(bounds []uint64) (counts []uint64, total uint64) {
	counts = make([]uint64, len(bounds))
	cuts := make([]int, len(bounds))
	for i, b := range bounds {
		cuts[i] = bucketIndex(b)
	}
	var cum uint64
	j := 0
	for i := 0; i < numBuckets; i++ {
		for j < len(cuts) && i == cuts[j] {
			counts[j] = cum
			j++
		}
		cum += h.buckets[i].Load()
	}
	for ; j < len(cuts); j++ {
		counts[j] = cum
	}
	return counts, cum
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format v0.0.4, families in registration order, series in
// registration order within a family. Durations (histograms) are exposed
// in seconds per the Prometheus base-unit convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			switch {
			case s.hist != nil:
				writeHist(&b, f.name, s)
			case s.counter != nil:
				writeSample(&b, f.name, "", s.labels, formatUint(s.counter.Load()))
			case s.gauge != nil:
				writeSample(&b, f.name, "", s.labels, strconv.FormatInt(s.gauge.Load(), 10))
			default:
				writeSample(&b, f.name, "", s.labels, formatFloat(s.fn()))
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHist renders one histogram series: cumulative _bucket samples with
// seconds-valued le bounds, then _sum (seconds) and _count.
func writeHist(b *strings.Builder, name string, s *series) {
	counts, total := s.hist.cumulative(histBounds)
	for i, c := range counts {
		le := formatFloat(float64(histBounds[i]) / 1e9)
		writeSample(b, name, "_bucket", mergeLabels(s.labels, `le="`+le+`"`), formatUint(c))
	}
	writeSample(b, name, "_bucket", mergeLabels(s.labels, `le="+Inf"`), formatUint(total))
	writeSample(b, name, "_sum", s.labels, formatFloat(float64(s.hist.sum.Load())/1e9))
	writeSample(b, name, "_count", s.labels, formatUint(total))
}

func writeSample(b *strings.Builder, name, suffix, labels, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	b.WriteString(labels)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// mergeLabels splices an extra pre-rendered pair into a rendered label set.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}
