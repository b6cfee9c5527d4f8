package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// The per-layer metrics are read from the same Prometheus text a server's
// /metrics endpoint serves, never from the Go stats structs behind it, so a
// refactor behind those series does not change the benchmark.

// promSample is one series value of a scrape.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type scrape []promSample

func scrapeRegistry(r *metrics.Registry) (scrape, error) {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(b.String())
}

// parseExposition parses the Prometheus text exposition format: comment
// lines are skipped, every other line is name{labels} value.
func parseExposition(text string) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || l[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(l, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", line, l)
		}
		v, err := strconv.ParseFloat(l[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		s := promSample{name: l[:cut], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if s.labels, err = parseLabels(s.name[i:]); err != nil {
				return nil, fmt.Errorf("exposition line %d: %w", line, err)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses {k="v",...} with the format's \\, \" and \n escapes.
func parseLabels(s string) (map[string]string, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("bad label set %q", s)
	}
	out := map[string]string{}
	rest := s[1 : len(s)-1]
	for rest != "" {
		eq := strings.Index(rest, `="`)
		if eq <= 0 {
			return nil, fmt.Errorf("bad label set %q", s)
		}
		name := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				if rest[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(rest[i])
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[name] = val.String()
		rest = strings.TrimPrefix(rest[i+1:], ",")
	}
	return out, nil
}

// match selects series by label values; an empty value means "any".
type match map[string]string

func (m match) ok(labels map[string]string) bool {
	for k, v := range m {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels match.
func (s scrape) sum(name string, m match) float64 {
	var t float64
	for _, x := range s {
		if x.name == name && m.ok(x.labels) {
			t += x.value
		}
	}
	return t
}

// values lists every matching series' value.
func (s scrape) values(name string, m match) []float64 {
	var out []float64
	for _, x := range s {
		if x.name == name && m.ok(x.labels) {
			out = append(out, x.value)
		}
	}
	return out
}

// delta is sum(name) in b minus sum(name) in a.
func delta(a, b scrape, name string, m match) float64 {
	return b.sum(name, m) - a.sum(name, m)
}

// histMean is a histogram's mean observation between two scrapes, in the
// histogram's unit.
func histMean(a, b scrape, name string, m match) float64 {
	return ratio(delta(a, b, name+"_sum", m), delta(a, b, name+"_count", m))
}

// histQuantile is the q-quantile (0..1) of the observations a histogram
// gained between two scrapes, summed over the matching series and
// interpolated linearly inside the bucket that holds it, as Prometheus's
// histogram_quantile does.
func histQuantile(a, b scrape, name string, m match, q float64) float64 {
	cum := map[float64]float64{}
	for sign, sc := range map[float64]scrape{-1: a, 1: b} {
		for _, x := range sc {
			if x.name != name+"_bucket" || !m.ok(x.labels) {
				continue
			}
			le, err := strconv.ParseFloat(x.labels["le"], 64)
			if err != nil {
				continue
			}
			cum[le] += sign * x.value
		}
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lower, below := 0.0, 0.0
	for _, le := range bounds {
		if c := cum[le]; c >= rank {
			if math.IsInf(le, 1) {
				return lower
			}
			return lower + (le-lower)*ratio(rank-below, c-below)
		}
		lower, below = le, cum[le]
	}
	return lower
}
