package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json is the benchmark's single description of itself: the workloads
// with their calibrated rates, every metric with its unit and the
// end-to-end metric it should move, and the known defects the runs hit.
// BENCHMARK.json at the repository root is its projection (see contract).
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	Name             string  `json:"name"`
	Why              string  `json:"why"`
	Protocol         string  `json:"protocol"`
	Transport        string  `json:"transport"`
	DCs              int     `json:"dcs"`
	Partitions       int     `json:"partitions"`
	Sessions         int     `json:"sessions"`
	SocketPool       int     `json:"socket_pool"`
	AdmitLimit       int     `json:"admit_limit"`
	WriteRatio       float64 `json:"write_ratio"`
	RotSize          int     `json:"rot_size"`
	ValueSize        int     `json:"value_size"`
	Zipf             float64 `json:"zipf"`
	KeysPerPartition int     `json:"keys_per_partition"`
	LowRate          float64 `json:"low_rate"`
	HighRate         float64 `json:"high_rate"`
	// Ungated, when set, says why the workload is left out of
	// BENCHMARK.json; it still runs by name and in --workload all.
	Ungated string `json:"ungated"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec holds what the program reads from spec.json; the rest of the
// file (configurations, notes, what each metric should move, known
// defects) is documentation.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (workloadSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

func (s *benchSpec) unit(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// contract is BENCHMARK.json: the subset of spec.json that the benchmark
// runner reads, in its fixed shape.
func (s *benchSpec) contract() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []named      `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []layer      `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: s.RunSeconds,
	}
	for _, w := range s.Workloads {
		if w.Ungated == "" {
			out.Workloads = append(out.Workloads, named{w.Name, w.Why})
		}
	}
	out.EndToEnd = s.EndToEnd
	for _, m := range s.PerLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
