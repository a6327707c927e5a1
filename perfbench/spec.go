package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"regexp"
)

// metricsJSON is the benchmark's own record of its workloads and metrics:
// the names and units BENCHMARK.json lists, plus for every per-layer metric
// the end-to-end metric and workloads it is predicted to move, and the
// arith-surface exclusions with their measured reasons.
//
//go:embed metrics.json
var metricsJSON []byte

// metricSpec is one metric of the benchmark.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	What   string   `json:"what,omitempty"`
	Layer  string   `json:"layer,omitempty"`
	Moves  string   `json:"moves,omitempty"`
	On     []string `json:"on,omitempty"`
}

// workloadSpec records why a workload exists and what it leaves out.
type workloadSpec struct {
	Name     string `json:"name"`
	Why      string `json:"why"`
	Excluded []struct {
		App    string `json:"app"`
		Reason string `json:"reason"`
	} `json:"excluded"`
	RejoinsWhen string `json:"rejoins_when,omitempty"`
}

type specFile struct {
	Workloads []workloadSpec `json:"workloads"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// loadSpec parses the embedded metric record and checks the naming rule.
func loadSpec() (*specFile, error) {
	var s specFile
	if err := json.Unmarshal(metricsJSON, &s); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if !nameRule.MatchString(m.Name) || seen[m.Name] {
				return nil, fmt.Errorf("metrics.json: bad or repeated metric name %q", m.Name)
			}
			if !unitRule.MatchString(m.Unit) {
				return nil, fmt.Errorf("metrics.json: metric %s has bad unit %q", m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	return &s, nil
}
