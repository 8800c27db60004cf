package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifest mirrors BENCHMARK.json, the single place metric names, units,
// directions and regression bounds are declared. The program computes values
// by name and takes every unit from here, so a metric cannot be emitted under
// a name or unit the manifest does not list.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadManifest finds BENCHMARK.json in the working directory or one of its
// parents (the command runs from the checkout root, the tests from
// benchmark/).
func loadManifest() (*manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &m, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
		}
		dir = parent
	}
}

func (m *manifest) decls(traced bool) []metricDecl {
	if traced {
		return m.PerLayer
	}
	return m.EndToEnd
}

// metricValue is one emitted metric in the result object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object one run prints as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// seal attaches the manifest's units to the computed values and rejects any
// difference between what was computed and what the manifest declares for the
// mode: a missing metric, or a value under an undeclared name.
func (m *manifest) seal(values map[string]float64, traced bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(values))
	for _, d := range m.decls(traced) {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not computed", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was computed but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
