package main

import "encoding/json"

// manifest is BENCHMARK.json: what the driver is told about the benchmark.
// The file at the root of the repository is this program's own tables
// written out (go run ./benchmark -manifest > BENCHMARK.json), and
// bench_test.go fails when the two differ.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []manifestEntry `json:"end_to_end"`
	PerLayer   []manifestEntry `json:"per_layer"`
}

type manifestEntry struct {
	Name   string   `json:"name"`
	Why    string   `json:"why,omitempty"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the measured window the driver asks for. With the rounds'
// set-ups, warm-ups and checks, one run then takes about 26 s of wall time
// (durable-large 41 s), and the driver's 92 runs about 2800 of its 3420 s.
const runSeconds = 20

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestEntry{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestEntry{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func (m manifest) json() []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and finite numbers
	}
	return append(b, '\n')
}
