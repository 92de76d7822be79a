// Command benchmark is the repository's benchmark: it drives the public
// facade (repro.NewTree / repro.Open / Handle.*) in a closed loop with two
// client goroutines over four workloads, checks every result, and prints
// every metric by name and unit. See README.md.
//
//	go run ./benchmark --workload paper-u20 --seed 1 --seconds 20 --trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-u20, biased-churn, xshard-transfer or durable-large")
		seed    = flag.Uint64("seed", 1, "seed of the generated op streams")
		seconds = flag.Int("seconds", runSeconds, "length of the measured window, over all rounds")
		trace   = flag.Int("trace", 0, "1: traced run and layer ladder (per-layer metrics); 0: end-to-end metrics")
		quick   = flag.Bool("quick", false, "run at about 1/100 size (smoke test; the numbers mean nothing)")
		out     = flag.String("out", "", "append this run's full result, as one JSON line, to this file")
		compare = flag.Bool("compare", false, "compare two files written with -out: benchmark -compare a.jsonl b.jsonl")
		emit    = flag.Bool("manifest", false, "print BENCHMARK.json as this program's tables define it")
	)
	flag.Parse()
	if *emit {
		os.Stdout.Write(buildManifest().json())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d < 1", *seconds))
	}
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	p := fullPlan(w, *seed, *seconds, outDir)
	if *quick {
		p, w = quickPlan(*seed, outDir), w.scaled(quickDiv)
	}
	var r *result
	defs := endToEnd
	if *trace != 0 {
		r, defs = runTraced(w, p), perLayer
	} else {
		r = runEndToEnd(w, p)
	}
	r.print(os.Stdout, defs)
	if *out != "" {
		if err := r.appendTo(*out); err != nil {
			fatal(err)
		}
	}
	fmt.Println(r.contractLine(defs))
	if !r.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// contractLine is the last line of standard output: exactly the keys the
// driver reads, with exactly the metrics of the requested kind.
func (r *result) contractLine(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{r.Values[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

func (r *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
