package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// print writes every metric of the run by name and unit — first the ones of
// the requested kind in table order, then whatever else the run measured —
// followed by the full result as one JSON line ending in "claim": null.
func (r *result) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "# workload %s  seed %d  trace %d  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	if r.Error != "" {
		fmt.Fprintf(w, "# ERROR: %s\n", r.Error)
	}
	listed := map[string]bool{}
	line := func(name, unit string) {
		listed[name] = true
		fmt.Fprintf(w, "%-34s %16.6g %-6s", name, r.Values[name], unit)
		if s, ok := r.Slices[name]; ok {
			fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, d := range defs {
		line(d.Name, d.Unit)
	}
	var extra []string
	for name := range r.Values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		line(name, unitOf(name))
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "# %s: %s\n", k, r.Notes[k])
	}
	if b, err := json.Marshal(r); err == nil {
		fmt.Fprintf(w, "%s\n", b)
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
