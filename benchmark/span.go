package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one harness-side trace record: an interval around a call into a
// layer, made from outside that layer. Parent 0 is the run itself; a facade
// call's parent is its client's span, a ladder call's parent the ladder
// step's. Client is -1 on ladder spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Client int    `json:"client"`
	Name   string `json:"kind"`
	Start  int64  `json:"start"` // ns since the traced run began
	End    int64  `json:"end"`
}

// tracer is the traced run's span buffer. All of it is allocated before
// anything is timed and written to a file when the run ends. The two
// clients fill preallocated slices of their own while they run (no shared
// writes on the measured path) and hand them over afterwards; the ladder is
// single-threaded and adds directly.
type tracer struct {
	workload string
	seed     uint64
	origin   time.Time
	spans    []span
	dropped  uint64 // calls timed but past the preallocated memory
}

func newTracer(w *workload, p plan) *tracer {
	return &tracer{workload: w.name, seed: p.seed, origin: time.Now(),
		spans: make([]span, 0, clients*(p.spanCap+1)+64*(ladderSpans+1))}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add stores s, or counts it as dropped when the buffer is full, and
// returns its id.
func (t *tracer) add(s span) int {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a step span; end closes it.
func (t *tracer) begin(name string) int {
	return t.add(span{Client: -1, Name: name, Start: t.now()})
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].End = t.now()
	}
}

// write streams the trace as one JSON object, a span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"dropped\": %d, \"spans\": [", t.workload, t.seed, t.dropped)
	for i := range t.spans {
		line, err := json.Marshal(&t.spans[i])
		if err != nil {
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('\n')
		w.Write(line)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
