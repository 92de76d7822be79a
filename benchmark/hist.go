package main

import (
	"math/bits"
	"sort"
)

// hist is the harness's own latency histogram: log-linear buckets with 128
// sub-buckets per power of two, so a quantile read back as its bucket's
// midpoint is within 0.4 % of the recorded value. It is a fixed array
// (allocation-free to record into) owned by one goroutine; merge sums
// several after their owners have stopped. internal/obs.Histogram is not
// used here on purpose: its log₂ buckets only ever read 255/511/1023/…,
// which hides a 10 % change, and it is code under test.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values are capped at 2^40 ns ≈ 18 min
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

type hist struct {
	n uint64
	b [histBuckets]uint64
}

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(v) - (histSubBits + 1)
	return shift<<histSubBits + int(v>>uint(shift))
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	shift := i>>histSubBits - 1
	m := uint64(i - shift<<histSubBits)
	return float64(m<<uint(shift)) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(v uint64) {
	h.b[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile (0 < q <= 1) of the recorded values, or 0
// when nothing was recorded.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.b {
		seen += c
		if seen > rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// summary is what the report carries for every sliced metric: the median
// over slices (the metric's value), the quartiles and the slice count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is the
// rule the noise protocol is stated in.
func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Median: v[0], Q1: v[0], Q3: v[0], N: 1}
	}
	at := func(p float64) float64 { // p in quarters: 1, 2, 3
		pos := p * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return v[j-1] + (pos-float64(j))*(v[j]-v[j-1])
	}
	return summary{Median: at(2), Q1: at(1), Q3: at(3), N: n}
}
