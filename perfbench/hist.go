package main

import (
	"math"
	"math/bits"
	"time"
)

// The latency histogram is log-linear: values below 2*histSub are counted
// exactly, larger ones fall into buckets of width 2^e whose lower bound
// has a mantissa in [histSub, 2*histSub). Every bucket is therefore at
// most 1/histSub of its value wide, and the histogram is a fixed array,
// so recording costs no allocation and the memory does not grow with the
// run.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxExp caps the exponent: values at or above 2^(histMaxExp+7) ns
	// (about 39 hours) land in the last bucket.
	histMaxExp = 40
	histLen    = 2*histSub + histMaxExp*histSub
)

// hist counts nanosecond durations.
type hist struct {
	counts [histLen]uint64
	n      uint64
	max    int64
}

// histIndex returns the bucket of v (v >= 0).
func histIndex(v int64) int {
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	e := bits.Len64(u) - (histSubBits + 1)
	if e > histMaxExp {
		return histLen - 1
	}
	return 2*histSub + (e-1)*histSub + int(u>>uint(e)) - histSub
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	e := (i-2*histSub)/histSub + 1
	m := int64((i-2*histSub)%histSub + histSub)
	return m << uint(e), 1 << uint(e)
}

func (h *hist) add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// ceil(q*n)-th smallest value, exact below 2*histSub and otherwise placed
// inside its bucket by linear interpolation over the bucket's samples. It
// returns NaN for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, w := histBounds(i)
			if w == 1 {
				return float64(lo)
			}
			f := (float64(rank-seen) - 0.5) / float64(c)
			return min(float64(lo)+f*float64(w), float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

// mean approximates the average from bucket midpoints.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		lo, w := histBounds(i)
		sum += float64(c) * (float64(lo) + float64(w-1)/2)
	}
	return sum / float64(h.n)
}

// beyond reports how many samples lie above the q-quantile's rank: a
// percentile is worth reporting only when at least ten do.
func (h *hist) beyond(q float64) uint64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank >= h.n {
		return 0
	}
	return h.n - rank
}
