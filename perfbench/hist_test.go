package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the nearest-rank quantile of sorted samples, the rank
// rule hist.quantile uses.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

func TestHistQuantilesMatchSortedSamples(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return r.Int64N(200) },
		"uniform-wide":  func() int64 { return r.Int64N(50_000_000) },
		"lognormal": func() int64 {
			return int64(math.Exp(7 + 2*r.NormFloat64()))
		},
		"bimodal": func() int64 {
			if r.IntN(100) < 95 {
				return 1500 + r.Int64N(400)
			}
			return 900_000 + r.Int64N(400_000)
		},
	}
	for name, draw := range dists {
		for _, n := range []int{1, 7, 100, 10_000, 200_000} {
			var h hist
			samples := make([]int64, n)
			for i := range samples {
				samples[i] = draw()
				h.add(time.Duration(samples[i]))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				want := exactQuantile(samples, q)
				got := h.quantile(q)
				_, width := histBounds(histIndex(want))
				if math.Abs(got-float64(want)) > float64(width) {
					t.Errorf("%s n=%d q=%g: histogram %.1f, exact %d, bucket width %d", name, n, q, got, want, width)
				}
			}
			if h.n != uint64(n) || h.max != samples[n-1] {
				t.Errorf("%s n=%d: count %d max %d, want %d and %d", name, n, h.n, h.max, n, samples[n-1])
			}
		}
	}
}

func TestHistBucketsTileTheLine(t *testing.T) {
	// Every value maps to the bucket whose bounds contain it, buckets are
	// contiguous, and each is at most 1/histSub of its values wide.
	prevEnd := int64(0)
	for i := 0; i < histLen; i++ {
		lo, w := histBounds(i)
		if lo != prevEnd {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevEnd)
		}
		if w > 1 && float64(w) > float64(lo)/histSub {
			t.Fatalf("bucket %d: width %d over lower bound %d", i, w, lo)
		}
		for _, v := range []int64{lo, lo + w/2, lo + w - 1} {
			if got := histIndex(v); got != i {
				t.Fatalf("value %d: bucket %d, want %d", v, got, i)
			}
		}
		prevEnd = lo + w
	}
}

func TestHistMergeEqualsCombinedAdds(t *testing.T) {
	var a, b, all hist
	for i := int64(0); i < 5000; i++ {
		v := time.Duration(i * i)
		all.add(v)
		if i%3 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from one fed every sample")
	}
}
