package obs

import (
	"math"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("Quantile on empty histogram = %v, want 0", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(0.5) // bucket (0,1]
	h.Observe(1.5) // bucket (1,2]
	h.Observe(3)   // bucket (2,4]
	h.Observe(3)   // bucket (2,4]
	cases := []struct {
		q, want float64
	}{
		{0, 0},    // rank 0 lands at the lower edge of the first bucket
		{0.25, 1}, // rank 1: whole first bucket
		{0.5, 2},  // rank 2: upper edge of the second bucket
		{0.75, 3}, // rank 3: halfway through (2,4]
		{1, 4},    // rank 4: top of the last occupied bucket
		{1.5, 4},  // clamped to q=1
		{-0.5, 0}, // clamped to q=0
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestQuantileOverflowBucket: samples beyond the highest finite bound
// cannot be interpolated; the estimate clamps to that bound, mirroring
// Prometheus's histogram_quantile behaviour.
func TestQuantileOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(100)
	if got := h.Quantile(0.5); got != 4 {
		t.Errorf("Quantile with only +Inf samples = %v, want 4 (highest finite bound)", got)
	}
}

// TestQuantileMedianSkew: with 9 of 10 samples in the first bucket, the
// p50 stays inside it while the p99 reaches into the tail bucket.
func TestQuantileMedianSkew(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	for i := 0; i < 9; i++ {
		h.Observe(0.0005)
	}
	h.Observe(0.05)
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %v, want within the first bucket (0, 0.001]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.01 || p99 > 0.1 {
		t.Errorf("p99 = %v, want within the tail bucket (0.01, 0.1]", p99)
	}
}
