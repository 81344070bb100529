package hash

import (
	"math/rand/v2"
	"testing"

	"repro/internal/field"
	"repro/internal/kernel"
)

// sweepVariants runs fn once under every kernel variant selectable on this
// machine, restoring the startup selection afterwards. The scalar per-key
// APIs (Eval, Bucket, Sign) are not dispatched and serve as the reference.
func sweepVariants(t *testing.T, fn func(t *testing.T)) {
	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})
	for _, name := range kernel.Variants() {
		if err := kernel.Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		t.Run(name, fn)
	}
}

func TestBatchVariantsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 1))
	keys := make([]uint64, 133)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, k := range []int{2, 3, 4, 6, 8, 20} {
		h := NewFlatFamily(3, k, rand.New(rand.NewPCG(52, uint64(k))))
		g := NewFlatFamily(3, k, rand.New(rand.NewPCG(53, uint64(k))))
		sweepVariants(t, func(t *testing.T) {
			for j := 0; j < h.Rows(); j++ {
				out := make([]field.Elem, len(keys))
				h.EvalBatch(j, keys, out)
				buckets := make([]uint64, len(keys))
				h.BucketBatch(j, 4096, keys, buckets)
				fb := make([]uint64, len(keys))
				fs := make([]float64, len(keys))
				BucketSignBatch(h, g, j, 4096, keys, fb, fs)
				signs := make([]float64, len(keys))
				units := make([]float64, len(keys))
				h.SignBatch(j, keys, signs)
				h.Float64Batch(j, keys, units)
				for i, x := range keys {
					if want := h.Eval(j, x); out[i] != want {
						t.Fatalf("k=%d row %d: EvalBatch[%d] = %#x, Eval = %#x", k, j, i, out[i], want)
					}
					if want := h.Bucket(j, x, 4096); buckets[i] != want || fb[i] != want {
						t.Fatalf("k=%d row %d: buckets[%d] = %d/%d, Bucket = %d", k, j, i, buckets[i], fb[i], want)
					}
					if want := float64(g.Sign(j, x)); fs[i] != want {
						t.Fatalf("k=%d row %d: signs[%d] = %v, Sign = %v", k, j, i, fs[i], want)
					}
					if want := float64(h.Sign(j, x)); signs[i] != want {
						t.Fatalf("k=%d row %d: SignBatch[%d] = %v, Sign = %v", k, j, i, signs[i], want)
					}
					if want := h.Float64(j, x); units[i] != want {
						t.Fatalf("k=%d row %d: Float64Batch[%d] = %v, Float64 = %v", k, j, i, units[i], want)
					}
				}
			}
		})
	}
}
