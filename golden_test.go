package streamsample

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"testing"

	"repro/internal/kernel"
)

// The golden digests pin the sampler bytes across ingest-path rewrites: each
// is the SHA-256 of MarshalBinary after a fixed seeded stream, followed by
// the sampler's query answers. They were recorded with the per-address PRG
// walk, so the table-composed ingest must reproduce it exactly; any change
// to membership blocks, per-level state or Sample's uniform choice shows up
// as a mismatch under every kernel variant selectable on the machine.

// goldenFeed drives s with a deterministic turnstile stream over [0, n):
// single Process calls interleaved with batches of assorted sizes (one
// longer than any internal chunk), including exact cancellations so some
// coordinates leave the support again.
func goldenFeed(s Sketch, seed uint64, n, length int) {
	r := rand.New(rand.NewPCG(seed, seed^0x5EED))
	sizes := []int{1, 7, 64, 700, 2048 + 37, 3}
	var all []Update
	for len(all) < length {
		i := r.IntN(n)
		d := r.Int64N(40) - 20
		if d == 0 {
			d = 1
		}
		all = append(all, Update{Index: i, Delta: d})
		if r.IntN(5) == 0 {
			all = append(all, Update{Index: i, Delta: -d})
		}
	}
	for k := 0; len(all) > 0; k++ {
		if k%4 == 3 {
			s.Process(all[0])
			all = all[1:]
			continue
		}
		m := min(sizes[k%len(sizes)], len(all))
		s.ProcessBatch(all[:m])
		all = all[m:]
	}
}

func goldenBytes(t *testing.T, h hash.Hash, s interface{ MarshalBinary() ([]byte, error) }) {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
}

func l0Golden(t *testing.T, n int, nested bool) string {
	opts := []Option{WithSeed(uint64(n)*7 + 1)}
	if nested {
		opts = append(opts, WithNestedLevels())
	}
	s := NewL0Sampler(n, opts...)
	h := sha256.New()
	goldenFeed(s, uint64(n), n, 3000)
	goldenBytes(t, h, s)
	i, v, ok := s.Sample()
	fmt.Fprintf(h, "sample %d %d %t\n", i, v, ok)
	// A second phase after the first query exercises the memo invalidation
	// and a sparser residual support.
	goldenFeed(s, uint64(n)+1, min(n, 40), 200)
	goldenBytes(t, h, s)
	i, v, ok = s.Sample()
	fmt.Fprintf(h, "sample %d %d %t\n", i, v, ok)
	return hex.EncodeToString(h.Sum(nil))
}

func lpGolden(t *testing.T, p float64) string {
	const n = 4096
	s := NewLpSampler(p, n, WithSeed(uint64(p*1000)+3), WithCopies(6))
	h := sha256.New()
	goldenFeed(s, uint64(p*100), n, 1500)
	goldenBytes(t, h, s)
	for _, smp := range s.inner.SampleAll() {
		fmt.Fprintf(h, "all %d %x\n", smp.Index, smp.Estimate)
	}
	fmt.Fprintf(h, "diag %+v\n", s.inner.Diagnostics())
	i, est, ok := s.Sample()
	fmt.Fprintf(h, "sample %d %x %t\n", i, est, ok)
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenDigests(t *testing.T) {
	type tc struct {
		name string
		run  func(t *testing.T) string
		want string
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 5, 17, 300, 4096, 1 << 16, 1 << 20} {
		for _, nested := range []bool{false, true} {
			cases = append(cases, tc{
				name: fmt.Sprintf("L0/n=%d/nested=%t", n, nested),
				run:  func(t *testing.T) string { return l0Golden(t, n, nested) },
			})
		}
	}
	for _, p := range []float64{0.5, 1, 1.5} {
		cases = append(cases, tc{
			name: fmt.Sprintf("Lp/p=%g", p),
			run:  func(t *testing.T) string { return lpGolden(t, p) },
		})
	}
	for i := range cases {
		cases[i].want = goldenDigests[cases[i].name]
	}

	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})
	for _, variant := range kernel.Variants() {
		if err := kernel.Select(variant); err != nil {
			t.Fatalf("Select(%q): %v", variant, err)
		}
		t.Run(variant, func(t *testing.T) {
			for _, c := range cases {
				if got := c.run(t); got != c.want {
					t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
				}
			}
		})
	}
}

var goldenDigests = map[string]string{
	"L0/n=1/nested=false":       "d917bea76ba516f9a2d818ec7069c7479de2d5a06a0ea0eb3b1a0c0b48f0daf1",
	"L0/n=1/nested=true":        "277facbcaca6925caced850c865a975cd31f88cdedb5778da681bca3682ab978",
	"L0/n=2/nested=false":       "2ca3d7aa5d139f1e5f317c2961c99865062ae8be6ae852abe3f4239d48254905",
	"L0/n=2/nested=true":        "315dbd6d2674ffa4da09e1e456b044c5e0fa605fd11d1e79cff6e36bcdb6ec18",
	"L0/n=3/nested=false":       "3c50c16295f37e19c19ba8e31bb27a4af7747c3a09237ed924c29b795eb9f878",
	"L0/n=3/nested=true":        "23e3b9b5a6a79686df67976b214aa54b0e588d552b529fb97cc2d702912d281f",
	"L0/n=5/nested=false":       "7059edf3cdd7578775ae84ec66077aa673e2e74fc58ebfe8753211ca3b5f0a88",
	"L0/n=5/nested=true":        "06e1cea5561f06790a10da138e4c6b38f0985b23fe36a09a7a8f18ad33e0d813",
	"L0/n=17/nested=false":      "34adc7b0fc332bb22880100eec708c525eb93a1e5698c8fc291413041ad0ea12",
	"L0/n=17/nested=true":       "8ff9d546c65a06c2e231acc70fd166fd2a83b7d4ff39e7d5714ba8e567d360f3",
	"L0/n=300/nested=false":     "4d90339643b505c541c3e6910b2c49342b8df1f206aeefa1f90bb92a1f98f929",
	"L0/n=300/nested=true":      "20d73a211750a07496ff2fca201df800b7ea1fc1d124331520b8f67de36b1087",
	"L0/n=4096/nested=false":    "1dfb4db7d28fb8963c040cdc1af75f282a96a385c427cd1282c607c79276d6f5",
	"L0/n=4096/nested=true":     "eea5908daebc405960ffea5061232397b9957784694530c41e7d30a06a70ab88",
	"L0/n=65536/nested=false":   "a8e42bf79a86d44ab48bff7a92a31b19b6af64ae44952477ea6d6cb454a054fc",
	"L0/n=65536/nested=true":    "8dfed071948f39524fd35d8e18f91b8d777cc1a8efe8142d11f434a0ef118c73",
	"L0/n=1048576/nested=false": "a0af7a62400805779045dbeee9ce742ca69438af57956a7e9b7246608da87db0",
	"L0/n=1048576/nested=true":  "a7938eab7fe69eb08152747d7d998ae73cf6207c07cdc8e021c6c99a89e0b0c7",
	"Lp/p=0.5":                  "fcbd29a8e6c2b6eb0d0a824fcb891a71974b2c2e027c6d1f196e9795b23b0bb6",
	"Lp/p=1":                    "8985a0551d069ada6d51583ebe1cc2ab4fe81503293b9296b62e65211c989eeb",
	"Lp/p=1.5":                  "101b79394931282bae63162f87c13c1af2edca86e3843c55b658b440c43e2b93",
}
