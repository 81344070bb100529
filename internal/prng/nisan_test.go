package prng

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
)

// expandReference materializes all blocks of the generator by the recursive
// definition G_j(x) = G_{j-1}(x) || G_{j-1}(h_j(x)), independently of the
// random-access implementation.
func expandReference(g *Nisan) []uint64 {
	var rec func(x field.Elem, level int) []uint64
	rec = func(x field.Elem, level int) []uint64 {
		if level == 0 {
			return []uint64{uint64(x)}
		}
		left := rec(x, level-1)
		hx := field.Add(field.Mul(g.ha[level-1], x), g.hb[level-1])
		right := rec(hx, level-1)
		return append(left, right...)
	}
	return rec(g.x0, g.depth)
}

func TestBlockMatchesRecursiveDefinition(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	g := New(61*32, r) // depth 5
	want := expandReference(g)
	if uint64(len(want)) != g.Blocks() {
		t.Fatalf("reference produced %d blocks, generator says %d", len(want), g.Blocks())
	}
	for b := uint64(0); b < g.Blocks(); b++ {
		if got := g.Block(b); got != want[b] {
			t.Fatalf("Block(%d) = %d, reference %d", b, got, want[b])
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := New(1<<12, rand.New(rand.NewPCG(2, 2)))
	for b := uint64(0); b < 16; b++ {
		if g.Block(b) != g.Block(b) {
			t.Fatal("Block must be deterministic")
		}
	}
}

func TestSeedGrowthIsLogarithmic(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	small := New(1<<10, r)
	big := New(1<<30, r)
	// Output grew by 2^20x; depth (and seed) may only grow additively by ~20
	// levels, i.e. well under a 6x factor from the 2^10 baseline.
	if big.SeedBits() > 6*small.SeedBits() {
		t.Errorf("seed grew too fast: %d -> %d bits", small.SeedBits(), big.SeedBits())
	}
	// Seed of a generator for 2^30 bits must stay well under the output.
	if big.SeedBits() > 64*64 {
		t.Errorf("seed %d bits too large for O(log^2) scaling", big.SeedBits())
	}
}

func TestBitBalance(t *testing.T) {
	g := New(1<<16, rand.New(rand.NewPCG(4, 4)))
	ones := 0
	const total = 1 << 14
	for i := uint64(0); i < total; i++ {
		if g.Bit(i) {
			ones++
		}
	}
	if math.Abs(float64(ones)-total/2) > 6*math.Sqrt(total/4) {
		t.Errorf("bit balance off: %d ones of %d", ones, total)
	}
}

func TestBlocksLookRandomPairwise(t *testing.T) {
	// Adjacent blocks should not be correlated: compare XOR popcount stats.
	g := New(1<<16, rand.New(rand.NewPCG(5, 5)))
	var totalDiff int
	const pairs = 512
	for b := uint64(0); b < pairs; b++ {
		x := g.Block(2 * b)
		y := g.Block(2*b + 1)
		totalDiff += popcount(x ^ y)
	}
	mean := float64(pairs) * BlockBits / 2
	if math.Abs(float64(totalDiff)-mean) > 6*math.Sqrt(mean) {
		t.Errorf("adjacent blocks correlated: %d differing bits, want ~%.0f", totalDiff, mean)
	}
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestFloat64AtRange(t *testing.T) {
	g := New(1<<12, rand.New(rand.NewPCG(6, 6)))
	var sum float64
	const total = 1 << 10
	for b := uint64(0); b < total; b++ {
		f := g.Float64At(b)
		if f <= 0 || f > 1 {
			t.Fatalf("Float64At out of range: %g", f)
		}
		sum += f
	}
	if math.Abs(sum/total-0.5) > 0.05 {
		t.Errorf("Float64At mean %.3f far from 0.5", sum/total)
	}
}

func TestDepthZero(t *testing.T) {
	g := New(1, rand.New(rand.NewPCG(7, 7)))
	if g.Blocks() != 1 {
		t.Fatalf("Blocks() = %d, want 1", g.Blocks())
	}
	if g.Block(0) != g.Block(5) {
		t.Error("single-block generator must wrap all indices to block 0")
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	g1 := New(1<<12, rand.New(rand.NewPCG(8, 8)))
	g2 := New(1<<12, rand.New(rand.NewPCG(9, 9)))
	same := 0
	for b := uint64(0); b < 32; b++ {
		if g1.Block(b) == g2.Block(b) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("independent generators agree on %d of 32 blocks", same)
	}
}

func TestBlockBatchZeroAlloc(t *testing.T) {
	g := New(1<<24, rand.New(rand.NewPCG(10, 10)))
	idx := make([]uint64, 64)
	dst := make([]uint64, 64)
	for i := range idx {
		idx[i] = uint64(i) * 37
	}
	g.BlockBatch(dst, idx) // build the walk tables
	if got := testing.AllocsPerRun(10, func() { g.BlockBatch(dst, idx) }); got != 0 {
		t.Errorf("BlockBatch allocates %v times per call, want 0", got)
	}
}

func BenchmarkBlock(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < b.N; i++ {
		g.Block(uint64(i))
	}
}

// BenchmarkBlockBatchRun measures BlockBatch on runs of 16 consecutive
// blocks at a random base — the per-coordinate membership run of the L0
// sampler, which itself reads it as one Root plus 16 leaf maps (see
// BenchmarkWalkRun). Compare against BenchmarkBlockScalarRun, the same work
// through scalar Block calls.
func BenchmarkBlockBatchRun(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	idx := make([]uint64, 16)
	dst := make([]uint64, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 0x9E3779B97F4A7C15 >> 34 << 4
		for t := range idx {
			idx[t] = base + uint64(t)
		}
		g.BlockBatch(dst, idx)
	}
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkWalkRun is the same 16-block run read the way the L0 sampler
// reads it: one Root for the shared high bits, then one composed leaf map
// per block.
func BenchmarkWalkRun(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	w := g.NewWalk(4)
	var sink field.Elem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := w.Root(uint64(i) * 0x9E3779B97F4A7C15 >> 38)
		for t := uint64(0); t < 16; t++ {
			sink += w.Leaf(t).Apply(root)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "blocks/s")
}

func BenchmarkBlockScalarRun(b *testing.B) {
	g := New(1<<30, rand.New(rand.NewPCG(1, 1)))
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * 0x9E3779B97F4A7C15 >> 34 << 4
		for t := uint64(0); t < 16; t++ {
			sink += g.Block(base + t)
		}
	}
	_ = sink
	b.ReportMetric(float64(b.N*16)/b.Elapsed().Seconds(), "blocks/s")
}

// TestWalkMatchesBlock pins the composed walk tables against the per-bit
// definition for every split of the address: depth 0, depths that are and
// are not multiples of the slice width, low-bit counts from 0 up to the
// depth, and addresses at and beyond Blocks() (which wrap like Block).
func TestWalkMatchesBlock(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 11))
	for _, depth := range []int{0, 1, 2, sliceBits - 1, sliceBits, sliceBits + 1, 2 * sliceBits, 2*sliceBits + 3, 21, 26} {
		g := New(uint64(1)<<depth*BlockBits, r)
		if g.depth != depth {
			t.Fatalf("New sized depth %d, want %d", g.depth, depth)
		}
		addrs := []uint64{0, 1, g.Blocks() - 1, g.Blocks(), g.Blocks() + 1, 3*g.Blocks() + 5, ^uint64(0)}
		for i := 0; i < 200; i++ {
			addrs = append(addrs, r.Uint64N(2*g.Blocks()))
		}
		// The leaf table has 2^low entries, so low stays small (the L0
		// sampler's log2 stride is at most 6) except on shallow generators,
		// where low == depth leaves no hi bits at all.
		for low := 0; low <= depth; low++ {
			if low > 7 && low < depth || low > 10 {
				continue
			}
			w := g.NewWalk(low)
			for _, b := range addrs {
				want := g.Block(b)
				if got := uint64(w.Leaf(b).Apply(w.Root(b >> low))); got != want {
					t.Fatalf("depth %d low %d: walk block %d = %#x, Block = %#x", depth, low, b, got, want)
				}
				if low == 0 {
					if got := uint64(w.Root(b)); got != want {
						t.Fatalf("depth %d: Root(%d) = %#x, Block = %#x", depth, b, got, want)
					}
				}
			}
		}
	}
}

// TestWalkTableSize pins the working-memory claim: at the serving shape
// (the n = 2^16 L0 sampler: depth 21, 4 low bits for a stride of 16) the
// tables stay under 2 KiB.
func TestWalkTableSize(t *testing.T) {
	g := New(uint64(1)<<21*BlockBits, rand.New(rand.NewPCG(12, 12)))
	w := g.NewWalk(4)
	bytes := 8*len(w.top) + 16*len(w.mids) + 16*len(w.leaf)
	if bytes >= 2048 {
		t.Errorf("walk tables take %d bytes at depth 21, want under 2 KiB", bytes)
	}
}

func TestNewWalkRejectsLowAboveDepth(t *testing.T) {
	g := New(61*8, rand.New(rand.NewPCG(13, 13)))
	defer func() {
		if recover() == nil {
			t.Error("NewWalk(depth+1) did not panic")
		}
	}()
	g.NewWalk(g.depth + 1)
}

// BenchmarkNewWalk measures the table build — paid once per sampler, on
// its first ingest.
func BenchmarkNewWalk(b *testing.B) {
	g := New(uint64(1)<<21*BlockBits, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < b.N; i++ {
		g.NewWalk(4)
	}
}
