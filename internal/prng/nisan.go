// Package prng implements Nisan's pseudorandom generator for space-bounded
// computation (Nisan, STOC 1990), which Theorem 2 of the paper uses to
// derandomize the L0 sampler: the generator stretches an O(log^2 n)-bit seed
// into poly(n) bits that fool every logspace tester, including the one that
// checks which index the sampler would output for a fixed support J.
//
// Construction. Pick a block width w and a depth d. The seed is an initial
// block x0 plus d independent pairwise-independent hash functions
// h_1, ..., h_d : {0,1}^w -> {0,1}^w. The output is defined recursively by
//
//	G_0(x) = x
//	G_j(x) = G_{j-1}(x) || G_{j-1}(h_j(x))
//
// so G_d produces 2^d blocks of w bits from a seed of (2d+1)w bits. Crucially
// the construction supports random access: block b is obtained from x0 by
// applying h_j for every set bit j of b, top level first — O(d) field
// operations per block (Block, the reference definition).
//
// We realize blocks as elements of GF(2^61-1) (w = 61) and the pairwise
// hashes as affine maps a*x+b over the field, the standard instantiation.
// Affine maps compose into affine maps, so any stretch of the walk collapses
// exactly into one map (A, B). Walk tables exploit this for batched access:
// per c-bit slice of the address, the composed map of each of the slice's
// 2^c values, so a block costs one table lookup plus one mul-add per slice
// instead of one per address bit. The tables are working memory derived
// from the seed — O(⌈d/c⌉·2^c) words, under 2 KiB at the serving shape —
// never serialized and not counted in SpaceBits, like a sketch's scratch
// buffers. The arithmetic is exact, so every table-composed block is
// bit-identical to Block.
package prng

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/field"
)

// BlockBits is the width w of one output block.
const BlockBits = 61

// sliceBits is the slice width c of the walk tables: 2^c composed maps per
// slice, one mul-add per slice per block.
const sliceBits = 5

// Nisan is an instance of Nisan's generator with random block access.
//
// Block and Bit are pure and safe for concurrent use. BlockBatch and
// Float64Batch build the generator's walk tables on first use and must not
// be called concurrently with each other (one goroutine per generator, the
// same discipline the sketches' scratch buffers already follow).
type Nisan struct {
	depth int
	x0    field.Elem
	ha    []field.Elem // multipliers of h_1..h_depth
	hb    []field.Elem // offsets of h_1..h_depth

	// flat is the full-address walk behind BlockBatch, built on first use.
	flat *Walk
}

// New constructs a generator able to emit at least outputBits pseudorandom
// bits, drawing its seed from r. The depth (and hence the seed size) grows
// logarithmically with outputBits: seed = (2d+1) * 61 bits = O(log^2 n) when
// outputBits = poly(n) and w = Theta(log n).
func New(outputBits uint64, r *rand.Rand) *Nisan {
	blocks := (outputBits + BlockBits - 1) / BlockBits
	depth := 0
	for uint64(1)<<depth < blocks {
		depth++
	}
	g := &Nisan{
		depth: depth,
		x0:    field.New(r.Uint64()),
		ha:    make([]field.Elem, depth),
		hb:    make([]field.Elem, depth),
	}
	for j := 0; j < depth; j++ {
		// Multiplier must be nonzero for the map to be a bijection.
		a := field.New(r.Uint64())
		for a == 0 {
			a = field.New(r.Uint64())
		}
		g.ha[j] = a
		g.hb[j] = field.New(r.Uint64())
	}
	return g
}

// Blocks returns the number of addressable blocks, 2^depth.
func (g *Nisan) Blocks() uint64 { return 1 << g.depth }

// Block returns the b-th 61-bit output block. Blocks beyond Blocks()-1 wrap
// around (callers size the generator so this does not happen in practice).
func (g *Nisan) Block(b uint64) uint64 {
	if g.depth > 0 {
		b &= (1 << g.depth) - 1
	} else {
		b = 0
	}
	x := g.x0
	// Top level chooses first: bit depth-1 of b selects whether h_depth is
	// applied, then recursion continues on lower levels.
	for j := g.depth; j >= 1; j-- {
		if b&(1<<(j-1)) != 0 {
			x = field.Add(field.Mul(g.ha[j-1], x), g.hb[j-1])
		}
	}
	return uint64(x)
}

// BlockBatch writes Block(idx[t]) into dst[t] for every t, in any order:
// each block is one top-slice lookup plus one mul-add per lower c-bit slice
// of its address through the generator's full-address walk tables (built on
// the first call; nothing allocates after it). Addresses beyond Blocks()-1
// wrap exactly like Block. dst and idx must have equal length.
func (g *Nisan) BlockBatch(dst []uint64, idx []uint64) {
	if len(dst) != len(idx) {
		panic("prng: BlockBatch dst/idx length mismatch")
	}
	if g.flat == nil {
		g.flat = g.NewWalk(0)
	}
	w := g.flat
	for t, b := range idx {
		dst[t] = uint64(w.Root(b))
	}
}

// Affine is the map x -> A·x + B over GF(2^61-1). Every h_j is one, and so
// is any composition of them.
type Affine struct{ A, B field.Elem }

// identity is the empty composition.
var identity = Affine{A: 1}

// Apply evaluates the map at x.
func (f Affine) Apply(x field.Elem) field.Elem { return field.Add(field.Mul(f.A, x), f.B) }

// then returns the composition "f, then h": x -> h(f(x)).
func (f Affine) then(h Affine) Affine {
	return Affine{A: field.Mul(h.A, f.A), B: h.Apply(f.B)}
}

// Walk holds the composed walk tables of a generator for addresses split as
// b = hi·2^low + lo. Root(hi) is the walk state after the address bits above
// low (x0 with the top slice already applied, then one mul-add per lower
// c-bit slice of hi); Leaf(lo) is the composed map of the low bits, so
// Block(b) == Leaf(lo).Apply(Root(hi)). A caller reading several blocks at
// one hi — the L0 sampler's per-coordinate membership blocks — pays for the
// root once and then one mul-add per block.
type Walk struct {
	hiMask   uint64
	topShift int          // hi >> topShift selects the top-slice entry
	top      []field.Elem // x0 walked through each top-slice value
	mids     []Affine     // per lower slice (top-most first), 2^c maps each
	leaf     []Affine     // one map per low-bit value
}

// NewWalk builds the walk tables for the given number of low address bits
// (0 ≤ low ≤ Depth). The hi bits split into c-bit slices counted up from
// bit low; the top slice takes the remainder (1..c bits, or none at all when
// low == Depth). Building costs about 2^c compositions per slice — a few
// hundred field multiplies.
func (g *Nisan) NewWalk(low int) *Walk {
	if low < 0 || low > g.depth {
		panic("prng: walk low bits outside [0, depth]")
	}
	hiBits := g.depth - low
	nmid := 0
	if hiBits > 0 {
		nmid = (hiBits - 1) / sliceBits
	}
	topBits := hiBits - nmid*sliceBits
	w := &Walk{
		hiMask:   1<<hiBits - 1,
		topShift: nmid * sliceBits,
		top:      make([]field.Elem, 1<<topBits),
		mids:     make([]Affine, nmid<<sliceBits),
		leaf:     make([]Affine, 1<<low),
	}
	// Top slice: x0 walked through each value of the top topBits bits.
	top := make([]Affine, len(w.top))
	g.composeSlice(top, g.depth-topBits)
	for v, f := range top {
		w.top[v] = f.Apply(g.x0)
	}
	for s := 0; s < nmid; s++ {
		lo := low + (nmid-1-s)*sliceBits
		g.composeSlice(w.mids[s<<sliceBits:(s+1)<<sliceBits], lo)
	}
	g.composeSlice(w.leaf, 0)
	return w
}

// composeSlice fills maps (length 2^c') with the composed map of every
// value of the c' address bits starting at bit lo, top bit first, by
// in-place doubling from the top level down: entry 2i keeps map i and
// entry 2i+1 appends the next level's h_j to it.
func (g *Nisan) composeSlice(maps []Affine, lo int) {
	maps[0] = identity
	for j, m := lo+bits.Len(uint(len(maps)))-2, 1; m < len(maps); j, m = j-1, 2*m {
		h := Affine{g.ha[j], g.hb[j]}
		for i := m - 1; i >= 0; i-- {
			f := maps[i]
			maps[2*i], maps[2*i+1] = f, f.then(h)
		}
	}
}

// Root returns the walk state after the address bits above low of
// hi·2^low, which is Block(hi·2^low) itself (the low bits are all zero).
// Bits of hi beyond the generator's depth wrap, exactly like Block.
func (w *Walk) Root(hi uint64) field.Elem {
	hi &= w.hiMask
	x := w.top[hi>>w.topShift]
	for s, shift := 0, w.topShift; shift > 0; s++ {
		shift -= sliceBits
		x = w.mids[s<<sliceBits|int(hi>>shift&(1<<sliceBits-1))].Apply(x)
	}
	return x
}

// Leaf returns the composed map of the low address bits lo (taken mod
// 2^low).
func (w *Walk) Leaf(lo uint64) Affine { return w.leaf[lo&uint64(len(w.leaf)-1)] }

// Float64Batch writes Float64At(idx[t]) into dst[t] via BlockBatch. The
// membership hot paths avoid the float conversion entirely by comparing raw
// blocks against Threshold values; this variant serves callers that need
// uniforms in (0,1].
func (g *Nisan) Float64Batch(dst []float64, idx []uint64, scratch []uint64) {
	if len(dst) != len(idx) || len(scratch) < len(idx) {
		panic("prng: Float64Batch length mismatch")
	}
	scratch = scratch[:len(idx)]
	g.BlockBatch(scratch, idx)
	for t, v := range scratch {
		dst[t] = (float64(v) + 1) / float64(field.Modulus)
	}
}

// Threshold converts an inclusion probability q into an integer cutoff T
// such that a block value v is "in" iff v < T, with P(v < T) = T/Modulus for
// a uniform block — within 2^-53 relative of q, the float mantissa budget,
// and clamped so q >= 1 always includes (every block is < Modulus). The
// compare replaces the Float64At division of the membership tests with one
// integer comparison.
func Threshold(q float64) uint64 {
	if q >= 1 {
		return field.Modulus
	}
	if q <= 0 {
		return 0
	}
	return uint64(q * float64(field.Modulus))
}

// Bit returns the i-th pseudorandom bit of the output stream.
func (g *Nisan) Bit(i uint64) bool {
	return g.Block(i/BlockBits)>>(i%BlockBits)&1 == 1
}

// Float64At interprets block b as a uniform real in (0,1].
func (g *Nisan) Float64At(b uint64) float64 {
	return (float64(g.Block(b)) + 1) / float64(field.Modulus)
}

// Uint64At returns the block value (61 random bits) at index b.
func (g *Nisan) Uint64At(b uint64) uint64 { return g.Block(b) }

// SeedBits reports the true seed size: the initial block plus (a,b) per level.
func (g *Nisan) SeedBits() int64 {
	return int64(2*g.depth+1) * BlockBits
}

// SpaceBits reports storage rounded to 64-bit words, matching the space
// accounting used by the sketches.
func (g *Nisan) SpaceBits() int64 {
	return int64(2*g.depth+1) * 64
}
