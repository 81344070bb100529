package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	streamsample "repro"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// Sketch dimensions and update magnitude shared by every workload.
const (
	l0N    = 1 << 16
	lpN    = 1 << 12
	maxAbs = 100
)

// sketchSeed seeds the sketches' own randomness (their hash functions). It
// is part of the workload, like n, and does not follow --seed: a query's
// cost depends on which levels of the sketch recover, which the hash
// functions decide, and with them free each seed would move query latency
// by about 20% for reasons no change to the server could touch. --seed
// drives the update streams and so the exporter blobs.
const sketchSeed = 0x5eed

// The seal cadences are the sketchd defaults, which the replay mirrors; the
// benchmark starts the server without overriding any setting.
const (
	checkpointEvery    = 1 << 16 // raw updates between engine seals, per sketch
	uploadSealEvery    = 64      // uploads between upload seals, per sketch
	rawFrameUpdates    = 2048    // raw-bulk: updates per request
	mixedFrameUpdates  = 64      // tenants-mixed: updates per request
	mixedTenants       = 16
	mixedLpTenants     = 2
	mixedLpEvery       = 4  // tenants-mixed: Lp tenants ingest in one round of this many
	uploadSliceUpdates = 64 // upload-fanin: updates behind each exporter blob
)

// size holds the knobs that scale a run. fullSize is what the command runs;
// the smoke test uses a tiny one.
type size struct {
	warmUp      time.Duration // closed-loop ingest before the timed phase
	setups      int           // set-ups timed before the timed phase; one more beside each recovery
	recoveries  int           // SIGKILL recoveries timed for recovery_s (10%-trimmed mean reported)
	readQueries int           // open-loop /sample queries after the barrier
	readRate    float64       // their rate, per second
	queryRate   float64       // tenants-mixed: open-loop /sample rate beside the writes
	rawPool     int           // raw-bulk: distinct 2048-update frames, sent round-robin
	slices      int           // upload-fanin: exporter blobs (round-robin stream slices)
	mixedPool   int           // tenants-mixed: distinct 64-update frames per tenant
}

// fullSize's queryRate: an Lp /sample takes 100-150 ms, and at 16/s each
// one delays the one or two queries due after it, so 4 to 6 of every 16
// queries wait and the median stays clear of that queue (at 20/s, with the
// Lp queries back to back, it sat on its edge and moved by a quarter
// between runs). 13-s runs give 208 queries, 10 beyond the p95.
var fullSize = size{
	warmUp:      2 * time.Second,
	setups:      5,
	recoveries:  20,
	readQueries: 600,
	readRate:    100,
	queryRate:   16,
	rawPool:     512,
	slices:      4096,
	mixedPool:   256,
}

type opKind uint8

const (
	opRaw        opKind = iota // PushUpdates: one frame of raw updates
	opUpload                   // PushSketch: one exporter blob
	opSample                   // Sample
	opCheckpoint               // Checkpoint
	opBytes                    // Bytes
)

func (o opKind) String() string {
	return [...]string{"raw", "upload", "sample", "checkpoint", "bytes"}[o]
}

func (o opKind) ingest() bool { return o == opRaw || o == opUpload }

// measuredQuery reports whether s is one of the /sample requests the query
// metrics are taken from: those beside the writes when the workload has
// them, otherwise the reads after the barrier.
func (w *workload) measuredQuery(s sent) bool {
	return s.req.op == opSample && (s.stage == timed) == (w.queryRate > 0)
}

// sketchDef is one sketch a workload registers.
type sketchDef struct {
	tenant, name string
	spec         sketchd.Spec
}

// request is one generated client request. batch holds the raw updates a
// request stands for: the frame of an opRaw, or the stream slice an opUpload
// blob was built from (the serial reference ingests it).
type request struct {
	op    opKind
	sk    int
	batch []stream.Update
	blob  []byte
}

// workload is the generated input of one benchmark workload: the sketches,
// the closed-loop ingest sequence and the open-loop query plan.
type workload struct {
	name     string
	sketches []sketchDef
	// conns closed-loop ingest connections draw request k from ingest(k).
	conns  int
	ingest func(k int) request
	// queryRate > 0: one more connection issues open-loop /sample requests
	// round-robin over the sketches beside the writes. Otherwise the same
	// plan runs after the barrier (readQueries at readRate).
	queryRate float64
	// sealBeforeBarrier: one /checkpoint per sketch after the last upload.
	sealBeforeBarrier bool
	// tail: before the SIGKILL every sketch is sealed with /checkpoint and
	// these raw frames follow, so recovery always replays the same journal
	// tail on top of a generation (and, on upload-fanin, reloads the sealed
	// upload fold). Each sketch's share stays under checkpointEvery.
	tail []request
}

// workloads lists each workload with why it was chosen and which older
// measurement it supersedes; BENCHMARK.json carries the same lines.
var workloads = []struct{ name, why string }{
	{"raw-bulk", "2 closed-loop conns push 2048-update frames into one L0 sketch: frame decode, journal, routing, L0 absorb and seals dominate. Supersedes BenchmarkServeIngestRaw, sketchload -mode raw"},
	{"upload-fanin", "2 closed-loop conns POST 4096 prebuilt L0 exporter blobs: HTTP and connections, Load, merge tree and upload seals dominate. Supersedes BenchmarkServeIngestSketch, sketchload -mode sketch"},
	{"tenants-mixed", "14 L0 + 2 Lp tenants: 64-update frames round-robin (Lp in 1 round of 4) beside open-loop /sample at 16/s; per-request, per-tenant and read-path cost; the only Lp workload. Supersedes nothing"},
}

// newWorkload generates a workload's inputs from seed. The same seed yields
// the same inputs; nothing here depends on time.
func newWorkload(name string, seed uint64, sz size) (*workload, error) {
	rng := func(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }
	switch name {
	case "raw-bulk":
		w := &workload{name: name, conns: 2, sketches: []sketchDef{l0Def("bulk", sketchSeed)}}
		pool := stream.RandomTurnstile(l0N, sz.rawPool*rawFrameUpdates, maxAbs, rng(1))
		w.ingest = func(k int) request {
			lo := (k % sz.rawPool) * rawFrameUpdates
			return request{op: opRaw, batch: pool[lo : lo+rawFrameUpdates]}
		}
		w.tail = rawTail(rng(3))
		return w, nil
	case "upload-fanin":
		w := &workload{name: name, conns: 2, sketches: []sketchDef{l0Def("fanin", sketchSeed)}, sealBeforeBarrier: true}
		st := stream.RandomTurnstile(l0N, sz.slices*uploadSliceUpdates, maxAbs, rng(2))
		slices := make([][]stream.Update, sz.slices)
		blobs := make([][]byte, sz.slices)
		for j := range slices {
			for i := j; i < len(st); i += sz.slices {
				slices[j] = append(slices[j], st[i])
			}
			local, err := w.sketches[0].spec.Build()
			if err != nil {
				return nil, err
			}
			local.(*streamsample.L0Sampler).ProcessBatch(slices[j])
			if blobs[j], err = local.MarshalBinary(); err != nil {
				return nil, fmt.Errorf("building exporter blob %d: %w", j, err)
			}
		}
		w.ingest = func(k int) request {
			j := k % sz.slices
			return request{op: opUpload, batch: slices[j], blob: blobs[j]}
		}
		w.tail = rawTail(rng(3))
		return w, nil
	case "tenants-mixed":
		w := &workload{name: name, conns: 1, queryRate: sz.queryRate}
		pools := make([]stream.Stream, mixedTenants)
		for t := range mixedTenants {
			def := l0Def(fmt.Sprintf("t%02d", t), sketchSeed+uint64(t))
			if t >= mixedTenants-mixedLpTenants {
				def = sketchDef{tenant: fmt.Sprintf("t%02d", t), name: "lp",
					spec: sketchd.Spec{Kind: "lp", N: lpN, P: 1, Seed: sketchSeed + uint64(t)}}
			}
			w.sketches = append(w.sketches, def)
			pools[t] = stream.RandomTurnstile(def.spec.N, sz.mixedPool*mixedFrameUpdates, maxAbs, rng(16+uint64(t)))
		}
		// Round-robin over the tenants, but the Lp tenants take part in one
		// round of every mixedLpEvery: an Lp update costs ~20 us against
		// ~0.6 for L0, and with a frame every round the Lp engines absorbed
		// half the server's CPU, ran saturated and made each Lp /sample
		// wait for a backlog whose length swung with the machine's speed
		// (Lp query latency 85-190 ms between runs).
		l0 := mixedTenants - mixedLpTenants
		cycle := mixedLpEvery*l0 + mixedLpTenants
		w.ingest = func(k int) request {
			c, p := k/cycle, k%cycle
			t, frame := p, c*mixedLpEvery // the first round of a cycle has every tenant
			switch {
			case p >= mixedTenants:
				t, frame = (p-mixedTenants)%l0, c*mixedLpEvery+1+(p-mixedTenants)/l0
			case t >= l0:
				frame = c
			}
			lo := (frame % sz.mixedPool) * mixedFrameUpdates
			return request{op: opRaw, sk: t, batch: pools[t][lo : lo+mixedFrameUpdates]}
		}
		for k := range 32 * mixedTenants {
			w.tail = append(w.tail, w.ingest(k))
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want raw-bulk, upload-fanin or tenants-mixed)", name)
	}
}

// rawTail is 31 frames of 2048 updates for sketch 0, the recovery tail of
// the single-sketch workloads.
func rawTail(r *rand.Rand) []request {
	st := stream.RandomTurnstile(l0N, 31*rawFrameUpdates, maxAbs, r)
	var tail []request
	for lo := 0; lo < len(st); lo += rawFrameUpdates {
		tail = append(tail, request{op: opRaw, batch: st[lo : lo+rawFrameUpdates]})
	}
	return tail
}

func l0Def(tenant string, seed uint64) sketchDef {
	return sketchDef{tenant: tenant, name: "l0", spec: sketchd.Spec{Kind: "l0", N: l0N, Seed: seed}}
}
