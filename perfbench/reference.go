package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	streamsample "repro"
	"repro/internal/engine"
	"repro/internal/stream"
)

// reference is the serial in-process ingestion of exactly what the server
// acknowledged: one plain sketch per registered sketch, fed every
// acknowledged frame (or the stream slice behind every acknowledged upload)
// in send order, with no HTTP, journal or merge tree in between.
//
// L0 sketches count in integers modulo a prime, so any split and merge of
// the stream gives the same bytes, and their reference is one sketch. Lp
// sketches hold float64 counters, and float addition is not associative:
// the server's merge of its engine shards differs in the last bits from one
// serial sum. Their reference routes the same updates through an in-process
// engine with the server's shard count into one serially fed replica per
// shard, merged in shard order as the server's query path merges them.
type reference struct {
	plain   []streamsample.Sketch                 // L0: one serial sketch
	engines []*engine.Engine[streamsample.Sketch] // Lp: per-shard replicas
	// l0Updates / l0Time: updates fed to the L0 references and the time it
	// took, the single-threaded L0 baseline.
	l0Updates int
	l0Time    time.Duration
}

// newReference builds zero-state references; shards is the server's engine
// shard count (from /statsz). Close it when done.
func newReference(w *workload, shards int) (*reference, error) {
	ref := &reference{plain: make([]streamsample.Sketch, len(w.sketches)), engines: make([]*engine.Engine[streamsample.Sketch], len(w.sketches))}
	for i, d := range w.sketches {
		s, err := d.spec.Build()
		if err != nil {
			return nil, err
		}
		if _, exact := s.(*streamsample.L0Sampler); exact {
			ref.plain[i] = s
			continue
		}
		spec := d.spec
		ref.engines[i] = engine.New(engine.Config{Shards: shards}, func(int) streamsample.Sketch {
			r, _ := spec.Build() // cannot fail: the same spec built above
			return r
		}, func(dst, src streamsample.Sketch) error { return dst.Merge(src) })
	}
	return ref, nil
}

func (ref *reference) close() {
	for _, eng := range ref.engines {
		if eng != nil {
			eng.Close()
		}
	}
}

// ingest feeds the acknowledged ingest requests of log from the stages
// given.
func (ref *reference) ingest(log []sent, stages ...stage) {
	for _, s := range log {
		if s.err != nil || !s.req.op.ingest() || !slices.Contains(stages, s.stage) {
			continue
		}
		if eng := ref.engines[s.req.sk]; eng != nil {
			eng.ProcessBatch(s.req.batch)
			continue
		}
		t0 := time.Now()
		ref.plain[s.req.sk].(stream.BatchSink).ProcessBatch(s.req.batch)
		ref.l0Time += time.Since(t0)
		ref.l0Updates += len(s.req.batch)
	}
}

// bytes marshals every reference sketch as it stands.
func (ref *reference) bytes() ([][]byte, error) {
	out := make([][]byte, len(ref.plain))
	for i, s := range ref.plain {
		if s == nil {
			blobs, err := ref.engines[i].Snapshot(func(r streamsample.Sketch) ([]byte, error) { return r.MarshalBinary() })
			if err != nil {
				return nil, err
			}
			if s, err = streamsample.Load(blobs[0]); err != nil {
				return nil, err
			}
			for _, b := range blobs[1:] {
				r, err := streamsample.Load(b)
				if err != nil {
					return nil, err
				}
				if err := s.Merge(r); err != nil {
					return nil, err
				}
			}
		}
		b, err := s.MarshalBinary()
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// verified is what the reference checks leave for later checks and
// figures: the reference bytes at the barrier and at the SIGKILL, and the
// single-threaded L0 ingest figures.
type verified struct {
	barrier, final [][]byte
	l0Updates      int
	l0Time         time.Duration
}

// verify builds the serial reference of ph's acknowledged requests and
// checks the barrier's /bytes and the post-barrier L0 samples against it.
// Any error means the run did not verify.
func verify(w *workload, ph *phase) (*verified, error) {
	ref, err := newReference(w, ph.shards())
	if err != nil {
		return nil, err
	}
	defer ref.close()
	v := &verified{}
	ref.ingest(ph.sent, warm, timed)
	if v.barrier, err = ref.bytes(); err != nil {
		return nil, err
	}
	if _, err := checkBytes(w, ph.barrier, v.barrier, "after the barrier", false); err != nil {
		return nil, err
	}
	if err := ref.checkSamples(w, ph.sent); err != nil {
		return nil, err
	}
	ref.ingest(ph.sent, after)
	if v.final, err = ref.bytes(); err != nil {
		return nil, err
	}
	v.l0Updates, v.l0Time = ref.l0Updates, ref.l0Time
	return v, nil
}

// checkBytes compares the server's /bytes of every sketch with the
// reference's, byte for byte. roundingOK admits, for Lp sketches only,
// words that differ by float rounding (see roundingAgree) and reports how
// many did; the SIGKILL check needs it because recovery replays the journal
// tail into engine shard 0, which sums the float counters in another order.
func checkBytes(w *workload, got, want [][]byte, when string, roundingOK bool) (rounded int, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%s: %d sketches fetched, want %d", when, len(got), len(want))
	}
	for i, b := range got {
		if bytes.Equal(b, want[i]) {
			continue
		}
		d := w.sketches[i]
		if roundingOK && d.spec.Kind == "lp" {
			if n, ok := roundingAgree(b, want[i]); ok {
				rounded += n
				continue
			}
		}
		return 0, fmt.Errorf("%s: /bytes of %s/%s (%d bytes) differ from the serial reference (%d bytes)",
			when, d.tenant, d.name, len(b), len(want[i]))
	}
	return rounded, nil
}

// lpHeaderLen is the serialized LpSampler's prefix that must match exactly:
// magic, version and kind (8 bytes), six config words and their fingerprint.
const lpHeaderLen = 8 + 7*8

// roundingAgree reports whether two serialized Lp sketches hold the same
// state up to float summation order: equal headers, and every 8-byte state
// word either equal or a pair of finite normal (or zero) floats within
// 1e-9 relative plus 1e-6 absolute of each other. Every update adds at
// least 1 in magnitude to some counter (|delta| >= 1, scale factors
// t^(-1/p) >= 1), so a lost or repeated update cannot pass. It returns the
// number of words that differed.
func roundingAgree(a, b []byte) (int, bool) {
	if len(a) != len(b) || len(a) < lpHeaderLen || (len(a)-8)%8 != 0 || !bytes.Equal(a[:lpHeaderLen], b[:lpHeaderLen]) {
		return 0, false
	}
	n := 0
	for off := lpHeaderLen; off < len(a); off += 8 {
		wa, wb := binary.LittleEndian.Uint64(a[off:]), binary.LittleEndian.Uint64(b[off:])
		if wa == wb {
			continue
		}
		fa, fb := math.Float64frombits(wa), math.Float64frombits(wb)
		if !plainFloat(fa) || !plainFloat(fb) || math.Abs(fa-fb) > 1e-9*math.Max(math.Abs(fa), math.Abs(fb))+1e-6 {
			return n, false
		}
		n++
	}
	return n, true
}

// plainFloat: finite, and zero or normal. Small integers read as float64
// bits are subnormal, so an integer word that differs is never taken for a
// rounding difference.
func plainFloat(f float64) bool {
	return f == 0 || (!math.IsInf(f, 0) && !math.IsNaN(f) && math.Abs(f) >= 0x1p-1022)
}

// checkSamples compares every post-barrier L0 /sample answer with the
// serial sketch's Sample; call it while the reference holds the barrier's
// state.
func (ref *reference) checkSamples(w *workload, log []sent) error {
	for _, s := range log {
		if s.stage != after || s.req.op != opSample || s.err != nil {
			continue
		}
		l0, ok := ref.plain[s.req.sk].(*streamsample.L0Sampler)
		if !ok {
			continue
		}
		idx, val, sampled := l0.Sample()
		got := s.sample
		if got.Ok != sampled || (sampled && (got.Index != idx || got.Value != val)) {
			d := w.sketches[s.req.sk]
			return fmt.Errorf("/sample of %s/%s = (%d, %d, %v), serial reference (%d, %d, %v)",
				d.tenant, d.name, got.Index, got.Value, got.Ok, idx, val, sampled)
		}
	}
	return nil
}
