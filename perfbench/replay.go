package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// span is one timed call into a layer during the replay.
type span struct {
	name       string
	req        int32 // index of the request in the replayed log
	parent     int32 // enclosing span, -1 for none
	start, end int64 // ns since the recorder's epoch
	units      int64 // work inside: updates, bytes or items
}

// recorder keeps the replay's spans in memory. A nil recorder records
// nothing, which is the untraced replay.
type recorder struct {
	epoch time.Time
	spans []span
	cur   int32
	req   int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), cur: -1} }

func (r *recorder) begin(name string, units int) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, req: r.req, parent: r.cur, start: int64(time.Since(r.epoch)), units: int64(units)})
	r.cur = int32(len(r.spans) - 1)
	return r.cur
}

func (r *recorder) end(i int32) {
	if r == nil {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
	r.cur = r.spans[i].parent
}

// setUnits records the work done inside span i once it is known.
func (r *recorder) setUnits(i int32, units int) {
	if r != nil {
		r.spans[i].units = int64(units)
	}
}

// captureSink stands in for a sketch replica inside the replay's engine:
// it keeps a copy of every per-shard batch the engine hands its worker, so
// routing is timed on its own and the batches are absorbed afterwards.
type captureSink struct {
	mu      sync.Mutex
	batches [][]stream.Update
}

func (c *captureSink) Process(u stream.Update) { c.ProcessBatch([]stream.Update{u}) }

func (c *captureSink) ProcessBatch(b []stream.Update) {
	cp := append([]stream.Update(nil), b...)
	c.mu.Lock()
	c.batches = append(c.batches, cp)
	c.mu.Unlock()
}

func (c *captureSink) take() [][]stream.Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.batches
	c.batches = nil
	return out
}

// replaySketch is the in-process stand-in for one registered sketch, built
// from the same public pieces the server's registry entry wires together.
type replaySketch struct {
	def                         sketchDef
	eng                         *engine.Engine[*captureSink]
	sinks                       []*captureSink
	replicas                    []streamsample.Sketch
	journal, folds              *checkpoint.Store
	tree                        *sketchd.MergeTree
	folded                      streamsample.Sketch
	absorb                      string // span name of the replicas' ProcessBatch
	sinceSeal                   int
	foldedUploads, foldedSealed int64
}

// replayer re-runs a request log in one goroutine, calling each layer's
// public functions in the order the server's handlers call them and
// wrapping every call in a span. Asynchronous engine work (the replicas'
// ProcessBatch) runs inline here, so every span's time is that layer's own.
type replayer struct {
	rec *recorder
	sks []*replaySketch
	// fingerprint timing: codec.Fingerprint on every raw frame's payload,
	// outside the span tree (the frame decode already runs it once).
	fpTime  time.Duration
	fpBytes int
	// query outcomes
	samples, sampleFails int
}

// server-side settings the replay mirrors: the engine shard count and merge
// tree shape come from the server's /statsz, the seal cadences are the
// sketchd defaults.
type replayConfig struct {
	shards, leaves, fanIn int
}

func newReplayer(w *workload, rec *recorder, dir string, cfg replayConfig) (*replayer, error) {
	r := &replayer{} // set-up is not recorded
	for i, d := range w.sketches {
		zero, err := d.spec.Build()
		if err != nil {
			return nil, err
		}
		specBytes, err := zero.MarshalBinary()
		if err != nil {
			return nil, err
		}
		load := func() (streamsample.Sketch, error) { return streamsample.Load(specBytes) }
		rs := &replaySketch{def: d, absorb: d.spec.Kind + ".absorb"}
		rs.eng = engine.New(engine.Config{Shards: cfg.shards}, func(int) *captureSink {
			c := &captureSink{}
			rs.sinks = append(rs.sinks, c)
			return c
		}, func(_, _ *captureSink) error { return nil })
		r.sks = append(r.sks, rs)
		for range cfg.shards {
			s, err := load()
			if err != nil {
				return nil, err
			}
			rs.replicas = append(rs.replicas, s)
		}
		if rs.folded, err = load(); err != nil {
			return nil, err
		}
		rs.tree = sketchd.NewMergeTree(cfg.leaves, cfg.fanIn, load)
		base := filepath.Join(dir, fmt.Sprint(i))
		if rs.journal, err = checkpoint.Open(filepath.Join(base, "engine"), checkpoint.Options{}); err != nil {
			return nil, err
		}
		if rs.folds, err = checkpoint.Open(filepath.Join(base, "merged"), checkpoint.Options{}); err != nil {
			return nil, err
		}
		// Creating a sketch seals generation zero.
		if err := r.engineCheckpoint(rs); err != nil {
			return nil, err
		}
	}
	r.rec = rec
	return r, nil
}

func (r *replayer) close() {
	for _, rs := range r.sks {
		rs.eng.Close()
		//nolint:errcheck // replay scratch stores, removed with their directory
		_ = rs.journal.Close()
		//nolint:errcheck // as above
		_ = rs.folds.Close()
	}
}

// apply replays request i. For a /bytes request it returns the bytes.
func (r *replayer) apply(i int, req request) ([]byte, error) {
	rs := r.sks[req.sk]
	if r.rec != nil {
		r.rec.req = int32(i)
	}
	switch req.op {
	case opRaw:
		frame := sketchd.AppendFrame(nil, req.batch) // the client's work
		root := r.rec.begin("req.raw", len(req.batch))
		err := r.raw(rs, frame)
		r.rec.end(root)
		t0 := time.Now()
		codec.Fingerprint(frame[codec.RecordOverhead:])
		r.fpTime += time.Since(t0)
		r.fpBytes += len(frame) - codec.RecordOverhead
		return nil, err
	case opUpload:
		root := r.rec.begin("req.upload", 1)
		defer r.rec.end(root)
		sp := r.rec.begin("codec.load", len(req.blob))
		s, err := streamsample.Load(req.blob)
		r.rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = r.rec.begin("mergetree.add", 1)
		err = rs.tree.Add(s)
		r.rec.end(sp)
		if err != nil {
			return nil, err
		}
		if rs.tree.Pending() >= uploadSealEvery {
			return nil, r.checkpoint(rs)
		}
		return nil, nil
	case opSample:
		root := r.rec.begin("req.sample", 1)
		defer r.rec.end(root)
		m, err := r.merged(rs)
		if err != nil {
			return nil, err
		}
		sp := r.rec.begin(rs.def.spec.Kind+".sample", 1)
		var ok bool
		switch s := m.(type) {
		case *streamsample.L0Sampler:
			_, _, ok = s.Sample()
		case *streamsample.LpSampler:
			_, _, ok = s.Sample()
		}
		r.rec.end(sp)
		r.samples++
		if !ok {
			r.sampleFails++
		}
		return nil, nil
	case opCheckpoint:
		root := r.rec.begin("req.checkpoint", 1)
		defer r.rec.end(root)
		return nil, r.checkpoint(rs)
	case opBytes:
		root := r.rec.begin("req.bytes", 1)
		defer r.rec.end(root)
		m, err := r.merged(rs)
		if err != nil {
			return nil, err
		}
		sp := r.rec.begin("codec.marshal", 0)
		b, err := m.MarshalBinary()
		r.rec.setUnits(sp, len(b))
		r.rec.end(sp)
		return b, err
	}
	return nil, fmt.Errorf("replay: unknown op %v", req.op)
}

// raw mirrors the /updates handler for one frame: decode (with its
// fingerprint check), write-ahead journal append, engine routing, and the
// periodic seal every checkpointEvery routed updates.
func (r *replayer) raw(rs *replaySketch, frame []byte) error {
	sp := r.rec.begin("wire.decode", 0)
	batch, err := sketchd.NewFrameReader(bytes.NewReader(frame), rs.def.spec.N).Next()
	r.rec.setUnits(sp, len(batch))
	r.rec.end(sp)
	if err != nil {
		return err
	}
	sp = r.rec.begin("journal.append", len(frame))
	err = rs.journal.Append(batch)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	sp = r.rec.begin("engine.route", len(batch))
	rs.eng.ProcessBatch(batch)
	r.rec.end(sp)
	r.absorb(rs)
	if rs.sinceSeal += len(batch); rs.sinceSeal >= checkpointEvery {
		sp = r.rec.begin("seal", 0)
		err = r.engineCheckpoint(rs)
		r.rec.end(sp)
	}
	return err
}

// absorb feeds the per-shard batches the engine has handed its workers so
// far into the shard replicas.
func (r *replayer) absorb(rs *replaySketch) {
	for s, sink := range rs.sinks {
		for _, b := range sink.take() {
			sp := r.rec.begin(rs.absorb, len(b))
			rs.replicas[s].(stream.BatchSink).ProcessBatch(b)
			r.rec.end(sp)
		}
	}
}

// snapshot mirrors Engine.Snapshot: quiesce (flush every partial batch and
// absorb it), then marshal every replica.
func (r *replayer) snapshot(rs *replaySketch) ([][]byte, error) {
	sp := r.rec.begin("engine.snapshot", len(rs.replicas))
	defer r.rec.end(sp)
	if _, err := rs.eng.Snapshot(func(*captureSink) ([]byte, error) { return nil, nil }); err != nil {
		return nil, err
	}
	r.absorb(rs)
	blobs := make([][]byte, len(rs.replicas))
	for i, rep := range rs.replicas {
		m := r.rec.begin("codec.marshal", 0)
		b, err := rep.MarshalBinary()
		r.rec.setUnits(m, len(b))
		r.rec.end(m)
		if err != nil {
			return nil, err
		}
		blobs[i] = b
	}
	return blobs, nil
}

// engineCheckpoint mirrors Engine.CheckpointNow: snapshot, then a durable
// generation that also rotates the journal.
func (r *replayer) engineCheckpoint(rs *replaySketch) error {
	blobs, err := r.snapshot(rs)
	if err != nil {
		return err
	}
	n := 0
	for _, b := range blobs {
		n += len(b)
	}
	sp := r.rec.begin("checkpoint.save", n)
	_, err = rs.journal.Save(blobs)
	r.rec.end(sp)
	rs.sinceSeal = 0
	return err
}

// checkpoint mirrors the registry entry's Checkpoint: flush the merge tree
// into the upload fold, seal the fold when it changed, then checkpoint the
// engine.
func (r *replayer) checkpoint(rs *replaySketch) error {
	sp := r.rec.begin("seal", 0)
	defer r.rec.end(sp)
	f := r.rec.begin("mergetree.flush", 0)
	n, err := rs.tree.FlushInto(rs.folded)
	r.rec.setUnits(f, int(n))
	r.rec.end(f)
	if err != nil {
		return err
	}
	rs.foldedUploads += n
	if rs.foldedUploads != rs.foldedSealed {
		m := r.rec.begin("codec.marshal", 0)
		blob, err := rs.folded.MarshalBinary()
		r.rec.setUnits(m, len(blob))
		r.rec.end(m)
		if err != nil {
			return err
		}
		c := r.rec.begin("checkpoint.save", len(blob)+8)
		_, err = rs.folds.Save([][]byte{blob, binary.LittleEndian.AppendUint64(nil, uint64(rs.foldedUploads))})
		r.rec.end(c)
		if err != nil {
			return err
		}
		rs.foldedSealed = rs.foldedUploads
	}
	return r.engineCheckpoint(rs)
}

// merged mirrors the registry entry's Merged: snapshot the engine, load and
// fold the shard blobs, flush the merge tree into the upload fold and fold
// that in too.
func (r *replayer) merged(rs *replaySketch) (streamsample.Sketch, error) {
	blobs, err := r.snapshot(rs)
	if err != nil {
		return nil, err
	}
	sp := r.rec.begin("query.merged", len(blobs))
	defer r.rec.end(sp)
	m, err := streamsample.Load(blobs[0])
	if err != nil {
		return nil, err
	}
	for _, b := range blobs[1:] {
		s, err := streamsample.Load(b)
		if err != nil {
			return nil, err
		}
		if err := m.Merge(s); err != nil {
			return nil, err
		}
	}
	n, err := rs.tree.FlushInto(rs.folded)
	if err != nil {
		return nil, err
	}
	rs.foldedUploads += n
	return m, m.Merge(rs.folded)
}

// replayLog replays every request of log in order and returns the bytes
// of the barrier's /bytes requests, one per sketch.
func replayLog(w *workload, log []sent, rec *recorder, dir string, cfg replayConfig) (*replayer, [][]byte, error) {
	r, err := newReplayer(w, rec, dir, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer r.close()
	barrier := make([][]byte, len(w.sketches))
	for i, s := range log {
		b, err := r.apply(i, s.req)
		if err != nil {
			return nil, nil, fmt.Errorf("replaying request %d (%v): %w", i, s.req.op, err)
		}
		if s.stage == timed && s.req.op == opBytes {
			barrier[s.req.sk] = b
		}
	}
	return r, barrier, nil
}
