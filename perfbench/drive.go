package main

import (
	"context"
	"fmt"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"

	"repro/internal/sketchd"
)

// stage says which part of a run a request belongs to.
type stage uint8

const (
	warm  stage = iota // warm-up: acknowledged and verified, not measured
	timed              // the timed phase and its barrier
	after              // post-barrier reads and the recovery tail
)

// sent is one request as the generator issued it, with its outcome.
type sent struct {
	req    request
	due    time.Duration // when it was due, from the phase start
	start  time.Duration // when it was sent, from the phase start
	lat    time.Duration // completion minus due
	err    error
	reused bool // the request rode a kept-alive connection
	stage  stage
	blob   []byte
	sample sketchd.SampleResult
}

// send issues one request through the public client. A raw push whose ACK
// does not cover the whole frame counts as failed.
func send(ctx context.Context, c *sketchd.Client, w *workload, r request, t0 time.Time, due time.Duration) sent {
	s := sent{req: r, due: due, start: time.Since(t0)}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(i httptrace.GotConnInfo) { s.reused = i.Reused },
	})
	d := w.sketches[r.sk]
	switch r.op {
	case opRaw:
		var res sketchd.IngestResult
		res, s.err = c.PushUpdates(ctx, d.tenant, d.name, r.batch)
		if s.err == nil && res.Updates != int64(len(r.batch)) {
			s.err = fmt.Errorf("push acknowledged %d of %d updates", res.Updates, len(r.batch))
		}
	case opUpload:
		s.err = c.PushSketch(ctx, d.tenant, d.name, r.blob, false)
	case opSample:
		s.sample, s.err = c.Sample(ctx, d.tenant, d.name)
	case opCheckpoint:
		s.err = c.Checkpoint(ctx, d.tenant, d.name)
	case opBytes:
		s.blob, s.err = c.Bytes(ctx, d.tenant, d.name)
	}
	s.lat = time.Since(t0) - due
	return s
}

// createAll registers every sketch of the workload.
func createAll(ctx context.Context, c *sketchd.Client, w *workload) error {
	for _, d := range w.sketches {
		if err := c.Create(ctx, d.tenant, d.name, d.spec); err != nil {
			return fmt.Errorf("creating %s/%s: %w", d.tenant, d.name, err)
		}
	}
	return nil
}

// phase is the outcome of driving one workload against a running server.
type phase struct {
	sent    []sent        // every request, ordered by send time
	elapsed time.Duration // start of the timed phase to the end of the barrier
	cpu     float64       // server CPU seconds over the same interval
	conns   *connGauge
	statsz  sketchd.Statsz
	barrier [][]byte // /bytes of every sketch at the barrier
}

// shards is the engine shard count the server reports for its sketches.
func (ph *phase) shards() int { return ph.statsz.Sketches[0].Engine.Shards }

// connections is the most connections the generator opens for w: one per
// closed-loop ingest client plus one for open-loop queries.
func (w *workload) connections() int {
	if w.queryRate > 0 {
		return w.conns + 1
	}
	return w.conns
}

// drive runs a warm-up, the timed phase, the barrier and the post-barrier
// reads against srv. The warm-up (sz.warmUp) and the timed phase (dur) run
// closed-loop ingest on w.conns connections; the timed phase adds open-loop
// queries when w.queryRate > 0. The barrier is /checkpoint (upload-fanin)
// and then /bytes of every sketch, so asynchronous engine work is inside
// the timed interval. After the barrier come open-loop /sample reads:
// sz.readQueries of them when the timed phase had no queries, otherwise one
// per sketch to check the answers. Last come a /checkpoint of every sketch
// and the fixed journal tail the SIGKILL recovery replays (workload.tail).
func drive(ctx context.Context, srv *server, w *workload, sz size, dur time.Duration) (*phase, error) {
	ph := &phase{conns: &connGauge{}}
	c, tr := newClient(srv.base, w.connections(), ph.conns, nil)
	defer tr.CloseIdleConnections()

	var (
		mu   sync.Mutex
		next int
	)
	t0 := time.Now()
	// load runs the closed loops, and queries open-loop /samples from `from`
	// on, until `until` (both from t0).
	load := func(from, until time.Duration, st stage, queries int) {
		var wg sync.WaitGroup
		record := func(batch []sent) {
			mu.Lock()
			ph.sent = append(ph.sent, batch...)
			mu.Unlock()
		}
		for range w.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []sent
				for time.Since(t0) < until && ctx.Err() == nil {
					mu.Lock()
					k := next
					next++
					mu.Unlock()
					req := w.ingest(k)
					s := ph.conns.do(func() sent { return send(ctx, c, w, req, t0, time.Since(t0)) })
					s.stage = st
					local = append(local, s)
				}
				record(local)
			}()
		}
		if queries > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				record(openLoop(ctx, c, ph.conns, w, t0, from, w.queryRate, queries, st))
			}()
		}
		wg.Wait()
	}
	load(0, sz.warmUp, warm, 0)

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	begin := time.Since(t0)
	load(begin, begin+dur, timed, int(dur.Seconds()*w.queryRate))
	var barrier []request
	if w.sealBeforeBarrier {
		for sk := range w.sketches {
			barrier = append(barrier, request{op: opCheckpoint, sk: sk})
		}
	}
	for sk := range w.sketches {
		barrier = append(barrier, request{op: opBytes, sk: sk})
	}
	for _, r := range barrier {
		s := send(ctx, c, w, r, t0, time.Since(t0))
		s.stage = timed
		ph.sent = append(ph.sent, s)
		if r.op == opBytes {
			ph.barrier = append(ph.barrier, s.blob)
		}
	}
	ph.elapsed = time.Since(t0) - begin
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	if ph.statsz, err = c.Statsz(ctx); err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}

	reads := len(w.sketches)
	if w.queryRate == 0 {
		reads = sz.readQueries
	}
	ph.sent = append(ph.sent, openLoop(ctx, c, ph.conns, w, t0, time.Since(t0), sz.readRate, reads, after)...)
	var tail []request
	for sk := range w.sketches {
		tail = append(tail, request{op: opCheckpoint, sk: sk})
	}
	for _, r := range append(tail, w.tail...) {
		s := send(ctx, c, w, r, t0, time.Since(t0))
		s.stage = after
		ph.sent = append(ph.sent, s)
	}
	sort.SliceStable(ph.sent, func(i, j int) bool { return ph.sent[i].start < ph.sent[j].start })
	return ph, nil
}

// queryStride steps the open-loop queries through the sketches 9 at a time.
// Being coprime with the sketch counts (1 and 16), it still visits every
// sketch once per round, but on tenants-mixed the two Lp tenants (14 and
// 15) come 7 and 9 queries apart instead of back to back, so one Lp
// /sample never queues behind the other and the p95 tracks one Lp query,
// not two.
const queryStride = 9

// openLoop issues count /sample requests round-robin over the sketches
// (queryStride apart), the q-th due at from + q/rate. Each is timed from when it was due, so a stall
// also delays the requests queued behind it.
func openLoop(ctx context.Context, c *sketchd.Client, g *connGauge, w *workload, t0 time.Time, from time.Duration, rate float64, count int, st stage) []sent {
	out := make([]sent, 0, count)
	for q := range count {
		due := from + time.Duration(float64(q)/rate*float64(time.Second))
		if d := time.Until(t0.Add(due)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return out
			}
		}
		req := request{op: opSample, sk: q * queryStride % len(w.sketches)}
		s := g.do(func() sent { return send(ctx, c, w, req, t0, due) })
		s.stage = st
		out = append(out, s)
	}
	return out
}
