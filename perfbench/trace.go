package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// runTrace is the traced run. It drives the workload against the real
// binary exactly as the untraced run does (which gives the server CPU the
// ledger is held against, the connection counts and the request log), then
// replays that log three times in-process: through the server's HTTP
// handler with each handler call timed, and straight through each layer's
// public functions, once untraced and once with spans.
func runTrace(ctx context.Context, e env, w *workload, seed uint64, dur time.Duration) (*outcome, error) {
	dir, err := os.MkdirTemp(e.work, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	data := filepath.Join(dir, "data")
	srv, _, err := setUp(ctx, e, w, data)
	if err != nil {
		return nil, err
	}
	defer func() {
		//nolint:errcheck // teardown; kill waits for the process
		_ = srv.kill()
	}()
	ph, err := drive(ctx, srv, w, e.size, dur)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.count(ph.sent)
	if o.Failed > 0 {
		return failedOutcome(o, fmt.Errorf("%d of %d requests failed", o.Failed, o.Attempted))
	}
	v, err := verify(w, ph)
	if err != nil {
		return failedOutcome(o, err)
	}
	if err := srv.kill(); err != nil {
		return nil, err
	}
	rcv, err := recoverInProcess(w, data, v.final)
	if err != nil {
		return failedOutcome(o, err)
	}

	mt := ph.statsz.Sketches[0].MergeTree
	cfg := replayConfig{shards: ph.shards(), leaves: mt.Leaves, fanIn: mt.FanIn}
	handler, hbytes, err := handlerReplay(ctx, w, ph.sent, filepath.Join(dir, "handler"))
	if err != nil {
		return nil, err
	}
	if _, err := checkBytes(w, hbytes, v.barrier, "in-process server replay", false); err != nil {
		return failedOutcome(o, err)
	}
	t0 := time.Now()
	if _, _, err := replayLog(w, ph.sent, nil, filepath.Join(dir, "plain"), cfg); err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	rec := newRecorder()
	t0 = time.Now()
	rp, rbytes, err := replayLog(w, ph.sent, rec, filepath.Join(dir, "traced"), cfg)
	if err != nil {
		return nil, err
	}
	traced := time.Since(t0)
	if _, err := checkBytes(w, rbytes, v.barrier, "layer replay", false); err != nil {
		return failedOutcome(o, err)
	}
	probe, probeRec, err := runProbe(seed, filepath.Join(dir, "probe"), cfg)
	if err != nil {
		return nil, err
	}

	ws, ps := summarize(rec, nil), summarize(probeRec, nil)
	fromProbe := map[string]bool{}
	// pick returns the workload's spans of one name for a metric, or the
	// probe's when the layer is idle on this workload.
	pick := func(metric, span string) *layerStats {
		if s := ws[span]; s != nil {
			return s
		}
		fromProbe[metric] = true
		if s := ps[span]; s != nil {
			return s
		}
		return &layerStats{}
	}
	fp := rp
	if rp.fpBytes == 0 {
		fp = probe
		fromProbe["codec.fingerprint_ns_per_kb"] = true
	}
	var lag []float64
	for _, s := range ph.sent {
		if w.measuredQuery(s) {
			lag = append(lag, ms(s.start-s.due))
		}
	}
	var routed, checkpoints, leafFolds int64
	for _, st := range ph.statsz.Sketches {
		routed += st.Engine.Routed
		checkpoints += st.Engine.Checkpoints
		leafFolds += st.MergeTree.LeafFolds
	}
	handlerUS, overheadUS, httpSelf := handlerFigures(rec, ph.sent, handler)
	newConns := 0
	for _, s := range ph.sent {
		if !s.reused {
			newConns++
		}
	}
	l := ledger(w, rec, ph, httpSelf)

	o.Correct = true
	o.Metrics = map[string]metric{
		"http.requests":               {float64(len(handler)), "count"},
		"http.handler_us_p50":         {quantile(handlerUS, 0.5), "us"},
		"http.overhead_us_per_req":    {quantile(overheadUS, 0.5), "us"},
		"http.conns_new":              {float64(newConns), "count"},
		"http.conn_reuse_ratio":       {reuseRatio(ph.sent), "ratio"},
		"wire.frames":                 {float64(ws.count("wire.decode")), "count"},
		"wire.decode_ns_per_update":   {pick("wire.decode_ns_per_update", "wire.decode").nsPerUnit(), "ns"},
		"codec.fingerprint_ns_per_kb": {float64(fp.fpTime.Nanoseconds()) / (float64(fp.fpBytes) / 1024), "ns"},
		"journal.appends":             {float64(ws.count("journal.append")), "count"},
		"journal.bytes":               {float64(ws.units("journal.append")), "bytes"},
		"journal.append_us_p50":       {pick("journal.append_us_p50", "journal.append").p50() / 1e3, "us"},
		"seal.count":                  {float64(ws.count("seal")), "count"},
		"seal.ms_p50":                 {pick("seal.ms_p50", "seal").p50() / 1e6, "ms"},
		"seal.bytes":                  {float64(ws.units("checkpoint.save")), "bytes"},
		"recovery.open_ms":            {rcv.open.Seconds() * 1e3, "ms"},
		"recovery.replayed_updates":   {float64(rcv.replayed), "count"},
		"engine.routed":               {float64(routed), "count"},
		"engine.checkpoints":          {float64(checkpoints), "count"},
		"engine.route_ns_per_update":  {pick("engine.route_ns_per_update", "engine.route").nsPerUnit(), "ns"},
		"engine.snapshot_ms_p50":      {pick("engine.snapshot_ms_p50", "engine.snapshot").p50() / 1e6, "ms"},
		"engine.workers":              {float64(len(w.sketches) * cfg.shards), "count"},
		"l0.absorb_ns_per_update":     {pick("l0.absorb_ns_per_update", "l0.absorb").nsPerUnit(), "ns"},
		"l0.serial_updates_per_s":     {float64(v.l0Updates) / v.l0Time.Seconds(), "updates/s"},
		"lp.absorb_ns_per_update":     {pick("lp.absorb_ns_per_update", "lp.absorb").nsPerUnit(), "ns"},
		"query.merged_ms_p50":         {pick("query.merged_ms_p50", "query.merged").p50() / 1e6, "ms"},
		"l0.sample_us_p50":            {pick("l0.sample_us_p50", "l0.sample").p50() / 1e3, "us"},
		"lp.sample_ms_p50":            {pick("lp.sample_ms_p50", "lp.sample").p50() / 1e6, "ms"},
		"sample.fail_ratio":           {float64(rp.sampleFails) / float64(max(rp.samples, 1)), "ratio"},
		"mergetree.adds":              {float64(ws.count("mergetree.add")), "count"},
		"mergetree.leaf_folds":        {float64(leafFolds), "count"},
		"mergetree.add_us_p50":        {pick("mergetree.add_us_p50", "mergetree.add").p50() / 1e3, "us"},
		"mergetree.flush_ms_p50":      {pick("mergetree.flush_ms_p50", "mergetree.flush").p50() / 1e6, "ms"},
		"codec.load_us_p50":           {pick("codec.load_us_p50", "codec.load").p50() / 1e3, "us"},
		"codec.upload_bytes":          {float64(ws.units("codec.load")), "bytes"},
		"codec.marshal_us_p50":        {pick("codec.marshal_us_p50", "codec.marshal").p50() / 1e3, "us"},
		"loadgen.lag_ms_p99":          {quantile(lag, 0.99), "ms"},
		"trace.overhead_pct":          {(traced.Seconds()/untraced.Seconds() - 1) * 100, "%"},
		"ledger.residual_pct":         {l.residualPct(), "%"},
	}

	for _, m := range perLayer {
		v := o.Metrics[m.name]
		src := ""
		if fromProbe[m.name] {
			src = "  (from the probe: idle on this workload)"
		}
		fmt.Fprintf(e.log, "%-28s %16.4f %-9s moves %s on %s%s\n", m.name, v.Value, v.Unit, m.moves, m.on, src)
	}
	l.print(e.log)
	fmt.Fprintf(e.log, "replay: %d requests, untraced %.3fs, traced %.3fs; %d spans\n",
		len(ph.sent), untraced.Seconds(), traced.Seconds(), len(rec.spans))
	if rcv.rounded > 0 {
		fmt.Fprintf(e.log, "known defect: in-process recovery left %d Lp state words differing from the reference by float rounding only\n", rcv.rounded)
	}
	path := filepath.Join(e.work, "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
	if err := writeSpans(path, rec, probeRec); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "spans written to %s\n", path)
	return o, nil
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	durs  []float64 // ns
	units int64
	total int64 // ns
	self  int64 // ns: duration minus the time covered by child spans
}

func (s *layerStats) p50() float64 { return quantile(s.durs, 0.5) }

func (s *layerStats) nsPerUnit() float64 { return float64(s.total) / float64(max(s.units, 1)) }

type spanSummary map[string]*layerStats

func (m spanSummary) count(name string) int {
	if s := m[name]; s != nil {
		return len(s.durs)
	}
	return 0
}

func (m spanSummary) units(name string) int64 {
	if s := m[name]; s != nil {
		return s.units
	}
	return 0
}

// summarize aggregates a recorder's spans by name; keep, when non-nil,
// selects the requests whose spans count.
func summarize(r *recorder, keep func(req int32) bool) spanSummary {
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := spanSummary{}
	for i, s := range r.spans {
		if keep != nil && !keep(s.req) {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		d := s.end - s.start
		st.durs = append(st.durs, float64(d))
		st.units += s.units
		st.total += d
		st.self += d - children[i]
	}
	return out
}

// handlerFigures pairs each request's in-process handler time with the
// replay's time for the same request. A request's layer time is its root
// span minus the replica absorbs inside it, which the server runs on its
// engine workers, not in the handler. It returns the handler times, the
// per-request differences (both in µs) and the summed difference over the
// timed requests, the HTTP layer's own share in the ledger.
func handlerFigures(rec *recorder, log []sent, handler []time.Duration) (handlerUS, overheadUS []float64, httpSelf time.Duration) {
	layers := make([]int64, len(log))
	for _, s := range rec.spans {
		d := s.end - s.start
		switch {
		case s.parent < 0 && strings.HasPrefix(s.name, "req."):
			layers[s.req] += d
		case strings.HasSuffix(s.name, ".absorb"):
			layers[s.req] -= d
		}
	}
	for i, h := range handler {
		handlerUS = append(handlerUS, float64(h.Nanoseconds())/1e3)
		diff := h - time.Duration(layers[i])
		overheadUS = append(overheadUS, float64(diff.Nanoseconds())/1e3)
		if log[i].stage == timed {
			httpSelf += diff
		}
	}
	return handlerUS, overheadUS, httpSelf
}

// ledgerRow is one layer's self time over the timed requests.
type ledgerRow struct {
	name string
	self time.Duration
}

type ledgerTable struct {
	workload string
	cpu      float64 // server_cpu_s of the timed phase
	rows     []ledgerRow
}

// ledger sums each layer's self time over the timed requests of the
// replay, adds the HTTP handler's own time, and holds the sum against the
// server CPU of the same requests.
func ledger(w *workload, rec *recorder, ph *phase, httpSelf time.Duration) *ledgerTable {
	inTimed := func(req int32) bool { return ph.sent[req].stage == timed }
	t := &ledgerTable{workload: w.name, cpu: ph.cpu}
	for name, st := range summarize(rec, inTimed) {
		if strings.HasPrefix(name, "req.") {
			continue // the replay's own loop, not a server layer
		}
		t.rows = append(t.rows, ledgerRow{name, time.Duration(st.self)})
	}
	t.rows = append(t.rows, ledgerRow{"http (handler minus layers)", httpSelf})
	sort.Slice(t.rows, func(i, j int) bool { return t.rows[i].self > t.rows[j].self })
	return t
}

func (t *ledgerTable) layers() float64 {
	var sum time.Duration
	for _, r := range t.rows {
		sum += r.self
	}
	return sum.Seconds()
}

func (t *ledgerTable) residualPct() float64 { return (t.cpu - t.layers()) / t.cpu * 100 }

func (t *ledgerTable) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %s: layer self time against server_cpu_s %.3fs of the timed phase\n", t.workload, t.cpu)
	for _, r := range t.rows {
		fmt.Fprintf(w, "  %-30s %9.3fs %6.1f%%\n", r.name, r.self.Seconds(), r.self.Seconds()/t.cpu*100)
	}
	fmt.Fprintf(w, "  %-30s %9.3fs %6.1f%%\n", "sum of layers", t.layers(), t.layers()/t.cpu*100)
	fmt.Fprintf(w, "  %-30s %9.3fs %6.1f%%\n", "residual (unattributed)", t.cpu-t.layers(), t.residualPct())
}

// recovery is the in-process view of the killed server's data directory.
type recovery struct {
	open     time.Duration // sketchd.OpenRegistry
	replayed int           // journal tail updates Store.Latest returns
	rounded  int           // Lp state words equal to the reference only up to rounding
}

// recoverInProcess reads the journal tails the SIGKILL left (the registry
// keeps each sketch's engine store under tenants/<tenant>/<name>/engine),
// then times OpenRegistry on the directory and checks every recovered
// sketch against want.
func recoverInProcess(w *workload, data string, want [][]byte) (*recovery, error) {
	rcv := &recovery{}
	for _, d := range w.sketches {
		st, err := checkpoint.Open(filepath.Join(data, "tenants", d.tenant, d.name, "engine"), checkpoint.Options{})
		if err != nil {
			return nil, err
		}
		latest, err := st.Latest()
		//nolint:errcheck // read-only use
		_ = st.Close()
		if err != nil {
			return nil, fmt.Errorf("reading the killed journal of %s/%s: %w", d.tenant, d.name, err)
		}
		rcv.replayed += latest.TailUpdates
	}
	t0 := time.Now()
	reg, err := sketchd.OpenRegistry(sketchd.RegistryConfig{Dir: data})
	rcv.open = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("recovering the killed data directory: %w", err)
	}
	var got [][]byte
	for _, d := range w.sketches {
		e, err := reg.Get(d.tenant, d.name)
		if err != nil {
			return nil, err
		}
		m, err := e.Merged()
		if err != nil {
			return nil, err
		}
		b, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		got = append(got, b)
	}
	if err := reg.Drain(); err != nil {
		return nil, err
	}
	rcv.rounded, err = checkBytes(w, got, want, "after in-process recovery", true)
	return rcv, err
}

type reqIDKey struct{}

const reqIDHeader = "X-Perfbench-Request"

// idTransport tags each request with its index in the replayed log, so
// the server side can attribute the handler time.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.Itoa(id))
	}
	return t.base.RoundTrip(r)
}

// handlerReplay serves a fresh registry in-process through the sketchd
// handler, replays the log one request at a time through the public
// client, and times each handler call. It returns the handler times and
// the barrier's /bytes.
func handlerReplay(ctx context.Context, w *workload, log []sent, dir string) ([]time.Duration, [][]byte, error) {
	reg, err := sketchd.OpenRegistry(sketchd.RegistryConfig{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		//nolint:errcheck // replay scratch registry
		_ = reg.Drain()
	}()
	inner := sketchd.NewServer(reg)
	var mu sync.Mutex
	durs := make([]time.Duration, len(log))
	h := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		inner.ServeHTTP(rw, r)
		d := time.Since(t0)
		if id, err := strconv.Atoi(r.Header.Get(reqIDHeader)); err == nil && id >= 0 && id < len(durs) {
			mu.Lock()
			durs[id] = d
			mu.Unlock()
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		//nolint:errcheck // Serve's result below is what matters
		_ = hs.Close()
		<-served
	}()

	c, tr := newClient("http://"+ln.Addr().String(), 1, &connGauge{}, func(rt http.RoundTripper) http.RoundTripper {
		return idTransport{rt}
	})
	defer tr.CloseIdleConnections()
	if err := createAll(ctx, c, w); err != nil {
		return nil, nil, err
	}
	barrier := make([][]byte, len(w.sketches))
	t0 := time.Now()
	for i, s := range log {
		r := send(context.WithValue(ctx, reqIDKey{}, i), c, w, s.req, t0, time.Since(t0))
		if r.err != nil {
			return nil, nil, fmt.Errorf("in-process replay of request %d: %w", i, r.err)
		}
		if s.stage == timed && s.req.op == opBytes {
			barrier[s.req.sk] = r.blob
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]time.Duration(nil), durs...), barrier, nil
}

// runProbe replays a small fixed log that reaches every layer: raw frames
// into an L0 and an Lp sketch (one periodic seal), 128 exporter uploads
// (two upload seals), and queries on both. A per-layer timing the
// workload's own replay has no span for is taken from here, so every
// per-layer metric is a measurement; the output marks those lines.
func runProbe(seed uint64, dir string, cfg replayConfig) (*replayer, *recorder, error) {
	w := &workload{name: "probe", sketches: []sketchDef{
		l0Def("probe", sketchSeed),
		{tenant: "probe", name: "lp", spec: sketchd.Spec{Kind: "lp", N: lpN, P: 1, Seed: sketchSeed}},
	}}
	rng := rand.New(rand.NewPCG(seed, 99))
	var log []sent
	add := func(r request) { log = append(log, sent{req: r, stage: timed}) }
	l0 := stream.RandomTurnstile(l0N, 40*rawFrameUpdates, maxAbs, rng)
	for lo := 0; lo < len(l0); lo += rawFrameUpdates {
		add(request{op: opRaw, sk: 0, batch: l0[lo : lo+rawFrameUpdates]})
	}
	lp := stream.RandomTurnstile(lpN, 16*mixedFrameUpdates, maxAbs, rng)
	for lo := 0; lo < len(lp); lo += mixedFrameUpdates {
		add(request{op: opRaw, sk: 1, batch: lp[lo : lo+mixedFrameUpdates]})
	}
	up := stream.RandomTurnstile(l0N, 2*uploadSealEvery*uploadSliceUpdates, maxAbs, rng)
	for lo := 0; lo < len(up); lo += uploadSliceUpdates {
		s, err := w.sketches[0].spec.Build()
		if err != nil {
			return nil, nil, err
		}
		s.(stream.BatchSink).ProcessBatch(up[lo : lo+uploadSliceUpdates])
		blob, err := s.MarshalBinary()
		if err != nil {
			return nil, nil, err
		}
		add(request{op: opUpload, sk: 0, blob: blob})
	}
	for q := range 6 {
		add(request{op: opSample, sk: q % 2})
	}
	rec := newRecorder()
	r, _, err := replayLog(w, log, rec, dir, cfg)
	return r, rec, err
}

// writeSpans writes the workload's and the probe's spans as tab-separated
// lines: source, request, span id, parent, name, start and end (ns), units.
func writeSpans(path string, workload, probe *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "source\treq\tid\tparent\tname\tstart_ns\tend_ns\tunits")
	for _, src := range []struct {
		name string
		rec  *recorder
	}{{"workload", workload}, {"probe", probe}} {
		for i, s := range src.rec.spans {
			fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", src.name, s.req, i, s.parent, s.name, s.start, s.end, s.units)
		}
	}
	return errors.Join(bw.Flush(), f.Close())
}
