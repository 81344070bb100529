package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// nproc is the core count the generator is held to.
const nproc = 2

// tinySize runs every workload in about a second.
var tinySize = size{warmUp: 200 * time.Millisecond, setups: 2, recoveries: 2, readQueries: 20, readRate: 200, queryRate: 20, rawPool: 8, slices: 64, mixedPool: 4}

// digest fingerprints the sketch specs and the first k ingest requests.
func digest(w *workload, k int) [32]byte {
	h := sha256.New()
	for _, d := range w.sketches {
		fmt.Fprintf(h, "%s/%s %+v\n", d.tenant, d.name, d.spec)
	}
	var b [16]byte
	for i := range k {
		r := w.ingest(i)
		fmt.Fprintf(h, "%d %d %d\n", r.op, r.sk, len(r.blob))
		h.Write(r.blob)
		for _, u := range r.batch {
			binary.LittleEndian.PutUint64(b[:8], uint64(u.Index))
			binary.LittleEndian.PutUint64(b[8:], uint64(u.Delta))
			h.Write(b[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, wl := range workloads {
		gen := func(seed uint64) [32]byte {
			w, err := newWorkload(wl.name, seed, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			return digest(w, 256)
		}
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", wl.name)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", wl.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue holds BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, got, w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload at a tiny size against a freshly built
// sketchd, untraced and traced: verification passes, every metric is
// printed by name with its unit and lands in the result, and the generator
// keeps at most nproc requests in flight.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs sketchd")
	}
	bin := filepath.Join(t.TempDir(), "sketchd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/sketchd").CombinedOutput(); err != nil {
		t.Fatalf("building sketchd: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w, err := newWorkload(wl.name, 3, tinySize)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			e := env{bin: bin, work: t.TempDir(), size: tinySize, log: &log}

			srv, _, err := setUp(ctx, e, w, filepath.Join(e.work, "gauge"))
			if err != nil {
				t.Fatal(err)
			}
			ph, err := drive(ctx, srv, w, tinySize, time.Second)
			//nolint:errcheck // test teardown
			_ = srv.kill()
			if err != nil {
				t.Fatal(err)
			}
			if n, peak := w.connections(), ph.conns.peak.Load(); n > nproc || peak > int64(n) {
				t.Errorf("generator allows %d connections and had %d requests in flight; nproc is %d", n, peak, nproc)
			}

			o, err := runE2E(ctx, e, w, time.Second)
			if err != nil {
				t.Fatalf("untraced run: %v\n%s", err, log.String())
			}
			checkOutcome(t, o, log.String(), e2eNames())

			log.Reset()
			o, err = runTrace(ctx, e, w, 3, time.Second)
			if err != nil {
				t.Fatalf("traced run: %v\n%s", err, log.String())
			}
			checkOutcome(t, o, log.String(), layerNames())
			if !regexp.MustCompile(`(?m)^ledger ` + wl.name + `: `).MatchString(log.String()) {
				t.Errorf("no ledger printed:\n%s", log.String())
			}
		})
	}
}

func e2eNames() map[string]string {
	m := map[string]string{}
	for _, x := range endToEnd {
		m[x.name] = x.unit
	}
	return m
}

func layerNames() map[string]string {
	m := map[string]string{}
	for _, x := range perLayer {
		m[x.name] = x.unit
	}
	return m
}

func checkOutcome(t *testing.T, o *outcome, log string, want map[string]string) {
	t.Helper()
	if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
		t.Fatalf("outcome correct=%v attempted=%d failed=%d\n%s", o.Correct, o.Attempted, o.Failed, log)
	}
	if len(o.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(o.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := o.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
		}
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` +-?[0-9.]+ ` + regexp.QuoteMeta(unit) + `( |$)`)
		if !line.MatchString(log) {
			t.Errorf("metric %s is not printed with its unit %s", name, unit)
		}
	}
}
