// Command perfbench is the serving benchmark of sketchd. Each run drives one
// workload against the real cmd/sketchd binary, started on loopback with a
// durable data directory, from a single load generator that speaks the
// public sketchd.Client and opens at most two connections. Every run checks
// the server's merged sketches byte for byte against a serial in-process
// reference, after the timed phase and again after a SIGKILL restart.
//
//	perfbench -sketchd .bench_build/sketchd --workload raw-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it drives
// the same inputs once more, replays them in-process with a span around each
// call into a layer, and prints the per-layer metrics and a ledger of where
// the server's CPU time went. The last line of standard output is the JSON
// result. perfbench/run.sh builds both binaries from the tree and runs this.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "raw-bulk | upload-fanin | tenants-mixed")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and ledger from a traced replay")
	bin := flag.String("sketchd", "", "sketchd binary built from this tree")
	work := flag.String("work", ".bench_build", "scratch directory for data directories and span files")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *bin, *work); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, bin, work string) error {
	if bin == "" {
		return fmt.Errorf("-sketchd is required")
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	w, err := newWorkload(name, seed, fullSize)
	if err != nil {
		return err
	}
	e := env{bin: bin, work: work, size: fullSize, log: os.Stdout}
	dur := time.Duration(seconds) * time.Second
	var out *outcome
	if trace == 1 {
		out, err = runTrace(ctx, e, w, seed, dur)
	} else {
		out, err = runE2E(ctx, e, w, dur)
	}
	if out != nil {
		line, jerr := json.Marshal(out)
		if jerr != nil {
			return jerr
		}
		fmt.Println(string(line))
	}
	return err
}
