// Command perfbench is the repository's benchmark. It generates a workload
// from a seed, drives the program through its public entry points, checks
// every output against computations of its own, and prints one JSON result
// line:
//
//	perfbench --workload detect|stream|ingest|read --seed N --seconds S --trace 0|1
//	perfbench steady
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the per-layer metrics, and the spans are written under
// .bench_build/traces. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

var workloads = map[string]func(in *inputs, tr *tracer, seconds int) *run{
	"detect": runDetect,
	"stream": runStream,
	"ingest": runIngest,
	"read":   runRead,
}

// workDir holds what runs leave behind (data directories, traces); it is
// inside the checkout the benchmark runs from.
const workDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "detect, stream, ingest or read")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; fixes the operation count")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, summary := execute(fn, fullConfig(), *workload, *seed, max(*seconds, 1), *trace == 1)
	fmt.Println(summary)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs one workload and assembles its result line.
func execute(fn func(*inputs, *tracer, int) *run, cfg config, workload string, seed int64, seconds int, traced bool) (result, string) {
	in := makeInputs(cfg, seed)
	var r *run
	if traced {
		// the untraced p50 first, for the tracing overhead
		plain := fn(in, newTracer(false), seconds)
		in = makeInputs(cfg, seed)
		tr := newTracer(true)
		r = fn(in, tr, seconds)
		r.attempted += plain.attempted
		r.failed += plain.failed
		r.broken = r.broken || plain.broken
		r.errs = append(r.errs, plain.errs...)
		r.set("load.ops_per_s", opsPerSecond(r.lat))
		r.set("load.tail_ms", ms(windowTail(r.lat)))
		if p := medianDur(plain.lat); p > 0 {
			r.set("trace.overhead_pct", 100*(ms(medianDur(r.lat))-ms(p))/ms(p))
		}
		path, err := tr.write(workDir+"/traces", fmt.Sprintf("%s-%d.jsonl", workload, seed))
		if err != nil {
			r.fail("writing spans: %v", err)
		}
		r.facts += " spans=" + path
	} else {
		r = fn(in, newTracer(false), seconds)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	res := result{Correct: !r.broken, Attempted: r.attempted, Failed: r.failed}
	if traced {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	summary := fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%v host_cores=%d GOMAXPROCS=%d ops=%d ops_per_s=%.4f tail_ms=%.4f %s",
		workload, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(r.lat),
		opsPerSecond(r.lat), ms(windowTail(r.lat)), strings.TrimSpace(r.facts))
	return res, summary
}
