package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ngd/internal/core"
)

// run collects one workload run: set-up times, the latency of every
// measured operation, the operations attempted and failed, and, in the
// traced mode, the per-layer metrics.
type run struct {
	setup     []time.Duration
	lat       []time.Duration
	attempted int
	failed    int
	errs      []string
	broken    bool // a whole-run check failed: the result is not correct
	heapBytes float64
	layer     map[string]float64
	facts     string // the run's make-up, for the summary line
}

// fail records a failed operation; the first few reasons are kept for the
// summary on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// invalid records a failed whole-run check (set-up references, restart,
// final walk): no single operation failed, but the result is wrong.
func (r *run) invalid(format string, args ...any) {
	r.broken = true
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// check records a failure when err is non-nil.
func (r *run) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *run) set(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// setups times n set-ups by open into r.setup and releases every one
// but the last, which it returns. A workload runs half of its set-ups before
// the measured phase and half after it (see setupsAfter): the host's speed
// moves in phases of seconds, and set-ups at both ends of the run sample
// it as the timed operations across the run do.
func setups[T any](r *run, n int, open func() (T, error), release func(T)) (T, error) {
	var cur T
	for i := 0; i < n; i++ {
		if i > 0 {
			release(cur)
		}
		t0 := time.Now()
		v, err := open()
		r.setup = append(r.setup, time.Since(t0))
		if err != nil {
			var zero T
			return zero, err
		}
		cur = v
	}
	return cur, nil
}

// setupsAfter runs the rest of the run's set-ups once the measured phase
// and its checks are over, and releases them all.
func setupsAfter[T any](r *run, n int, open func() (T, error), release func(T)) {
	v, err := setups(r, n, open, release)
	if err != nil {
		r.invalid("set-up after the measured phase: %v", err)
		return
	}
	release(v)
}

// heapMark forces a collection and returns the live heap. The second
// collection frees what sync.Pool victim caches kept through the first.
func heapMark() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// programHeap is the program's live heap: the live heap with the
// program's state, less the live heap once drop has released it. The
// caller keeps its own data alive across both marks.
func programHeap(drop func()) float64 {
	live := heapMark()
	drop()
	return live - heapMark()
}

// memDelta measures the Go runtime counters across a measured phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// report sets the go.* per-layer metrics for ops operations.
func (d *memDelta) report(r *run, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	r.set("go.allocs_per_op", float64(after.Mallocs-d.before.Mallocs)/n)
	r.set("go.alloc_bytes_per_op", float64(after.TotalAlloc-d.before.TotalAlloc)/n)
	r.set("go.gc_cycles", float64(after.NumGC-d.before.NumGC))
	r.set("go.gc_pause_ms", float64(after.PauseTotalNs-d.before.PauseTotalNs)/1e6)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedDur(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianDur(ds []time.Duration) time.Duration { return quantile(sortedDur(ds), 0.5) }

// tailQuantile is the highest of p99, p95, p90 and p75 that leaves at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// tailWindow is the window of the tail metric: 200 operations, so p95
// leaves ten samples beyond it.
const tailWindow = 200

// windowTail is the tail latency: the median over consecutive windows of
// tailWindow operations of each window's p95, so one burst moves one
// window; with fewer than two windows, the tail percentile of all samples.
func windowTail(lat []time.Duration) time.Duration {
	if len(lat) < 2*tailWindow {
		s := sortedDur(lat)
		return quantile(s, tailQuantile(len(s)))
	}
	var tails []float64
	for lo := 0; lo+tailWindow <= len(lat); lo += tailWindow {
		s := sortedDur(lat[lo : lo+tailWindow])
		tails = append(tails, float64(quantile(s, tailQuantile(tailWindow))))
	}
	return time.Duration(median(tails))
}

// opsPerSecond is the operation rate: windowRate with one unit per
// operation.
func opsPerSecond(lat []time.Duration) float64 {
	return windowRate(lat, func(int) float64 { return 1 })
}

// windowRate is the median, over ten consecutive windows of operations,
// of operations per second of the time those operations took. One stall
// moves one window, not the result.
func windowRate(lat []time.Duration, units func(i int) float64) float64 {
	const windows = 10
	per := max(len(lat)/windows, 1)
	var rates []float64
	for lo := 0; lo+per <= len(lat); lo += per {
		var busy time.Duration
		var work float64
		for i := lo; i < lo+per; i++ {
			busy += lat[i]
			work += units(i)
		}
		rates = append(rates, work/busy.Seconds())
	}
	return median(rates)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd turns a run into the end-to-end metrics of BENCHMARK.json.
func (r *run) endToEnd() map[string]metric {
	s := sortedDur(r.lat)
	return map[string]metric{
		"setup_s": {medianDur(r.setup).Seconds(), "s"},
		"p50_ms":  {ms(quantile(s, 0.5)), "ms"},
		"heap_mb": {r.heapBytes / (1 << 20), "MB"},
	}
}

// layerMetrics lists every per-layer metric of BENCHMARK.json with its
// unit. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"dsl.load_ms", "ms"},
	{"analyze.gate_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"plan.share_ms", "ms"},
	{"plan.hits", "count"},
	{"plan.misses", "count"},
	{"plan.invalidations", "count"},
	{"match.candidates", "count"},
	{"match.checks", "count"},
	{"detect.run_ms", "ms"},
	{"detect.ns_per_candidate", "ns"},
	{"detect.violations", "count"},
	{"inc.pivots", "count"},
	{"inc.cost_units", "count"},
	{"par.makespan_units", "count"},
	{"partition.placed", "count"},
	{"partition.moved", "count"},
	{"session.commit_ms", "ms"},
	{"session.ops", "count"},
	{"session.plus", "count"},
	{"session.minus", "count"},
	{"session.absorbed", "count"},
	{"session.attr_sets", "count"},
	{"session.updates_per_s", "1/s"},
	{"store.wal_self_ms", "ms"},
	{"store.wal_bytes", "bytes"},
	{"store.checkpoints", "count"},
	{"store.checkpoint_ms", "ms"},
	{"store.snapshot_load_ms", "ms"},
	{"store.wal_replay_ms", "ms"},
	{"store.replayed", "count"},
	{"serve.http_self_ms", "ms"},
	{"serve.writer_self_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.page_bytes", "bytes"},
	{"serve.coalesced", "count"},
	{"feed.events", "count"},
	{"feed.lag_ms", "ms"},
	{"read.page_all_ms", "ms"},
	{"read.page_rule_ms", "ms"},
	{"read.page_node_ms", "ms"},
	{"read.get_ms", "ms"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"load.ops_per_s", "1/s"},
	{"load.tail_ms", "ms"},
	{"writer.late_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func (r *run) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{r.layer[m.name], m.unit}
	}
	return out
}

// tracer records spans around the benchmark's calls into the program's
// layers. Spans stay in memory and are written out when the run ends. A
// disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// durations returns the durations of every span with the name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if !t.on {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// keysOf returns the canonical keys of a violation slice as a set.
func keysOf(vs []core.Violation) map[string]core.Violation {
	out := make(map[string]core.Violation, len(vs))
	for _, v := range vs {
		out[v.Key()] = v
	}
	return out
}

// sameKeys reports the first difference between two key sets.
func sameKeys[A, B any](want map[string]A, got map[string]B) error {
	for k := range want {
		if _, ok := got[k]; !ok {
			return fmt.Errorf("violation %s missing (want %d, got %d)", k, len(want), len(got))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected violation %s (want %d, got %d)", k, len(want), len(got))
		}
	}
	return nil
}

func matchIDs(m core.Match) []int32 {
	out := make([]int32, len(m))
	for i, v := range m {
		out[i] = int32(v)
	}
	return out
}
