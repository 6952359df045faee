package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
)

// runDir is a fresh directory for one run's data directories.
func runDir() (string, func(), error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// openDurable boots a durable server the way ngdserve does on a fresh data
// directory: load the DSL text, open the session (Σ minimization and
// seeding detection), bootstrap the store and start listening. With gate
// set it first runs the Σ admission analysis with the daemon's default
// budget. The timed set-up leaves the analysis out: on this Σ it runs to
// its 30 s budget (see README), so timing it would time the budget.
func (in *inputs) openDurable(dir string, tr *tracer, gate bool) (*harness, error) {
	g, names, rules, lines := in.loadProgram(tr)
	var rep *analyze.Report
	if gate {
		sp := tr.begin("analyze.gate", -1)
		rep = analyze.Analyze(rules, analyze.Options{Timeout: 30 * time.Second, Lines: lines})
		tr.end(sp)
	}
	sp := tr.begin("session.open", -1)
	sess := session.New(g, rules, session.Options{})
	tr.end(sp)
	st, rec, err := store.Open(dir, storeOptions())
	if err != nil {
		sess.Close()
		return nil, err
	}
	if rec != nil {
		st.Close()
		sess.Close()
		return nil, fmt.Errorf("%s is not empty", dir)
	}
	sp = tr.begin("store.bootstrap", -1)
	err = st.Bootstrap(sess, rules, names)
	tr.end(sp)
	if err != nil {
		st.Close()
		sess.Close()
		return nil, err
	}
	return startHarness(sess, st, serveOptions(names, rep))
}

// updateBody renders a request body for POST /update.
func updateBody(ops []serve.UpdateOp) []byte {
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // UpdateOp holds only strings, ints and maps of them
	}
	return body
}

// runIngest measures small synchronous update requests over loopback HTTP
// against a durable server, in a closed loop with one /feed subscriber.
// One operation is one POST /update?sync=1; the client then waits for the
// commit's feed event (when the commit changed the store) before sending
// the next, so the feed lag is measured for every event.
func runIngest(in *inputs, tr *tracer, seconds int) *run {
	r := &run{}
	cy := in.genCycle(in.cfg.IngestW, in.cfg.IngestEdges, in.cfg.IngestAttrs, in.seed+1)
	cycles := cyclesFor(seconds, in.cfg.IngestOps, len(cy.batches))
	ops := cycles * len(cy.batches)
	r.lat = make([]time.Duration, 0, ops)
	lags := make([]time.Duration, 0, ops)
	units := make([]float64, 0, ops)
	m := in.start.clone()
	dir, cleanup, err := runDir()
	if err != nil {
		r.invalid("run directory: %v", err)
		return r
	}
	defer cleanup()

	trial := 0
	open := func() (*harness, error) {
		trial++
		return in.openDurable(filepath.Join(dir, fmt.Sprintf("ingest-%d", trial)), tr, false)
	}
	closeTrial := func(h *harness) {
		if err := h.close(); err != nil {
			r.invalid("closing a set-up trial: %v", err)
		}
	}
	h, err := setups(r, in.cfg.SetupRep/2, open, closeTrial)
	if err != nil {
		r.invalid("set-up: %v", err)
		return r
	}
	dataDir := filepath.Join(dir, fmt.Sprintf("ingest-%d", trial))
	start := h.storeKeys()
	ref, err := in.referenceVio(h.sess.Graph(), h.sess.Rules(), in.start)
	if err == nil {
		err = sameKeys(ref, start)
	}
	if err != nil {
		h.close()
		r.invalid("seeded store: %v", err)
		return r
	}
	fc, err := h.subscribeFeed()
	if err != nil {
		h.close()
		r.invalid("feed: %v", err)
		return r
	}
	ev := newEventChecker(in, m, start)
	startNodes := int32(len(in.start.labels))
	cn := h.conn()

	mem := startMem()
	epoch := h.srv.Snapshot().Epoch
	for c := 0; c < cycles; c++ {
		pl := placed{cy: &cy, first: startNodes + int32(c*len(cy.arrivals)), prefix: fmt.Sprintf("c%d", c)}
		for b := range cy.batches {
			reqOps := requestOps(pl, b)
			body := updateBody(reqOps)
			epoch++
			sp := tr.begin("http.update", -1)
			t0 := time.Now()
			err := cn.postSync(body, len(reqOps), epoch)
			r.lat = append(r.lat, time.Since(t0))
			tr.end(sp)
			r.attempted++
			units = append(units, float64(cy.batches[b].units()))
			pl.applyTo(m, b)
			if err == nil && h.hasChange(epoch) {
				var msg feedMsg
				if msg, err = fc.next(epoch, 10*time.Second); err == nil {
					lags = append(lags, msg.at.Sub(t0))
					err = ev.apply(epoch, msg.added, msg.removed)
				}
			}
			if err != nil {
				r.fail("request %d: %v", r.attempted, err)
			}
			if b == in.cfg.IngestW-1 && peaks(c, cycles) {
				// the writer is idle between requests; h.mu orders this
				// read of the graph after the commit's AfterCommit hook
				h.mu.Lock()
				err := in.checkComplete(h.sess.Graph(), h.sess.Rules(), m, h.storeKeys())
				h.mu.Unlock()
				if err != nil {
					r.fail("at the peak of cycle %d: %v", c, err)
				}
			}
		}
		if err := sameKeys(start, h.storeKeys()); err != nil {
			r.fail("after cycle %d the store differs from the start store: %v", c, err)
		}
	}
	fc.close()
	cn.close()
	if d := h.srv.Stats().DroppedOps; d != 0 {
		r.fail("the server dropped %d ops", d)
	}
	if err := sameKeys(ev.replay, h.storeKeys()); err != nil {
		r.invalid("feed replay over the start store: %v", err)
	}
	if tr.on {
		mem.report(r, ops)
		h.mu.Lock()
		streamLayers(r, tr, h.stats, units, false)
		h.mu.Unlock()
		ss := h.st.Stats()
		r.set("store.wal_bytes", float64(ss.WALBytes)/float64(max(ss.Batches, 1)))
		r.set("store.checkpoints", float64(ss.Checkpoints))
		r.set("store.checkpoint_ms", ms(ss.LastCheckpoint))
		r.set("serve.coalesced", float64(h.srv.Stats().Coalesced))
		r.set("feed.events", float64(len(lags)))
		r.set("feed.lag_ms", ms(medianDur(lags)))
		r.set("session.updates_per_s", windowRate(r.lat, func(i int) float64 { return units[i] }))
	}
	violations := len(start)
	if err := h.close(); err != nil {
		r.invalid("shutdown: %v", err)
	}
	// measured once the writer and any background checkpoint have drained
	r.heapBytes = programHeap(func() { h = nil })
	runtime.KeepAlive(in)
	runtime.KeepAlive(ev)

	// a restart recovers exactly the live store
	if st, rec, err := store.Open(dataDir, storeOptions()); err != nil || rec == nil {
		r.invalid("restart: %v (recovered %v)", err, rec != nil)
	} else {
		if err := sameKeys(start, keysOf(rec.Session.Violations())); err != nil {
			r.invalid("restart recovered a different store: %v", err)
		}
		rec.Session.Close()
		st.Close()
	}
	setupsAfter(r, in.cfg.SetupRep-in.cfg.SetupRep/2, open, closeTrial)
	if tr.on {
		// a third of the stream per nested entry point keeps the traced
		// run short; the medians need no more
		nestedIngest(in, r, tr, dir, &cy, max(cycles/3, 1), start)
	}
	r.facts = fmt.Sprintf("cycles=%d W=%d request_ops=%d arrivals_per_cycle=%d violations=%d feed_events=%d",
		cycles, in.cfg.IngestW, in.cfg.IngestEdges+in.cfg.IngestAttrs, len(cy.arrivals), violations, len(lags))
	return r
}

// nestedIngest replays the ingest stream through the nested public entry
// points: Server.Enqueue→Ack.Done with the store attached, the same
// without a store, and session.CommitBatch. Differences of medians give
// the self time of the HTTP layer, the WAL and the serve writer.
func nestedIngest(in *inputs, r *run, tr *tracer, dir string, cy *cycle, cycles int, start map[string]core.Violation) {
	startNodes := int32(len(in.start.labels))
	enqueue := func(h *harness, name string) {
		epoch := h.srv.Snapshot().Epoch
		for c := 0; c < cycles; c++ {
			pl := placed{cy: cy, first: startNodes + int32(c*len(cy.arrivals)), prefix: fmt.Sprintf("c%d", c)}
			for b := range cy.batches {
				reqOps := requestOps(pl, b)
				epoch++
				sp := tr.begin(name, -1)
				a, err := h.srv.Enqueue(reqOps)
				if err == nil {
					<-a.Done()
				}
				tr.end(sp)
				r.attempted++
				if err == nil && a.Epoch() != epoch {
					err = fmt.Errorf("ack epoch %d, want %d", a.Epoch(), epoch)
				}
				if err != nil {
					r.fail("%s: %v", name, err)
				}
			}
			if err := sameKeys(start, h.storeKeys()); err != nil {
				r.fail("%s: after cycle %d the store differs from the start store: %v", name, c, err)
			}
		}
	}

	// the admission gate, timed once, on the set-up of the nested run
	h, err := in.openDurable(filepath.Join(dir, "nested-durable"), tr, true)
	if err != nil {
		r.invalid("nested durable set-up: %v", err)
		return
	}
	enqueue(h, "serve.enqueue.durable")
	r.check(h.close())

	g, names, rules, _ := in.loadProgram(newTracer(false))
	h, err = startHarness(session.New(g, rules, session.Options{}), nil, serveOptions(names, nil))
	if err != nil {
		r.invalid("nested in-memory set-up: %v", err)
		return
	}
	enqueue(h, "serve.enqueue.mem")
	r.check(h.close())

	g, _, rules, _ = in.loadProgram(newTracer(false))
	sess := session.New(g, rules, session.Options{})
	for c := 0; c < cycles; c++ {
		pl := placed{cy: cy, first: int32(g.NumNodes()), prefix: fmt.Sprintf("c%d", c)}
		for b := range cy.batches {
			sp := tr.begin("session.commit", -1)
			commitLocal(sess, pl, b, nil)
			tr.end(sp)
			r.attempted++
		}
		if err := sameKeys(start, keysOf(sess.Violations())); err != nil {
			r.fail("session: after cycle %d the store differs from the start store: %v", c, err)
		}
	}
	sess.Close()

	http := medianDur(tr.durations("http.update"))
	durable := medianDur(tr.durations("serve.enqueue.durable"))
	mem := medianDur(tr.durations("serve.enqueue.mem"))
	commit := medianDur(tr.durations("session.commit"))
	r.set("serve.http_self_ms", ms(http-durable))
	r.set("store.wal_self_ms", ms(durable-mem))
	r.set("serve.writer_self_ms", ms(mem-commit))
	r.set("session.commit_ms", ms(commit))
	r.set("analyze.gate_ms", ms(medianDur(tr.durations("analyze.gate"))))
}
