package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ngd/internal/session"
	"ngd/internal/store"
)

// readKinds are the reader's operations, issued round-robin.
var readKinds = [...]string{"read.page_all", "read.page_rule", "read.page_node", "read.get"}

type pageVio struct {
	Key   string  `json:"key"`
	Rule  string  `json:"rule"`
	Match []int32 `json:"match"`
}

type page struct {
	Epoch      int       `json:"epoch"`
	Total      int       `json:"total"`
	Returned   int       `json:"returned"`
	Violations []pageVio `json:"violations"`
	Next       string    `json:"next"`
}

// checkPage verifies the properties every page must have whatever commits
// run beside it: rows strictly ordered by key (so no duplicates), after the
// cursor, each key the canonical key of its rule and match, and each row
// matching the filter.
func checkPage(p page, after, rule string, node int32) error {
	if p.Returned != len(p.Violations) {
		return fmt.Errorf("page says %d rows, holds %d", p.Returned, len(p.Violations))
	}
	prev := after
	for i, v := range p.Violations {
		if (i > 0 || after != "") && v.Key <= prev {
			return fmt.Errorf("page row %d: key %s does not follow %s", i, v.Key, prev)
		}
		prev = v.Key
		ids := make([]string, len(v.Match))
		for j, id := range v.Match {
			ids[j] = fmt.Sprint(id)
		}
		if want := v.Rule + ":" + strings.Join(ids, ":"); v.Key != want {
			return fmt.Errorf("page row %d: key %s, rule and match give %s", i, v.Key, want)
		}
		if rule != "" && v.Rule != rule {
			return fmt.Errorf("page for rule %s holds %s", rule, v.Key)
		}
		if node >= 0 && !containsID(v.Match, node) {
			return fmt.Errorf("page for node %d holds %s", node, v.Key)
		}
	}
	if p.Next != "" && (len(p.Violations) == 0 || p.Next != p.Violations[len(p.Violations)-1].Key) {
		return fmt.Errorf("page cursor %s is not its last key", p.Next)
	}
	return nil
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// readPrep writes the data directory the read workload restarts from: a
// bootstrapped snapshot plus one writer cycle in the WAL suffix, no
// checkpoint after it. It returns the mirror of the recovered graph. At
// the cycle's peak it checks the store for completeness, as the other
// stream workloads do, and counts a miss as a failed operation of r: the
// writer replays this cycle during the run, where the reader must not wait
// for such a check.
func (in *inputs) readPrep(dir string, cy *cycle, r *run) (*mirror, error) {
	g, names, rules, _ := in.loadProgram(newTracer(false))
	sess := session.New(g, rules, session.Options{})
	defer sess.Close()
	st, _, err := store.Open(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	if err := st.Bootstrap(sess, rules, names); err != nil {
		st.Close()
		return nil, err
	}
	m := in.start.clone()
	pl := placed{cy: cy, first: int32(g.NumNodes()), prefix: "prep"}
	for b := range cy.batches {
		if bs := commitLocal(sess, pl, b, st.NoteName); bs.LogErr != nil {
			st.Close()
			return nil, bs.LogErr
		}
		pl.applyTo(m, b)
		r.attempted++
		if b == in.cfg.WriterW-1 {
			if err := in.checkComplete(g, rules, m, keysOf(sess.Violations())); err != nil {
				r.fail("at the peak of the prepared writer cycle: %v", err)
			}
		}
	}
	return m, st.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runRead measures violation reads over loopback HTTP in a closed loop
// while a writer paced at a fixed rate commits small update requests in
// undo cycles. One operation is a round of the four read kinds; its
// latency is the sum of the four round trips. Set-up is a restart: store
// recovery of a prepared data directory, then the serve layer and the
// listener.
func runRead(in *inputs, tr *tracer, seconds int) *run {
	r := &run{}
	cy := in.genCycle(in.cfg.WriterW, in.cfg.WriterSize, 1, in.seed+2)
	rounds := max(seconds*in.cfg.ReadOps, 1)
	ops := rounds * len(readKinds) // requests
	r.lat = make([]time.Duration, 0, rounds)
	kindLat := make([][]time.Duration, len(readKinds))
	var reqLat, handlerLat []time.Duration
	var pageBytes []float64 // body sizes of unfiltered pages
	dir, cleanup, err := runDir()
	if err != nil {
		r.invalid("run directory: %v", err)
		return r
	}
	defer cleanup()
	prep := filepath.Join(dir, "prep")
	wm, err := in.readPrep(prep, &cy, r)
	if err != nil {
		r.invalid("preparing the data directory: %v", err)
		return r
	}
	g, _, rules, _ := in.loadProgram(newTracer(false))
	ref, err := in.referenceVio(g, rules, in.start)
	if err != nil {
		r.invalid("set-up: %v", err)
		return r
	}
	var ruleNames []string
	var nodes []int32
	seenRule, seenNode := map[string]bool{}, map[int32]bool{}
	for _, k := range sortedKeys(ref) {
		v := ref[k]
		if !seenRule[v.Rule.Name] {
			seenRule[v.Rule.Name] = true
			ruleNames = append(ruleNames, v.Rule.Name)
		}
		if n := int32(v.Match[0]); !seenNode[n] {
			seenNode[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	// every set-up restarts from its own copy, made untimed beforehand
	for i := 0; i < in.cfg.SetupRep; i++ {
		if err := copyDir(prep, filepath.Join(dir, fmt.Sprintf("read-%d", i))); err != nil {
			r.invalid("copying the data directory: %v", err)
			return r
		}
	}
	trial := 0
	var rec *store.Recovered
	open := func() (*harness, error) {
		d := filepath.Join(dir, fmt.Sprintf("read-%d", trial))
		trial++
		sp := tr.begin("store.recover", -1)
		st, rc, err := store.Open(d, storeOptions())
		tr.end(sp)
		if err == nil && rc == nil {
			err = fmt.Errorf("nothing to recover in %s", d)
		}
		if err != nil {
			return nil, err
		}
		rec = rc
		return startHarness(rc.Session, st, serveOptions(rc.Names, nil))
	}
	closeTrial := func(h *harness) {
		if err := h.close(); err != nil {
			r.invalid("closing a set-up trial: %v", err)
		}
	}
	h, err := setups(r, in.cfg.SetupRep/2, open, closeTrial)
	if err != nil {
		r.invalid("restart: %v", err)
		return r
	}
	start := h.storeKeys()
	if err := sameKeys(ref, start); err != nil {
		h.close()
		r.invalid("a restart recovered a different store: %v", err)
		return r
	}

	// the writer: a fixed number of whole undo cycles, one request due
	// every rounds/writes reader rounds (WriterRate requests per second at
	// the nominal read rate). It is open loop: the reader never waits for
	// it. Pacing by the reader's progress rather than the clock gives every
	// stretch of reads the same share of concurrent commits however fast
	// the host runs.
	writerCycles := cyclesFor(seconds, in.cfg.WriterRate, len(cy.batches))
	writes := writerCycles * len(cy.batches)
	due := make(chan time.Time, writes) // one send per write: never blocks
	var wg sync.WaitGroup
	var wErrs []string
	var late []time.Duration
	wc := h.conn()
	startNodes := int32(len(wm.labels))
	wg.Add(1)
	go func() {
		defer wg.Done()
		epoch := h.srv.Snapshot().Epoch
		k := 0
		for at := range due {
			c, b := k/len(cy.batches), k%len(cy.batches)
			k++
			late = append(late, time.Since(at))
			pl := placed{cy: &cy, first: startNodes + int32(c*len(cy.arrivals)), prefix: fmt.Sprintf("w%d", c)}
			reqOps := requestOps(pl, b)
			epoch++
			if err := wc.postSync(updateBody(reqOps), len(reqOps), epoch); err != nil {
				wErrs = append(wErrs, fmt.Sprintf("writer request %d: %v", k, err))
			}
			pl.applyTo(wm, b)
			if b < len(cy.batches)-1 {
				continue
			}
			if err := sameKeys(start, h.storeKeys()); err != nil {
				wErrs = append(wErrs, fmt.Sprintf("after writer cycle %d the store differs from the start store: %v", c, err))
			}
		}
	}()

	type gone struct {
		key         string
		listed, got int
	}
	var missing []gone
	rc := h.conn()
	handler := h.srv.Handler()
	var cursor string
	var last page
	var round time.Duration
	mem := startMem()
	sent := 0
	for i := 0; i < ops; i++ {
		kind := i % len(readKinds)
		// write k is due at the start of round k·rounds/writes
		for r := i / len(readKinds); kind == 0 && sent < writes && sent*rounds < (r+1)*writes; sent++ {
			due <- time.Now()
		}
		var path, rule string
		node := int32(-1)
		var getKey pageVio
		switch kind {
		case 0:
			path = "/violations?limit=100"
			if cursor != "" {
				path += "&after=" + url.QueryEscape(cursor)
			}
		case 1:
			rule = ruleNames[(i/len(readKinds))%len(ruleNames)]
			path = "/violations?limit=100&rule=" + url.QueryEscape(rule)
		case 2:
			node = nodes[(i/len(readKinds))%len(nodes)]
			path = fmt.Sprintf("/violations?limit=100&node=%d", node)
		case 3:
			if len(last.Violations) == 0 {
				path = "/healthz"
				break
			}
			getKey = last.Violations[(i/len(readKinds))%len(last.Violations)]
			path = "/violations/" + url.PathEscape(getKey.Key)
		}
		sp := tr.begin(readKinds[kind], -1)
		t0 := time.Now()
		code, body, err := rc.do("GET", path, nil)
		d := time.Since(t0)
		tr.end(sp)
		kindLat[kind] = append(kindLat[kind], d)
		if round += d; kind == len(readKinds)-1 {
			r.lat = append(r.lat, round)
			round = 0
		}
		if tr.on {
			reqLat = append(reqLat, d)
		}
		r.attempted++
		if tr.on {
			// the same request through the handler alone, on a recorder
			req := httptest.NewRequest("GET", path, nil)
			rw := httptest.NewRecorder()
			sp := tr.begin("serve.handler", -1)
			t1 := time.Now()
			handler.ServeHTTP(rw, req)
			_, _ = io.Copy(io.Discard, rw.Result().Body)
			handlerLat = append(handlerLat, time.Since(t1))
			tr.end(sp)
		}
		switch {
		case err != nil:
		case kind == 3 && code == http.StatusNotFound && getKey.Key != "":
			// a commit after the listing may have removed the key: checked
			// against the removals once the run ends
			var nf struct {
				Epoch int `json:"epoch"`
			}
			if err = json.Unmarshal(body, &nf); err == nil {
				missing = append(missing, gone{getKey.Key, last.Epoch, nf.Epoch})
			}
		case code != http.StatusOK:
			err = fmt.Errorf("GET %s: status %d", path, code)
		case kind == 3:
			if getKey.Key != "" {
				var one struct {
					Violation pageVio `json:"violation"`
				}
				if err = json.Unmarshal(body, &one); err == nil && (one.Violation.Key != getKey.Key ||
					one.Violation.Rule != getKey.Rule || fmt.Sprint(one.Violation.Match) != fmt.Sprint(getKey.Match)) {
					err = fmt.Errorf("point read of %s returned %+v, listed %+v", getKey.Key, one.Violation, getKey)
				}
			}
		default:
			var p page
			if err = json.Unmarshal(body, &p); err == nil {
				after := ""
				if kind == 0 {
					after = cursor
					pageBytes = append(pageBytes, float64(len(body)))
				}
				err = checkPage(p, after, rule, node)
			}
			if kind == 0 && err == nil {
				last, cursor = p, p.Next
			}
		}
		if err != nil {
			r.fail("read %d: %v", i, err)
		}
	}
	close(due)
	wg.Wait()
	wc.close()
	r.attempted += writes
	for _, e := range wErrs {
		r.fail("%s", e)
	}
	// a point read may miss a key a commit removed after it was listed
	h.mu.Lock()
	for _, g := range missing {
		ok := false
		for _, e := range h.removed[g.key] {
			ok = ok || (e > g.listed && e <= g.got)
		}
		if !ok {
			r.fail("point read of %s: 404 at epoch %d, but no commit in (%d, %d] removed it", g.key, g.got, g.listed, g.got)
		}
	}
	h.mu.Unlock()

	if tr.on {
		mem.report(r, rounds)
		for k, name := range readKinds {
			r.set(name+"_ms", ms(medianDur(kindLat[k])))
		}
		r.set("serve.handler_ms", ms(medianDur(handlerLat)))
		r.set("serve.http_self_ms", ms(medianDur(reqLat)-medianDur(handlerLat)))
		r.set("serve.page_bytes", median(pageBytes))
		r.set("writer.late_ms", ms(sortedDur(late)[len(late)-1]))
		r.set("store.snapshot_load_ms", ms(rec.SnapshotLoad))
		r.set("store.wal_replay_ms", ms(rec.WALReplay))
		r.set("store.replayed", float64(rec.Replayed))
		ss := h.st.Stats()
		r.set("store.wal_bytes", float64(ss.WALBytes)/float64(max(ss.Batches, 1)))
		r.set("store.checkpoints", float64(ss.Checkpoints))
		r.set("store.checkpoint_ms", ms(ss.LastCheckpoint))
		r.set("serve.coalesced", float64(h.srv.Stats().Coalesced))
	}

	// with writes stopped, a full walk equals the verified store
	walked := map[string]pageVio{}
	for after := ""; ; {
		path := "/violations?limit=100"
		if after != "" {
			path += "&after=" + url.QueryEscape(after)
		}
		var p page
		code, body, err := rc.do("GET", path, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &p)
		}
		if err == nil {
			err = checkPage(p, after, "", -1)
		}
		if err != nil {
			r.invalid("final walk: %v", err)
			break
		}
		for _, v := range p.Violations {
			walked[v.Key] = v
			if err := in.confirm(wm, v.Rule, v.Match); err != nil {
				r.invalid("final walk: %v", err)
			}
		}
		if after = p.Next; after == "" {
			break
		}
	}
	rc.close()
	if err := sameKeys(start, walked); err != nil {
		r.invalid("final walk differs from the start store: %v", err)
	}
	if err := sameKeys(h.storeKeys(), walked); err != nil {
		r.invalid("final walk differs from the published store: %v", err)
	}
	if err := h.close(); err != nil {
		r.invalid("shutdown: %v", err)
	}
	if err := h.sess.Recheck(); err != nil {
		r.invalid("Recheck after the run: %v", err)
	}
	r.facts = fmt.Sprintf("writer_requests=%d writer_W=%d replayed=%d violations=%d rules_read=%d nodes_read=%d",
		writes, in.cfg.WriterW, rec.Replayed, len(start), len(ruleNames), len(nodes))
	r.heapBytes = programHeap(func() { h, rec = nil, nil })
	setupsAfter(r, in.cfg.SetupRep-in.cfg.SetupRep/2, open, closeTrial)
	runtime.KeepAlive(in)
	runtime.KeepAlive(wm)
	runtime.KeepAlive(g)
	runtime.KeepAlive(ref)
	runtime.KeepAlive(walked)
	return r
}
