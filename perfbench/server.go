package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"ngd/internal/analyze"
	"ngd/internal/core"
	"ngd/internal/graph"
	"ngd/internal/serve"
	"ngd/internal/session"
	"ngd/internal/store"
)

// harness is one serving stack as ngdserve wires it: a session, an
// optional durable store, the serve layer and an HTTP listener on the
// loopback interface. The benchmark's AfterCommit hook does what the
// daemon's does (MaybeCheckpoint) and also records each commit's
// statistics and change. It runs on the writer before the commit's acks
// are released, so a client holding an ack sees its epoch recorded.
type harness struct {
	sess   *session.Session
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}

	mu      sync.Mutex
	stats   []session.BatchStats
	changed map[int]bool     // epochs whose commit changed the store (the feed publishes only those)
	removed map[string][]int // epochs at which each key left the store
}

// serveOptions are the daemon defaults (cmd/ngdserve).
func serveOptions(names map[string]graph.NodeID, rep *analyze.Report) serve.Options {
	return serve.Options{QueueDepth: 256, Names: names, MaxBody: 8 << 20, FeedBacklog: 64, FeedBuffer: 32, Analysis: rep}
}

// storeOptions are the daemon's durable defaults: WAL fsync per batch, a
// checkpoint every 64 batches.
func storeOptions() store.Options { return store.Options{CheckpointEvery: 64} }

// startHarness puts the serve layer and a loopback listener on sess.
func startHarness(sess *session.Session, st *store.Store, opts serve.Options) (*harness, error) {
	h := &harness{sess: sess, st: st, served: make(chan struct{}), changed: map[int]bool{}, removed: map[string][]int{}}
	if st != nil {
		opts.OnNewNode = st.NoteName
		opts.DurabilityErr = st.Err
	}
	opts.AfterCommit = func(bs session.BatchStats) {
		if st != nil {
			st.MaybeCheckpoint()
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		if ev := bs.Event; ev != nil && len(ev.Added)+len(ev.Removed) > 0 {
			h.changed[bs.Batch] = true
			for _, v := range ev.Removed {
				h.removed[v.Key()] = append(h.removed[v.Key()], bs.Batch)
			}
		}
		bs.Event = nil
		h.stats = append(h.stats, bs)
	}
	h.srv = serve.New(sess, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		return nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// conn is one client connection to a harness: each load-generating
// goroutine holds its own, so the benchmark never opens more than one
// connection per client.
type conn struct {
	url     string
	client  *http.Client
	durable bool
}

func (h *harness) conn() *conn {
	return &conn{
		url:     h.url,
		client:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		durable: h.st != nil,
	}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// close stops the listener, the writer and the store, and waits for each.
func (h *harness) close() error {
	err := h.hs.Close()
	<-h.served
	h.srv.Close()
	if h.st != nil {
		if cerr := h.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// do sends one request and reads the whole response.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// requestOps renders batch b of a placed cycle as POST /update ops.
func requestOps(pl placed, b int) []serve.UpdateOp {
	bt := pl.cy.batches[b]
	ops := make([]serve.UpdateOp, 0, bt.units())
	for _, i := range bt.arrivals {
		a := pl.cy.arrivals[i]
		op := serve.UpdateOp{Op: "node", ID: pl.name(localRef(i)), Label: a.label}
		if a.prop {
			op.Attrs = map[string]any{"val": a.val}
		}
		ops = append(ops, op)
	}
	for _, e := range bt.edges {
		kind := "delete"
		if e.insert {
			kind = "insert"
		}
		ops = append(ops, serve.UpdateOp{Op: kind, Src: pl.name(e.src), Dst: pl.name(e.dst), Label: e.label})
	}
	for _, a := range bt.attrs {
		ops = append(ops, serve.UpdateOp{Op: "setattr", ID: pl.name(a.node), Attrs: map[string]any{"val": a.val}})
	}
	return ops
}

// postSync sends one update request with ?sync=1 and checks the ack: it
// must report the commit, the op count, the next epoch and, with a store
// attached, durable: true.
func (c *conn) postSync(body []byte, nOps, wantEpoch int) error {
	code, out, err := c.do("POST", "/update?sync=1", body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST /update: status %d: %s", code, strings.TrimSpace(string(out)))
	}
	var a struct {
		Committed bool  `json:"committed"`
		Ops       int   `json:"ops"`
		Epoch     int   `json:"epoch"`
		Durable   *bool `json:"durable"`
	}
	if err := json.Unmarshal(out, &a); err != nil {
		return fmt.Errorf("POST /update: %v", err)
	}
	switch {
	case !a.Committed || a.Ops != nOps:
		return fmt.Errorf("POST /update: ack %s for %d ops", out, nOps)
	case a.Epoch != wantEpoch:
		return fmt.Errorf("POST /update: ack epoch %d, want %d", a.Epoch, wantEpoch)
	case c.durable && (a.Durable == nil || !*a.Durable):
		return fmt.Errorf("POST /update: ack not durable: %s", out)
	}
	return nil
}

// storeKeys is the published store of the current epoch.
func (h *harness) storeKeys() map[string]core.Violation {
	return keysOf(h.srv.Snapshot().Violations())
}

// feedMsg is one commit event received on GET /feed.
type feedMsg struct {
	epoch   int
	at      time.Time
	added   []vioRef
	removed []string
}

// feedClient holds one SSE subscription to GET /feed.
type feedClient struct {
	msgs   chan feedMsg
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// subscribeFeed connects an SSE client and forwards each commit event.
func (h *harness) subscribeFeed() (*feedClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", h.url+"/feed", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// a connection of its own: the update client keeps the other one
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /feed: status %d", resp.StatusCode)
	}
	// the client consumes one event per request it sends, so the buffer
	// only has to hold events it has not reached yet; a whole cycle fits
	fc := &feedClient{msgs: make(chan feedMsg, 1024), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(fc.done)
		defer close(fc.msgs)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		var data []byte
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				if !errors.Is(err, context.Canceled) && ctx.Err() == nil {
					fc.err = err
				}
				return
			}
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case bytes.HasPrefix(line, []byte("data: ")):
				data = append(data[:0], line[len("data: "):]...)
			case len(line) == 0 && data != nil:
				at := time.Now()
				var ev struct {
					Epoch int `json:"epoch"`
					Added []struct {
						Key   string  `json:"key"`
						Rule  string  `json:"rule"`
						Match []int32 `json:"match"`
					} `json:"added"`
					Removed []string `json:"removed"`
				}
				if err := json.Unmarshal(data, &ev); err != nil {
					fc.err = err
					return
				}
				m := feedMsg{epoch: ev.Epoch, at: at, removed: ev.Removed}
				for _, a := range ev.Added {
					m.added = append(m.added, vioRef{a.Key, a.Rule, a.Match})
				}
				fc.msgs <- m
				data = nil
			}
		}
	}()
	return fc, nil
}

// next waits for the event of the given epoch.
func (fc *feedClient) next(epoch int, timeout time.Duration) (feedMsg, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case m, ok := <-fc.msgs:
		if !ok {
			return feedMsg{}, fmt.Errorf("feed closed before epoch %d: %v", epoch, fc.err)
		}
		if m.epoch != epoch {
			return m, fmt.Errorf("feed delivered epoch %d, want %d", m.epoch, epoch)
		}
		return m, nil
	case <-t.C:
		return feedMsg{}, fmt.Errorf("no feed event for epoch %d within %v", epoch, timeout)
	}
}

func (fc *feedClient) close() {
	fc.cancel()
	for range fc.msgs {
	}
	<-fc.done
}

// hasChange reports whether the commit of epoch changed the store.
func (h *harness) hasChange(epoch int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.changed[epoch]
}
