package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exploitbit/internal/core"
)

// Span names. Every span of one operation shares the operation's id; the
// parent field names the span that caused it.
const (
	spanOp        = "op"             // root, client side
	spanRoundtrip = "http.roundtrip" // request sent .. response body read
	spanHandler   = "server.handler" // the ServeLive handler, timed from a wrapper
	spanEngine    = "engine.search"  // in-process SearchInto
	spanGen       = "lsh.gen"        // Phase 1, from the duration the API returns
	spanReduce    = "core.reduce"    // Phase 2
	spanRefine    = "core.refine"    // Phase 3 (includes waited I/O when injected)
)

var spanNames = []string{spanOp, spanRoundtrip, spanHandler, spanEngine, spanGen, spanReduce, spanRefine}

// Span ids are the operation id shifted left with a fixed slot per span name,
// so the client and the server-side wrapper agree on ids without talking.
const (
	slotOp = iota
	slotRoundtrip
	slotHandler
	slotEngine
	slotGen
	slotReduce
	slotRefine
	slotBits = 3
)

func spanID(op uint64, slot int) uint64 { return op<<slotBits | uint64(slot) }

// opHeader carries the operation id to the server-side wrapper.
const opHeader = "X-Bench-Op"

type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`

	// Counts ride on the span they belong to.
	Workload    string `json:"workload,omitempty"`
	Kind        string `json:"kind,omitempty"`
	Client      int    `json:"client,omitempty"`
	Candidates  int    `json:"candidates,omitempty"`
	Hits        int    `json:"cache_hits,omitempty"`
	Pruned      int    `json:"pruned,omitempty"`
	Fetched     int    `json:"fetched,omitempty"`
	PageReads   int64  `json:"page_reads,omitempty"`
	DeltaPoints int64  `json:"delta_points,omitempty"`
	Compacting  bool   `json:"compaction_in_flight,omitempty"`

	// rel marks a span whose times are offsets from its parent's start: the
	// phase spans of an HTTP search are built by the client from the response
	// stats, but their parent (server.handler) is timed by the server.
	rel bool
}

// tracer collects spans in memory; nothing is written before the run ends.
// Each client appends to its own buffer; the server wrapper shares one.
type tracer struct {
	epoch   time.Time
	clients [][]span
	mu      sync.Mutex
	server  []span
}

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), clients: make([][]span, clients)}
}

func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// phases appends the three Algorithm 1 phase spans laid end to end from
// start, as children of parent.
func phases(buf []span, op, parent uint64, start int64, st core.QueryStats, rel bool) []span {
	for _, p := range []struct {
		name string
		slot int
		d    time.Duration
	}{{spanGen, slotGen, st.GenTime}, {spanReduce, slotReduce, st.ReduceTime}, {spanRefine, slotRefine, st.RefineTime}} {
		s := span{Name: p.name, ID: spanID(op, p.slot), Parent: parent, Op: op, Start: start, End: start + int64(p.d), rel: rel}
		switch p.slot {
		case slotGen:
			s.Candidates = st.Candidates
		case slotReduce:
			s.Hits, s.Pruned = st.Hits, st.Pruned
		case slotRefine:
			s.Fetched, s.PageReads = st.Fetched, st.PageReads
		}
		buf = append(buf, s)
		start = s.End
	}
	return buf
}

// inProcessSearch records op > engine.search > phases for one SearchInto.
func (t *tracer) inProcessSearch(client int, op uint64, workload string, t0 time.Time, lat time.Duration, st core.QueryStats) {
	s, e := t.at(t0), t.at(t0)+int64(lat)
	buf := t.clients[client]
	buf = append(buf,
		span{Name: spanOp, ID: spanID(op, slotOp), Op: op, Start: s, End: e, Workload: workload, Kind: "search", Client: client},
		span{Name: spanEngine, ID: spanID(op, slotEngine), Parent: spanID(op, slotOp), Op: op, Start: s, End: e})
	t.clients[client] = phases(buf, op, spanID(op, slotEngine), s, st, false)
}

// httpOp records op > http.roundtrip for one request; for a search the phase
// spans hang under the server's handler span with parent-relative times.
func (t *tracer) httpOp(client int, op uint64, workload, kind string, opStart, sent time.Time, lat time.Duration, opEnd time.Time, st *core.QueryStats, delta int64, compacting bool) {
	buf := t.clients[client]
	buf = append(buf,
		span{Name: spanOp, ID: spanID(op, slotOp), Op: op, Start: t.at(opStart), End: t.at(opEnd), Workload: workload, Kind: kind, Client: client, DeltaPoints: delta, Compacting: compacting},
		span{Name: spanRoundtrip, ID: spanID(op, slotRoundtrip), Parent: spanID(op, slotOp), Op: op, Start: t.at(sent), End: t.at(sent) + int64(lat)})
	if st != nil {
		buf = phases(buf, op, spanID(op, slotHandler), 0, *st, true)
	}
	t.clients[client] = buf
}

// tracedHandler times the wrapped handler when a tracer is installed and is a
// plain pass-through (one atomic load) otherwise.
type tracedHandler struct {
	next   http.Handler
	tracer atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tracer.Load()
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	op, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	if err != nil {
		return // not one of the benchmark's traced requests
	}
	t.mu.Lock()
	t.server = append(t.server, span{Name: spanHandler, ID: spanID(op, slotHandler), Parent: spanID(op, slotRoundtrip), Op: op, Start: t.at(start), End: t.at(end)})
	t.mu.Unlock()
}

// spans merges every buffer and resolves parent-relative spans to trace time.
func (t *tracer) spans() []span {
	var all []span
	for _, b := range t.clients {
		all = append(all, b...)
	}
	all = append(all, t.server...)
	byID := make(map[uint64]int, len(all))
	for i, s := range all {
		byID[s.ID] = i
	}
	for i := range all {
		if !all[i].rel {
			continue
		}
		if p, ok := byID[all[i].Parent]; ok {
			all[i].Start += all[p].Start
			all[i].End += all[p].Start
		}
	}
	return all
}

// selfShares returns, per span name, the summed self time (a span's duration
// minus the part its children cover) as a share of the summed root time.
func selfShares(spans []span) map[string]float64 {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || s.Parent == 0 {
			continue
		}
		// Children of one parent are laid end to end or nest singly, so
		// clipping each to the parent's interval is enough.
		lo, hi := max(s.Start, spans[p].Start), min(s.End, spans[p].End)
		if hi > lo {
			covered[p] += hi - lo
		}
	}
	self := make(map[string]int64)
	var root int64
	for i, s := range spans {
		d := s.End - s.Start
		self[s.Name] += max(d-covered[i], 0)
		if s.Name == spanOp {
			root += d
		}
	}
	out := make(map[string]float64, len(spanNames))
	for _, name := range spanNames {
		if root > 0 {
			out[name] = float64(self[name]) / float64(root)
		} else {
			out[name] = 0
		}
	}
	return out
}

// writeSpans writes the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
