package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exploitbit"
	"exploitbit/internal/core"
	"exploitbit/internal/disk"
	"exploitbit/internal/server"
)

// window is what one measured stretch of a workload yields. All load is closed
// loop: a client issues its next operation when the previous one has returned.
type window struct {
	wall      time.Duration
	attempted int
	failed    int
	firstErr  string

	searchLat    []int64 // ns, as the caller sees it
	insertLat    []int64
	unattributed []int64 // per search: latency minus the three phase times
	compacting   []int64 // search latencies sampled while a compaction ran
	idle         []int64 // and while none did
	latSum       int64
	agg          core.Aggregate
	useful       int64 // Σ (k − TrueHits): fetches a perfect refinement would need
	identical    int   // sharded searches equal to the flat twin in ids and counts
	reqBytes     int64
	respBytes    int64
	shed         int // 503 replies: the server refused admission

	// Process and device deltas over the window.
	diskReads, diskRetries, diskErrors int64
	mallocs, allocBytes                uint64
	gcCycles                           uint32
	cpu                                time.Duration
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if w.firstErr == "" {
		w.firstErr = fmt.Sprintf(format, args...)
	}
}

func (w *window) search(lat time.Duration, st core.QueryStats) {
	w.searchLat = append(w.searchLat, int64(lat))
	w.unattributed = append(w.unattributed, int64(lat-st.GenTime-st.ReduceTime-st.RefineTime))
	w.latSum += int64(lat)
	w.agg.Add(st)
	w.useful += int64(searchK - st.TrueHits)
}

// merge folds a client's window into w (wall and process deltas are the
// caller's).
func (w *window) merge(c *window) {
	w.attempted += c.attempted
	w.failed += c.failed
	if w.firstErr == "" {
		w.firstErr = c.firstErr
	}
	w.searchLat = append(w.searchLat, c.searchLat...)
	w.insertLat = append(w.insertLat, c.insertLat...)
	w.unattributed = append(w.unattributed, c.unattributed...)
	w.compacting = append(w.compacting, c.compacting...)
	w.idle = append(w.idle, c.idle...)
	w.latSum += c.latSum
	w.useful += c.useful
	w.identical += c.identical
	w.reqBytes += c.reqBytes
	w.respBytes += c.respBytes
	w.shed += c.shed
	a, b := &w.agg, c.agg
	a.Queries += b.Queries
	a.Candidates += b.Candidates
	a.Hits += b.Hits
	a.Pruned += b.Pruned
	a.TrueHits += b.TrueHits
	a.Remaining += b.Remaining
	a.Fetched += b.Fetched
	a.PageReads += b.PageReads
	a.GenTime += b.GenTime
	a.ReduceTime += b.ReduceTime
	a.RefineTime += b.RefineTime
	a.LUTQueries += b.LUTQueries
	a.ParallelQueries += b.ParallelQueries
}

// then appends a window measured after w on the same fixture: samples merge,
// wall time and the process and device deltas add up.
func (w *window) then(next *window) *window {
	w.merge(next)
	w.wall += next.wall
	w.diskReads += next.diskReads
	w.diskRetries += next.diskRetries
	w.diskErrors += next.diskErrors
	w.mallocs += next.mallocs
	w.allocBytes += next.allocBytes
	w.gcCycles += next.gcCycles
	w.cpu += next.cpu
	return w
}

// percentileMs is the nearest-rank percentile of an ascending slice, in ms.
func percentileMs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e6
}

func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// procMark snapshots the process and device counters a window is charged for.
type procMark struct {
	mem  runtime.MemStats
	cpu  time.Duration
	disk disk.Stats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (fx *fixture) diskStats() disk.Stats {
	if fx.sharded != nil {
		return fx.sharded.DiskStats()
	}
	return fx.sys.PF.Stats()
}

func (fx *fixture) mark() procMark {
	var m procMark
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.disk = fx.diskStats()
	return m
}

func (w *window) charge(fx *fixture, from procMark) {
	to := fx.mark()
	w.mallocs = to.mem.Mallocs - from.mem.Mallocs
	w.allocBytes = to.mem.TotalAlloc - from.mem.TotalAlloc
	w.gcCycles = to.mem.NumGC - from.mem.NumGC
	w.cpu = to.cpu - from.cpu
	w.diskReads = to.disk.PageReads - from.disk.PageReads
	w.diskRetries = to.disk.Retries - from.disk.Retries
	w.diskErrors = to.disk.TransientErrors + to.disk.PermanentErrors - from.disk.TransientErrors - from.disk.PermanentErrors
}

// oracle holds the expected answers, computed outside the measured windows.
// A search returns its k ids as a set (detected true hits first, then the
// refined rest by distance), so ids are compared in ascending id order; the
// sharded engine must reproduce its flat twin's order too.
type oracle struct {
	ids   map[int][]int           // pool index -> expected result ids
	stats map[int]core.QueryStats // wide_sharded: the flat twin's counts
}

// buildOracle computes the expected ids of every distinct query of the lap.
// Caching never changes results (the paper's invariant), so a NoCache engine
// over the same system is the reference; the sharded engine is held to the
// stronger contract of equalling its flat twin in ids and in counts.
func (fx *fixture) buildOracle(stream []int) (*oracle, error) {
	o := &oracle{ids: make(map[int][]int)}
	var ref *exploitbit.Engine
	var err error
	if fx.def.sharded {
		ref, err = fx.sys.Engine(exploitbit.HCO, fx.budget, fx.tau)
		o.stats = make(map[int]core.QueryStats)
	} else {
		ref, err = fx.sys.Engine(exploitbit.NoCache, 0, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("oracle engine: %w", err)
	}
	for _, qi := range stream {
		if _, ok := o.ids[qi]; ok {
			continue
		}
		ids, st, err := ref.Search(fx.pool[qi], searchK)
		if err != nil {
			return nil, fmt.Errorf("oracle search: %w", err)
		}
		if o.stats != nil {
			o.stats[qi] = st
		} else {
			slices.Sort(ids)
		}
		o.ids[qi] = ids
	}
	return o, nil
}

// check compares one search against the oracle; a mismatch is a failed op.
func (o *oracle) check(w *window, qi int, ids []int, st core.QueryStats) {
	if o.stats == nil {
		var buf [searchK]int // clients share the oracle, so no shared scratch
		ids = buf[:copy(buf[:], ids)]
		slices.Sort(ids)
	}
	if !slices.Equal(ids, o.ids[qi]) {
		w.fail("query %d: ids %v, oracle %v", qi, ids, o.ids[qi])
		return
	}
	if o.stats == nil {
		return
	}
	if f := o.stats[qi]; st.Pruned != f.Pruned || st.TrueHits != f.TrueHits || st.Remaining != f.Remaining || st.PageReads != f.PageReads {
		w.fail("query %d: sharded counts differ from the flat twin", qi)
		return
	}
	w.identical++
}

// runLaps drives an in-process workload with one client for at least the
// given time, in whole laps (at least one).
func (fx *fixture) runLaps(stream []int, o *oracle, seconds float64, tr *tracer) *window {
	search := fx.eng.SearchInto
	if fx.sharded != nil {
		search = fx.sharded.SearchInto
	}
	w := &window{}
	dst := make([]int, 0, searchK)
	from := fx.mark()
	start := time.Now()
	for laps := 0; laps == 0 || time.Since(start).Seconds() < seconds; laps++ {
		for _, qi := range stream {
			fx.ops++
			t0 := time.Now()
			ids, st, err := search(fx.pool[qi], searchK, dst)
			lat := time.Since(t0)
			w.attempted++
			if err != nil {
				w.fail("search: %v", err)
				continue
			}
			w.search(lat, st)
			o.check(w, qi, ids, st)
			if tr != nil {
				tr.inProcessSearch(0, fx.ops, fx.def.name, t0, lat, st)
			}
		}
	}
	w.wall = time.Since(start)
	w.charge(fx, from)
	return w
}

// liveState is the compaction state a background sampler publishes, so the
// clients can bucket their searches without taking the write path's lock.
type liveState struct {
	compacting atomic.Bool
	delta      atomic.Int64
	deltaMax   atomic.Int64
	stop       chan struct{}
	done       chan struct{}
	once       sync.Once
}

func (fx *fixture) startSampler() *liveState {
	s := &liveState{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				st := fx.ls.Stats()
				s.compacting.Store(st.CompactInFlight)
				s.delta.Store(int64(st.DeltaPoints))
				if int64(st.DeltaPoints) > s.deltaMax.Load() {
					s.deltaMax.Store(int64(st.DeltaPoints))
				}
			}
		}
	}()
	return s
}

// close stops the sampler and waits for it; later calls do nothing.
func (s *liveState) close() {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
	})
}

// ownedPoint is an insert this client had acknowledged.
type ownedPoint struct {
	id   int
	vec  []float32
	body []byte // the /search body that queries exactly this vector
}

// httpClient is one closed-loop client with its own keep-alive connection.
type httpClient struct {
	id     int
	fx     *fixture
	hc     *http.Client
	rng    *rand.Rand
	stream []int
	bodies map[int][]byte // pool index -> pre-encoded /search body
	oracle *oracle
	buf    bytes.Buffer

	ops     uint64
	pos     int
	owned   []ownedPoint // acknowledged, not yet deleted, oldest first
	deleted map[int]bool
	probe   *ownedPoint // the next search reads this client's last write back
}

type searchReply struct {
	IDs   []int        `json:"ids"`
	Stats server.Stats `json:"stats"`
}

func queryStats(s server.Stats) core.QueryStats {
	return core.QueryStats{
		Candidates: s.Candidates, Hits: s.Hits, Pruned: s.Pruned, TrueHits: s.TrueHits,
		Remaining: s.Remaining, Fetched: s.Fetched, PageReads: s.PageReads,
		GenTime: s.GenTime, ReduceTime: s.ReduceTime, RefineTime: s.RefineTime,
	}
}

// jsonBody marshals a request body; the bodies here are finite float32 slices
// and ints, which always encode.
func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func searchBody(v []float32) []byte {
	return jsonBody(struct {
		Vector []float32 `json:"vector"`
		K      int       `json:"k"`
	}{v, searchK})
}

// newClients builds the workload's clients: client c replays every
// clients-th entry of the lap, and draws its writes from its own seeded PRNG.
func (fx *fixture) newClients(stream []int, o *oracle) []*httpClient {
	bodies := make(map[int][]byte)
	for _, qi := range stream {
		if _, ok := bodies[qi]; !ok {
			bodies[qi] = searchBody(fx.pool[qi])
		}
	}
	tr := &http.Transport{MaxIdleConnsPerHost: fx.def.clients}
	cs := make([]*httpClient, fx.def.clients)
	for c := range cs {
		cl := &httpClient{
			id: c, fx: fx, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second},
			rng: rand.New(rand.NewSource(fx.cfg.seed*1000 + int64(c) + 1)), bodies: bodies, oracle: o,
			deleted: make(map[int]bool),
		}
		for i := c; i < len(stream); i += len(cs) {
			cl.stream = append(cl.stream, stream[i])
		}
		cs[c] = cl
	}
	return cs
}

// post sends one request and reads the whole reply; the latency is what the
// caller waits, from sending to the last byte of the body.
func (c *httpClient) post(path string, body []byte, op uint64, traced bool) (status int, sent time.Time, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.fx.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, time.Now(), 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	c.buf.Reset()
	sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, sent, time.Since(sent), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	lat = time.Since(sent)
	resp.Body.Close()
	return resp.StatusCode, sent, lat, err
}

// The write mix of http_live: of every 25 operations, 4 insert a point, the
// search after each insert reads that point back, and 1 deletes the client's
// oldest point. The other 16 replay the log.
const (
	cycleLen    = 25
	deleteSlot  = 24
	insertEvery = 6
	insertFirst = 4
)

func opKind(i int, writes bool) string {
	if writes {
		switch slot := i % cycleLen; {
		case slot == deleteSlot:
			return "delete"
		case slot%insertEvery == insertFirst:
			return "insert"
		}
	}
	return "search"
}

// run issues operations until the deadline.
func (c *httpClient) run(w *window, deadline time.Time, writes bool, live *liveState, tr *tracer) {
	name := c.fx.def.name
	for time.Now().Before(deadline) {
		kind := opKind(int(c.ops), writes)
		if kind == "delete" && len(c.owned) == 0 {
			kind = "search"
		}
		c.ops++
		op := uint64(c.id+1)<<32 | c.ops
		opStart := time.Now()
		w.attempted++

		var path string
		var body []byte
		var vec []float32
		qi := -1
		switch kind {
		case "insert":
			vec = c.newVector()
			body = jsonBody(struct {
				Vector []float32 `json:"vector"`
			}{vec})
			path = "/insert"
		case "delete":
			body = []byte(`{"id":` + strconv.Itoa(c.owned[0].id) + `}`)
			path = "/delete"
		default:
			path = "/search"
			if c.probe != nil {
				body = c.probe.body
			} else {
				qi = c.stream[c.pos%len(c.stream)]
				c.pos++
				body = c.bodies[qi]
			}
		}

		var compacting bool
		var delta int64
		if live != nil {
			compacting, delta = live.compacting.Load(), live.delta.Load()
		}
		status, sent, lat, err := c.post(path, body, op, tr != nil)
		w.reqBytes += int64(len(body))
		w.respBytes += int64(c.buf.Len())
		var st *core.QueryStats
		switch {
		case err != nil:
			w.fail("%s: %v", path, err)
		case status != http.StatusOK:
			if status == http.StatusServiceUnavailable {
				w.shed++
			}
			w.fail("%s: status %d: %s", path, status, bytes.TrimSpace(c.buf.Bytes()))
		case kind == "insert":
			w.insertLat = append(w.insertLat, int64(lat))
			var rep struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
				w.fail("/insert reply: %v", err)
				break
			}
			p := ownedPoint{id: rep.ID, vec: vec, body: searchBody(vec)}
			c.owned = append(c.owned, p)
			c.probe = &p
		case kind == "delete":
			c.deleted[c.owned[0].id] = true
			c.owned = c.owned[1:]
		default:
			var rep searchReply
			if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
				w.fail("/search reply: %v", err)
				break
			}
			qs := queryStats(rep.Stats)
			st = &qs
			w.search(lat, qs)
			if live != nil {
				if compacting {
					w.compacting = append(w.compacting, int64(lat))
				} else {
					w.idle = append(w.idle, int64(lat))
				}
			}
			c.checkSearch(w, qi, rep.IDs, qs)
		}
		if tr != nil {
			tr.httpOp(c.id, op, name, kind, opStart, sent, lat, time.Now(), st, delta, compacting)
		}
	}
}

// newVector draws the next point to insert: a pool vector plus seeded jitter,
// clamped into the domain so the stored vector is exactly the one sent.
func (c *httpClient) newVector() []float32 {
	src := c.fx.pool[c.rng.Intn(len(c.fx.pool))]
	v := make([]float32, len(src))
	for j := range v {
		v[j] = src[j] + float32(c.rng.NormFloat64()*insertNoise)
	}
	c.fx.ds.Domain.ClampPoint(v)
	return v
}

// checkSearch applies the oracle that fits the search: the static expected
// ids when nothing is written, and read-your-writes when something is — an
// acknowledged insert is among the neighbours of its own vector (it is at
// distance 0; results are a set, so "rank 1" is membership), and no id this
// client has deleted ever comes back.
func (c *httpClient) checkSearch(w *window, qi int, ids []int, st core.QueryStats) {
	if !c.fx.def.writes {
		c.oracle.check(w, qi, ids, st)
		return
	}
	for _, id := range ids {
		if c.deleted[id] {
			w.fail("deleted id %d returned", id)
			return
		}
	}
	if p := c.probe; p != nil {
		c.probe = nil
		if !slices.Contains(ids, p.id) {
			w.fail("insert %d is missing from the search for its own vector: %v", p.id, ids)
		}
	}
}

// runClients drives an HTTP workload for the given time.
func (fx *fixture) runClients(clients []*httpClient, seconds float64, writes bool, live *liveState, tr *tracer) *window {
	w := &window{}
	parts := make([]*window, len(clients))
	from := fx.mark()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, c := range clients {
		parts[i] = &window{}
		wg.Add(1)
		go func(c *httpClient, part *window) {
			defer wg.Done()
			c.run(part, deadline, writes, live, tr)
		}(c, parts[i])
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.charge(fx, from)
	for _, p := range parts {
		w.merge(p)
	}
	return w
}

// checkRecovery closes the live system and replays its WAL directory: every
// acknowledged, undeleted insert must be there with its vector, and every
// deleted id must be tombstoned. Each violation is one failed op.
func (fx *fixture) checkRecovery(clients []*httpClient, w *window) error {
	if err := fx.waitIdle(); err != nil {
		return err
	}
	if err := fx.closeSystem(); err != nil {
		return fmt.Errorf("closing the live system: %w", err)
	}
	fold, rec, err := exploitbit.RecoverFold(fx.ds, fx.walDir)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	for _, c := range clients {
		for _, p := range c.owned {
			_, dead := rec.Tombs[int64(p.id)]
			if p.id >= fold.Len() || dead || !slices.Equal(fold.Point(p.id), p.vec) {
				w.fail("acknowledged insert %d lost by recovery", p.id)
			}
		}
		for id := range c.deleted {
			if _, dead := rec.Tombs[int64(id)]; !dead {
				w.fail("deleted id %d alive after recovery", id)
			}
		}
	}
	return nil
}
