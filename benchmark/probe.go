package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"exploitbit/internal/bounds"
	"exploitbit/internal/cache"
	"exploitbit/internal/disk"
	"exploitbit/internal/encoding"
	"exploitbit/internal/histogram"
	"exploitbit/internal/ingest"
	"exploitbit/internal/lsh"
	"exploitbit/internal/multistep"
	"exploitbit/internal/server"
)

// injectLatency is the delay the waited-I/O injector adds to every physical
// page read. On this sandbox any sleep up to 1 ms realises about 1.1 ms.
const injectLatency = time.Millisecond

func latencyInjector() *disk.Injector {
	return disk.NewInjector(disk.FaultPolicy{Rules: []disk.FaultRule{
		{Kind: disk.FaultLatency, FirstPage: 0, LastPage: -1, Latency: injectLatency},
	}})
}

// timeCalls runs f n times and returns the mean time of one call.
func timeCalls(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// stubSearcher answers at once, so the handler probe times only decoding,
// validation, admission and encoding.
type stubSearcher struct{ ids []int }

func (s stubSearcher) Search(context.Context, []float32, int) ([]int, server.Stats, error) {
	return s.ids, server.Stats{Candidates: 110, Hits: 100, Fetched: 12, PageReads: 12}, nil
}

// probeSink keeps the probe's computed values live, so the compiler cannot
// drop the calls that produced them.
var probeSink float64

// probe times each layer's public functions directly, on inputs taken from
// the fixture at the serving dimensionality and code length. Iteration counts
// are fixed so the probe costs about a second.
func (fx *fixture) probe(values map[string]float64) error {
	ds, dim, tau := fx.ds, fx.ds.Dim, fx.tau
	queries := fx.pool[:64]

	// lsh: index build (the dominant part of set-up and of every compaction)
	// and Phase 1 candidate generation at the default beta.
	t := time.Now()
	ix := lsh.Build(ds, lsh.Params{})
	values["lsh.build_s"] = time.Since(t).Seconds()
	var cands []int
	values["lsh.candidates_us"] = us(timeCalls(len(queries), func(i int) {
		cands = ix.Candidates(queries[i], searchK).IDs
	}))

	// encoding + histogram: quantise and pack points at the serving tau.
	hist := histogram.EquiWidth(ds.Domain.Ndom, histogram.MaxBucketsForCodeLen(tau, ds.Domain.Ndom))
	codec := encoding.NewCodec(dim, tau)
	codes := make([]int, dim)
	encode := func(id int, dst []uint64) {
		for j, v := range ds.Point(id) {
			codes[j] = hist.Bucket(ds.Domain.Bin(float64(v)))
		}
		codec.Encode(codes, dst)
	}
	nSlab := min(4096, ds.Len())
	ids := make([]int, nSlab)
	for i := range ids {
		ids[i] = i
	}
	t = time.Now()
	slab := cache.BuildSlab(ds.Len(), codec.Words(), nSlab, ids, encode)
	values["encoding.encode_ns_per_point"] = float64(time.Since(t)) / float64(nSlab)

	// cache: id -> slot resolution, hits and misses mixed.
	const lookups = 1 << 20
	slots := 0
	t = time.Now()
	for i := 0; i < lookups; i++ {
		if slab.SlotOf((i*7919)%ds.Len()) >= 0 {
			slots++
		}
	}
	values["cache.slab_lookup_ns"] = float64(time.Since(t)) / lookups
	probeSink += float64(slots)

	// bounds: per-query LUT build, then the fused slab kernel over the arena.
	table := bounds.NewTable(hist, ds.Domain, dim)
	var lut *bounds.QueryLUT
	values["bounds.lut_build_us"] = us(timeCalls(256, func(i int) {
		lut = table.BuildLUT(queries[i%len(queries)], lut)
	}))
	lbs, ubs := make([]float64, nSlab), make([]float64, nSlab)
	const sweeps = 16
	values["bounds.bound_ns_per_cand"] = float64(timeCalls(sweeps, func(int) {
		lut.BoundsSqPackedRange(slab.Arena(), nSlab, codec, lbs, ubs)
	})) / float64(nSlab)
	probeSink += lbs[0] + ubs[nSlab-1]

	// multistep: refinement with every fetch served from memory.
	q := queries[len(queries)-1] // the query cands and lut were left at
	mc := make([]multistep.Candidate, len(cands))
	words := make([]uint64, codec.Words())
	for i, id := range cands {
		encode(id, words)
		lb, ub := lut.BoundsSqPacked(words, codec)
		mc[i] = multistep.Candidate{ID: id, LB: math.Sqrt(lb), UB: math.Sqrt(ub)}
	}
	fetch := func(id int) ([]float32, error) { return ds.Point(id), nil }
	var refineErr error
	values["multistep.search_us_in_memory"] = us(timeCalls(256, func(int) {
		if _, _, err := multistep.Search(q, mc, searchK, fetch); err != nil {
			refineErr = err
		}
	}))
	if refineErr != nil {
		return fmt.Errorf("probe: multistep: %w", refineErr)
	}

	// disk: one point fetch from the OS-cached file, then with waited I/O.
	pf := fx.sys.PF
	buf := make([]float32, dim)
	fetchPoint := func(i int) {
		if _, err := pf.Fetch((i*7919)%ds.Len(), buf); err != nil {
			refineErr = err
		}
	}
	values["disk.fetch_us"] = us(timeCalls(4096, fetchPoint))
	pf.SetFaults(latencyInjector())
	values["disk.read_wait_us"] = us(timeCalls(64, fetchPoint))
	pf.SetFaults(nil)
	if refineErr != nil {
		return fmt.Errorf("probe: fetch: %w", refineErr)
	}

	// ingest: one WAL record per append under each fsync policy.
	for mode, n := range map[ingest.FsyncMode]int{ingest.FsyncAlways: 64, ingest.FsyncNone: 4096} {
		wal, err := ingest.OpenWAL(filepath.Join(fx.dir, "probe-wal-"+string(mode)), dim, 1, mode)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		var appendErr error
		per := timeCalls(n, func(i int) {
			if err := wal.AppendInsert(uint64(i), queries[i%len(queries)]); err != nil {
				appendErr = err
			}
		})
		if mode == ingest.FsyncNone {
			bytes, _ := wal.Stats()
			values["ingest.wal_bytes_per_insert"] = float64(bytes) / float64(n)
		}
		if err := wal.Close(); appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return fmt.Errorf("probe: wal append: %w", appendErr)
		}
		values["ingest.wal_append_us.fsync_"+string(mode)] = us(per)
	}

	// server: the handler over a searcher that costs nothing.
	h := server.New(stubSearcher{ids: cands[:searchK]}, server.Config{Dim: dim})
	body := searchBody(queries[0])
	status := http.StatusOK
	values["server.handler_us"] = us(timeCalls(512, func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			status = rec.Code
		}
	}))
	if status != http.StatusOK {
		return fmt.Errorf("probe: handler answered %d", status)
	}
	return nil
}
