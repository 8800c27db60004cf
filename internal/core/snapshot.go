package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"exploitbit/internal/bounds"
	"exploitbit/internal/cache"
	"exploitbit/internal/dataset"
	"exploitbit/internal/disk"
	"exploitbit/internal/encoding"
	"exploitbit/internal/histogram"
)

// Engine snapshots persist everything the offline pipeline produced — the
// histogram(s), the HFF cache content, the configuration — so a restarted
// process can serve queries immediately without re-profiling the workload or
// re-running Algorithm 2 (Section 3.5's "rebuild the cache periodically"
// maintenance model: build once per period, reload everywhere else).
//
// The snapshot stores point identifiers, not vectors: the dataset file is
// the source of truth and cached representations are re-encoded on load.
// A version-2 snapshot holds a sharded engine: the same magic, version 2, a
// shard count, then one version-1 body per shard in shard order. Each body
// is written against the shard's local id space (the MD bucket assignment is
// localized through the shard's id map), so every shard body round-trips
// like a standalone engine snapshot.
const (
	snapMagic          = 0x4542534e // "EBSN"
	snapVersion        = 1
	snapVersionSharded = 2

	histNone   = 0
	histGlobal = 1
	histPerDim = 2
	histMD     = 3
)

// WriteSnapshot serializes the engine's cache state.
func (e *Engine) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	if err := binary.Write(bw, le, uint32(snapMagic)); err != nil {
		return err
	}
	if err := binary.Write(bw, le, uint32(snapVersion)); err != nil {
		return err
	}
	if err := e.writeSnapshotBody(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteSnapshot serializes every shard's cache state as one version-2
// snapshot. Load it back with LoadShardedEngine over the same shard layout.
func (se *ShardedEngine) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	for _, v := range []uint32{snapMagic, snapVersionSharded, uint32(len(se.units))} {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	for s := range se.units {
		if err := se.Engine(s).writeSnapshotBody(bw); err != nil {
			return fmt.Errorf("core: writing shard %d snapshot body: %w", s, err)
		}
	}
	return bw.Flush()
}

// writeSnapshotBody writes the version-1 payload: method, configuration,
// histogram and cache content. Ids are written in the engine's own (local)
// id space; the MD bucket assignment is localized via globalID so a shared
// global MD histogram round-trips as a correct shard-local one.
func (e *Engine) writeSnapshotBody(bw *bufio.Writer) error {
	le := binary.LittleEndian
	write := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Write(bw, le, v); err != nil {
				return err
			}
		}
		return nil
	}
	method := []byte(string(e.cfg.Method))
	if err := write(uint32(len(method))); err != nil {
		return err
	}
	if _, err := bw.Write(method); err != nil {
		return err
	}
	if err := write(int32(e.cfg.Tau), e.cfg.CacheBytes, int32(e.cfg.Policy), e.cfg.SmoothEps); err != nil {
		return err
	}

	// Histogram payload.
	switch {
	case e.ghist != nil:
		if err := write(uint8(histGlobal)); err != nil {
			return err
		}
		if _, err := e.ghist.WriteTo(bw); err != nil {
			return err
		}
	case e.phist != nil:
		if err := write(uint8(histPerDim)); err != nil {
			return err
		}
		if _, err := e.phist.WriteTo(bw); err != nil {
			return err
		}
	case e.md != nil:
		if err := write(uint8(histMD), uint32(e.md.B()), uint32(e.md.Dim())); err != nil {
			return err
		}
		for b := 0; b < e.md.B(); b++ {
			lo, hi := e.md.Rect(b)
			for _, v := range lo {
				if err := write(math.Float32bits(v)); err != nil {
					return err
				}
			}
			for _, v := range hi {
				if err := write(math.Float32bits(v)); err != nil {
					return err
				}
			}
		}
		if err := write(uint32(e.ds.Len())); err != nil {
			return err
		}
		for id := 0; id < e.ds.Len(); id++ {
			if err := write(uint32(e.md.BucketOf(e.globalID(id)))); err != nil {
				return err
			}
		}
	default:
		if err := write(uint8(histNone)); err != nil {
			return err
		}
	}

	// Cache content: capacity + ids.
	var keys []int
	capacity := 0
	switch {
	case e.slab != nil:
		keys, capacity = e.slab.Keys(), e.slab.Capacity()
	case e.approx != nil:
		keys, capacity = e.approx.Keys(), e.approx.Capacity()
	case e.exact != nil:
		keys, capacity = e.exact.Keys(), e.exact.Capacity()
	case e.mdCache != nil:
		keys, capacity = e.mdCache.Keys(), e.mdCache.Capacity()
	}
	if err := write(uint32(capacity), uint32(len(keys))); err != nil {
		return err
	}
	for _, id := range keys {
		if err := write(uint32(id)); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshotHeader consumes and validates the magic + version pair.
func readSnapshotHeader(br *bufio.Reader) (uint32, error) {
	var magic, version uint32
	le := binary.LittleEndian
	if err := binary.Read(br, le, &magic); err != nil {
		return 0, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if err := binary.Read(br, le, &version); err != nil {
		return 0, fmt.Errorf("core: reading snapshot header: %w", err)
	}
	if magic != snapMagic {
		return 0, fmt.Errorf("core: not an engine snapshot (magic %#x)", magic)
	}
	return version, nil
}

// LoadEngine reconstructs an engine from a snapshot, the dataset, its point
// file and a candidate index — no workload needed.
func LoadEngine(pf *disk.PointFile, ds *dataset.Dataset, cands CandidateFunc, r io.Reader) (*Engine, error) {
	br := bufio.NewReader(r)
	version, err := readSnapshotHeader(br)
	if err != nil {
		return nil, err
	}
	if version == snapVersionSharded {
		return nil, fmt.Errorf("core: snapshot holds a sharded engine; load it with LoadShardedEngine")
	}
	if version != snapVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	return readSnapshotBody(br, pf, ds, cands)
}

// LoadShardedEngine reconstructs a sharded engine from a version-2 snapshot
// over the same shard layout it was written with: specs, owner and local
// must come from the identical partition (same shard count and membership).
func LoadShardedEngine(specs []ShardSpec, owner, local []int32, cands CandidateFunc, r io.Reader) (*ShardedEngine, error) {
	se, err := newRouter(specs, owner, local, cands)
	if err != nil {
		return nil, err
	}

	br := bufio.NewReader(r)
	version, err := readSnapshotHeader(br)
	if err != nil {
		return nil, err
	}
	if version == snapVersion {
		return nil, fmt.Errorf("core: snapshot holds a single engine; load it with LoadEngine")
	}
	if version != snapVersionSharded {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("core: reading snapshot shard count: %w", err)
	}
	if int(count) != len(specs) {
		return nil, fmt.Errorf("core: snapshot holds %d shards, layout has %d", count, len(specs))
	}

	for s, spec := range specs {
		e, err := readSnapshotBody(br, spec.PF, spec.DS, se.ShardCandidates(s))
		if err != nil {
			return nil, fmt.Errorf("core: reading shard %d snapshot body: %w", s, err)
		}
		// The body was written in local id space with a localized MD
		// assignment, so the loaded engine's model is shard-local and needs
		// no id translation (globalIDs stays nil).
		se.swapEngine(s, e)
	}
	se.cfg = se.Engine(0).cfg
	return se, nil
}

// readSnapshotBody reconstructs one engine from a version-1 payload.
func readSnapshotBody(br *bufio.Reader, pf *disk.PointFile, ds *dataset.Dataset, cands CandidateFunc) (*Engine, error) {
	le := binary.LittleEndian
	read := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(br, le, v); err != nil {
				return err
			}
		}
		return nil
	}
	var mlen uint32
	if err := read(&mlen); err != nil {
		return nil, fmt.Errorf("core: reading snapshot method: %w", err)
	}
	if mlen > 64 {
		return nil, fmt.Errorf("core: implausible method name length %d", mlen)
	}
	mbytes := make([]byte, mlen)
	if _, err := io.ReadFull(br, mbytes); err != nil {
		return nil, err
	}
	var tau, policy int32
	var cacheBytes int64
	var smooth float64
	if err := read(&tau, &cacheBytes, &policy, &smooth); err != nil {
		return nil, fmt.Errorf("core: reading snapshot config: %w", err)
	}
	cfg := Config{
		Method: Method(mbytes), Tau: int(tau), CacheBytes: cacheBytes,
		Policy: cache.Policy(policy), SmoothEps: smooth,
	}
	if err := cfg.Method.Validate(); err != nil {
		return nil, err
	}
	// Range-check every configuration field before it reaches a constructor:
	// a corrupt or truncated snapshot must come back as a descriptive error,
	// not a panic deep in encoding.NewCodec or a negative-capacity cache.
	if tau < 0 || tau > 32 {
		return nil, fmt.Errorf("core: snapshot tau %d outside [0,32]", tau)
	}
	if cacheBytes < 0 {
		return nil, fmt.Errorf("core: snapshot cache budget %d is negative", cacheBytes)
	}
	if cfg.Policy != cache.HFF && cfg.Policy != cache.LRU {
		return nil, fmt.Errorf("core: snapshot cache policy %d unknown", policy)
	}
	if math.IsNaN(smooth) || math.IsInf(smooth, 0) || smooth < 0 {
		return nil, fmt.Errorf("core: snapshot smoothing epsilon %v is not a finite non-negative number", smooth)
	}

	e := &Engine{ds: ds, pf: pf}
	e.cfg = cfg

	var kind uint8
	if err := read(&kind); err != nil {
		return nil, fmt.Errorf("core: reading histogram kind: %w", err)
	}
	switch kind {
	case histNone:
	case histGlobal:
		h, err := histogram.Read(br)
		if err != nil {
			return nil, err
		}
		if h.Ndom() != ds.Domain.Ndom {
			return nil, fmt.Errorf("core: snapshot histogram covers domain of %d values, dataset has %d", h.Ndom(), ds.Domain.Ndom)
		}
		e.ghist = h
		e.histSpaceBytes = h.SpaceBytes()
		e.table = bounds.NewTable(h, ds.Domain, ds.Dim)
	case histPerDim:
		p, err := histogram.ReadPerDim(br)
		if err != nil {
			return nil, err
		}
		if p.Dim() != ds.Dim {
			return nil, fmt.Errorf("core: snapshot has %d dimensions, dataset %d", p.Dim(), ds.Dim)
		}
		for j, h := range p.H {
			if h.Ndom() != ds.Domain.Ndom {
				return nil, fmt.Errorf("core: snapshot histogram for dimension %d covers domain of %d values, dataset has %d", j, h.Ndom(), ds.Domain.Ndom)
			}
		}
		e.phist = p
		e.histSpaceBytes = p.SpaceBytes()
		e.table = bounds.NewTablePerDim(p, ds.Domain)
	case histMD:
		var b, dim uint32
		if err := read(&b, &dim); err != nil {
			return nil, err
		}
		if int(dim) != ds.Dim || b == 0 || b > uint32(ds.Len()) {
			return nil, fmt.Errorf("core: implausible MD snapshot (B=%d dim=%d)", b, dim)
		}
		lo := make([][]float32, b)
		hi := make([][]float32, b)
		for i := range lo {
			lo[i] = make([]float32, dim)
			hi[i] = make([]float32, dim)
			for j := range lo[i] {
				var bits uint32
				if err := read(&bits); err != nil {
					return nil, err
				}
				lo[i][j] = math.Float32frombits(bits)
			}
			for j := range hi[i] {
				var bits uint32
				if err := read(&bits); err != nil {
					return nil, err
				}
				hi[i][j] = math.Float32frombits(bits)
			}
		}
		var n uint32
		if err := read(&n); err != nil {
			return nil, err
		}
		if int(n) != ds.Len() {
			return nil, fmt.Errorf("core: snapshot assignment covers %d points, dataset has %d", n, ds.Len())
		}
		assign := make([]int, n)
		for i := range assign {
			var a uint32
			if err := read(&a); err != nil {
				return nil, err
			}
			assign[i] = int(a)
		}
		md, err := histogram.NewMD(lo, hi, assign)
		if err != nil {
			return nil, err
		}
		e.md = md
		e.histSpaceBytes = md.SpaceBytes()
	default:
		return nil, fmt.Errorf("core: unknown histogram kind %d", kind)
	}

	var capacity, nkeys uint32
	if err := read(&capacity, &nkeys); err != nil {
		return nil, fmt.Errorf("core: reading cache content header: %w", err)
	}
	if nkeys > capacity || int(capacity) > 1<<30 {
		return nil, fmt.Errorf("core: implausible cache content (%d keys, capacity %d)", nkeys, capacity)
	}
	// Cached ids are distinct points of the dataset, so a key count beyond
	// ds.Len() is corruption — and bounding it here keeps the allocation
	// below proportional to the dataset instead of the (attacker-controlled)
	// count field.
	if int(nkeys) > ds.Len() {
		return nil, fmt.Errorf("core: snapshot caches %d ids, dataset has only %d points", nkeys, ds.Len())
	}
	keys := make([]int, nkeys)
	for i := range keys {
		var id uint32
		if err := read(&id); err != nil {
			return nil, err
		}
		if int(id) >= ds.Len() {
			return nil, fmt.Errorf("core: cached id %d beyond dataset", id)
		}
		keys[i] = int(id)
	}

	switch {
	case e.md != nil:
		e.mdCache = cache.New[int32](int(capacity), cfg.Policy)
		e.mdCache.FillHFF(keys, func(id int) int32 { return int32(e.md.BucketOf(id)) })
	case cfg.Method == Exact:
		e.exact = cache.New[[]float32](int(capacity), cfg.Policy)
		e.exact.FillHFF(keys, func(id int) []float32 {
			return append([]float32(nil), ds.Point(id)...)
		})
	case cfg.Method == NoCache:
	default:
		if e.table == nil {
			return nil, fmt.Errorf("core: snapshot for %s lacks a histogram", cfg.Method)
		}
		if cfg.Tau < 1 {
			return nil, fmt.Errorf("core: snapshot for %s has code length tau %d, need at least 1", cfg.Method, cfg.Tau)
		}
		e.codec = encoding.NewCodec(ds.Dim, cfg.Tau)
		if cfg.Policy == cache.HFF {
			// Loaded HFF content goes straight into the production slab
			// layout (snapshots predate the NoSlab ablation switch and never
			// record it; results are bit-identical either way).
			e.slab = cache.BuildSlab(ds.Len(), e.codec.Words(), int(capacity), keys, e.slabFiller())
		} else {
			e.approx = cache.New[[]uint64](int(capacity), cfg.Policy)
			e.approx.FillHFF(keys, e.pointEncoder())
		}
	}
	e.finalize(cands)
	return e, nil
}
