package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func TestSnapshotRoundTripAllMethods(t *testing.T) {
	w := buildWorld(t, 1000, 10, 71)
	for _, m := range AllMethods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			orig, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{
				Method: m, CacheBytes: 48 << 10, Tau: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := orig.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), &buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.CacheCapacity() != orig.CacheCapacity() || loaded.CacheLen() != orig.CacheLen() {
				t.Fatalf("cache shape changed: %d/%d vs %d/%d",
					loaded.CacheLen(), loaded.CacheCapacity(), orig.CacheLen(), orig.CacheCapacity())
			}
			// Identical behaviour on identical queries: same results, same
			// hit/prune/fetch counts.
			for _, q := range w.qtest[:5] {
				idsO, stO, err := orig.Search(q, 7)
				if err != nil {
					t.Fatal(err)
				}
				idsL, stL, err := loaded.Search(q, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(idsO) != len(idsL) {
					t.Fatalf("result sizes differ: %d vs %d", len(idsO), len(idsL))
				}
				setO := map[int]bool{}
				for _, id := range idsO {
					setO[id] = true
				}
				for _, id := range idsL {
					if !setO[id] {
						t.Fatalf("loaded engine returned %d, original did not", id)
					}
				}
				if stO.Hits != stL.Hits || stO.Pruned != stL.Pruned || stO.Fetched != stL.Fetched {
					t.Fatalf("execution diverged: orig %+v loaded %+v", stO, stL)
				}
			}
		})
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	w := buildWorld(t, 200, 6, 72)
	if _, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), bytes.NewReader([]byte("junk snapshot bytes"))); err == nil {
		t.Fatal("expected error on bad magic")
	}
	if _, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
	// Truncated valid snapshot.
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 1 << 16, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated snapshot")
	}
}

// snapSetup builds a world and a valid HC-O snapshot for corruption tests.
func snapSetup(t testing.TB) (*world, []byte) {
	w := buildWorld(t, 300, 8, 74)
	eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: HCO, CacheBytes: 1 << 16, Tau: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return w, buf.Bytes()
}

// patched returns a copy of snap with len(val) bytes replaced at off.
func patched(snap []byte, off int, val []byte) []byte {
	out := append([]byte(nil), snap...)
	copy(out[off:], val)
	return out
}

// TestSnapshotRejectsCorruptFields is the regression test for snapshot
// hardening: every out-of-range configuration field must come back as a
// descriptive error — in particular a zeroed tau used to panic inside
// encoding.NewCodec instead of failing the load. Field offsets follow the
// layout: magic(4) version(4) mlen(4) method(mlen) tau(4) cacheBytes(8)
// policy(4) smoothEps(8).
func TestSnapshotRejectsCorruptFields(t *testing.T) {
	w, snap := snapSetup(t)
	le := binary.LittleEndian
	mlen := int(le.Uint32(snap[8:12]))
	base := 12 + mlen
	u32 := func(v uint32) []byte { b := make([]byte, 4); le.PutUint32(b, v); return b }
	u64 := func(v uint64) []byte { b := make([]byte, 8); le.PutUint64(b, v); return b }

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"huge method length", patched(snap, 8, u32(1<<20)), "method name length"},
		{"zero tau for a coded method", patched(snap, base, u32(0)), "tau"},
		{"negative tau", patched(snap, base, u32(^uint32(0))), "tau"},
		{"tau beyond 32", patched(snap, base, u32(33)), "tau"},
		{"negative cache budget", patched(snap, base+4, u64(^uint64(0))), "negative"},
		{"unknown policy", patched(snap, base+12, u32(99)), "policy"},
		{"NaN smoothing epsilon", patched(snap, base+16, u64(0x7ff8000000000001)), "epsilon"},
		{"negative smoothing epsilon", patched(snap, base+16, u64(0xbff0000000000000)), "epsilon"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("corrupt snapshot loaded without error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// FuzzLoadEngine drives LoadEngine with arbitrary bytes: any input may be
// rejected, none may panic, and an accepted engine must serve a query. The
// seed corpus covers valid snapshots of the three cache representations plus
// truncations and a field corruption.
func FuzzLoadEngine(f *testing.F) {
	w := buildWorld(f, 300, 8, 75)
	for _, m := range []Method{HCO, Exact, NoCache, MHCR} {
		eng, err := NewEngine(w.pf, w.prof, candFunc(w.ix), Config{Method: m, CacheBytes: 1 << 16, Tau: 6})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		snap := buf.Bytes()
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:13])
		f.Add(patched(snap, 8, []byte{0xff, 0xff, 0xff, 0xff}))
	}
	f.Add([]byte{})
	f.Add([]byte("junk snapshot bytes"))

	q := w.qtest[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadEngine(w.pf, w.ds, candFunc(w.ix), bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, _, err := eng.Search(q, 3); err != nil {
			t.Fatalf("loaded engine cannot search: %v", err)
		}
	})
}
