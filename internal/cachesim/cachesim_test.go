package cachesim

import (
	"math/rand"
	"testing"
)

// complete drives a load to completion, returning total latency.
func complete(t *testing.T, c *Cache, addr uint32, now uint64) int {
	t.Helper()
	id, d := c.LoadRequest(addr, now)
	total := d
	at := now + uint64(d)
	for i := 0; ; i++ {
		if i > 10 {
			t.Fatal("load did not complete within 10 polls")
		}
		ready, d := c.LoadPoll(id, at)
		if ready {
			return total
		}
		total += d
		at += uint64(d)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(DefaultConfig())
	cfg := c.Config()
	// Cold: L1 miss + L2 miss -> full memory path.
	lat := complete(t, c, 0x1000, 0)
	wantCold := cfg.L1MissLat + cfg.MemLat + cfg.BusBeats
	if lat != wantCold {
		t.Errorf("cold latency = %d, want %d", lat, wantCold)
	}
	// Now it must hit in L1.
	lat = complete(t, c, 0x1000, 1000)
	if lat != cfg.L1HitLat {
		t.Errorf("hit latency = %d, want %d", lat, cfg.L1HitLat)
	}
	s := c.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 || s.L2Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSameLineDifferentWordHits(t *testing.T) {
	c := New(DefaultConfig())
	complete(t, c, 0x2000, 0)
	lat := complete(t, c, 0x2000+8, 1000) // same 32-byte line
	if lat != c.Config().L1HitLat {
		t.Errorf("same-line latency = %d", lat)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// L1: 16KiB 2-way, 32B lines -> 256 sets; addresses 32KiB apart with the
	// same set index conflict. Fill a set with 2 lines, then a third.
	a, b, d := uint32(0x0000), uint32(0x0000+16<<10/2*2), uint32(0x10000)
	// choose three addresses mapping to the same L1 set: stride = sets*line = 8KiB
	a, b, d = 0x0, 0x2000, 0x4000
	complete(t, c, a, 0)
	complete(t, c, b, 1000)
	complete(t, c, d, 2000) // evicts a from L1 (LRU)
	// a should now miss L1 but hit L2.
	lat := complete(t, c, a, 3000)
	want := cfg.L1MissLat + cfg.L2HitExtra
	if lat != want {
		t.Errorf("L2 hit latency = %d, want %d", lat, want)
	}
	s := c.Stats()
	if s.L2Hits != 1 {
		t.Errorf("L2 hits = %d", s.L2Hits)
	}
}

func TestIntervalProtocolTwoStage(t *testing.T) {
	// An L2 miss must be revealed in stages: first the L1-miss interval,
	// then the memory interval — the paper's two-call example.
	c := New(DefaultConfig())
	cfg := c.Config()
	id, d1 := c.LoadRequest(0x3000, 0)
	if d1 != cfg.L1MissLat {
		t.Fatalf("first interval = %d, want %d", d1, cfg.L1MissLat)
	}
	ready, d2 := c.LoadPoll(id, uint64(d1))
	if ready {
		t.Fatal("ready too early")
	}
	if d2 != cfg.MemLat+cfg.BusBeats {
		t.Errorf("second interval = %d, want %d", d2, cfg.MemLat+cfg.BusBeats)
	}
	ready, _ = c.LoadPoll(id, uint64(d1+d2))
	if !ready {
		t.Error("not ready after full wait")
	}
}

func TestEarlyPollReturnsRemainder(t *testing.T) {
	c := New(DefaultConfig())
	id, d := c.LoadRequest(0x4000, 0)
	ready, rem := c.LoadPoll(id, uint64(d-3))
	if ready || rem != 3 {
		t.Errorf("early poll = %v/%d, want false/3", ready, rem)
	}
	c.Cancel(id)
}

func TestBusContentionSerializesMisses(t *testing.T) {
	// Two simultaneous L2 misses must not overlap on the bus: the second
	// completes later than the first.
	c := New(DefaultConfig())
	id1, d1 := c.LoadRequest(0x10000, 0)
	id2, d2 := c.LoadRequest(0x20000, 0)
	_, m1 := c.LoadPoll(id1, uint64(d1))
	_, m2 := c.LoadPoll(id2, uint64(d2))
	if d1+m1 >= d2+m2 {
		t.Errorf("second miss (%d) must finish after first (%d)", d2+m2, d1+m1)
	}
	if m2 <= m1 {
		t.Errorf("bus contention not visible: m1=%d m2=%d", m1, m2)
	}
}

func TestMSHRPressureDelaysRequests(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Issue more concurrent L1 misses than MSHRs; later ones must see a
	// longer first interval.
	var firstDelays []int
	for i := 0; i < cfg.MSHRs+4; i++ {
		_, d := c.LoadRequest(uint32(0x100000+i*0x1000), 0)
		firstDelays = append(firstDelays, d)
	}
	if firstDelays[0] != cfg.L1MissLat {
		t.Errorf("first = %d", firstDelays[0])
	}
	if firstDelays[cfg.MSHRs] <= firstDelays[0] {
		t.Errorf("MSHR-full request not delayed: %v", firstDelays)
	}
}

func TestStoreWriteAllocateAndWriteback(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	// Store to a cold line: L2 write-allocate.
	c.Store(0x5000, 0)
	s := c.Stats()
	if s.Stores != 1 || s.StoreL2Hit != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Store again: L2 hit, line dirty.
	c.Store(0x5004, 10)
	if c.Stats().StoreL2Hit != 1 {
		t.Error("second store should hit L2")
	}
	// Force eviction of the dirty line from L2 by filling its set.
	// L2: 1MiB 2-way 32B lines -> 16384 sets, stride = 512KiB.
	c.Store(0x5000+512<<10, 100)
	c.Store(0x5000+2*(512<<10), 200)
	if c.Stats().Writebacks == 0 {
		t.Error("dirty eviction did not write back")
	}
}

func TestLoadSeesDirtyStoreLineInL2(t *testing.T) {
	cfg := DefaultConfig()
	c := New(cfg)
	c.Store(0x6000, 0)
	// Load from the stored line: L1 miss (no-write-allocate L1), L2 hit.
	lat := complete(t, c, 0x6000, 100)
	if lat != cfg.L1MissLat+cfg.L2HitExtra {
		t.Errorf("latency = %d, want L2 hit %d", lat, cfg.L1MissLat+cfg.L2HitExtra)
	}
}

func TestCancel(t *testing.T) {
	c := New(DefaultConfig())
	id, _ := c.LoadRequest(0x7000, 0)
	if c.Outstanding() != 1 {
		t.Fatal("not outstanding")
	}
	c.Cancel(id)
	if c.Outstanding() != 0 || c.Stats().Cancels != 1 {
		t.Error("cancel failed")
	}
	c.Cancel(id) // double cancel is a no-op
	if c.Stats().Cancels != 1 {
		t.Error("double cancel counted")
	}

	// Ids are never reused: once a finished load's slot holds a new
	// request, cancelling the old id must leave the new one alone.
	for _, cancel := range []bool{false, true} {
		c := New(DefaultConfig())
		stale, reused := finishedID(t, c, cancel)
		cancels := c.Stats().Cancels
		c.Cancel(stale)
		if c.Outstanding() != 1 || c.Stats().Cancels != cancels {
			t.Errorf("cancel=%v: stale Cancel touched the live load: outstanding %d, cancels %d -> %d",
				cancel, c.Outstanding(), cancels, c.Stats().Cancels)
		}
		c.Cancel(reused)
		if c.Outstanding() != 0 || c.Stats().Cancels != cancels+1 {
			t.Errorf("cancel=%v: live load not cancellable after stale Cancel", cancel)
		}
	}

	// Outstanding counts live requests only: not completed or cancelled
	// ones, and a reused slot once.
	c = New(DefaultConfig())
	complete(t, c, 0x9000, 0)
	a, _ := c.LoadRequest(0xa000, 500)
	b, _ := c.LoadRequest(0xb000, 500)
	c.LoadRequest(0xc000, 500)
	c.Cancel(a)
	if c.Outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", c.Outstanding())
	}
	c.Cancel(b)
	c.LoadRequest(0xd000, 600)
	if c.Outstanding() != 2 {
		t.Errorf("outstanding after slot reuse = %d, want 2", c.Outstanding())
	}
}

// finishedID issues a load and completes it (or cancels it), then issues
// another load that takes over the same slot. It returns both ids.
func finishedID(t *testing.T, c *Cache, cancel bool) (stale, reused int) {
	t.Helper()
	stale, d := c.LoadRequest(0x7000, 0)
	if cancel {
		c.Cancel(stale)
	} else {
		for at, ready := uint64(d), false; !ready; {
			ready, d = c.LoadPoll(stale, at)
			at += uint64(d)
		}
	}
	reused, _ = c.LoadRequest(0x8000, 1000)
	if reused&reqSlotMask != stale&reqSlotMask {
		t.Fatalf("slot not reused: stale %#x, new %#x", stale, reused)
	}
	if reused == stale {
		t.Fatalf("id %#x handed out twice", stale)
	}
	return stale, reused
}

func TestPollUnknownPanics(t *testing.T) {
	cases := []struct {
		name string
		id   func(t *testing.T, c *Cache) int
	}{
		{"never issued", func(*testing.T, *Cache) int { return 99 }},
		{"zero, slot 0 free", func(_ *testing.T, c *Cache) int { id, _ := c.LoadRequest(0x7000, 0); c.Cancel(id); return 0 }},
		{"completed, slot reused", func(t *testing.T, c *Cache) int { s, _ := finishedID(t, c, false); return s }},
		{"cancelled, slot reused", func(t *testing.T, c *Cache) int { s, _ := finishedID(t, c, true); return s }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(DefaultConfig())
			id := tc.id(t, c)
			defer func() {
				if recover() == nil {
					t.Errorf("LoadPoll(%#x) did not panic", id)
				}
			}()
			c.LoadPoll(id, 1<<20)
		})
	}
}

func TestDeterminism(t *testing.T) {
	// The same call sequence must produce identical intervals — the
	// property the memoization layer depends on.
	run := func() []int {
		c := New(DefaultConfig())
		r := rand.New(rand.NewSource(7))
		var out []int
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(1<<18)) &^ 3
			if r.Intn(3) == 0 {
				c.Store(addr, now)
			} else {
				lat := 0
				id, d := c.LoadRequest(addr, now)
				lat += d
				at := now + uint64(d)
				for {
					ready, d2 := c.LoadPoll(id, at)
					if ready {
						break
					}
					lat += d2
					at += uint64(d2)
				}
				out = append(out, lat)
			}
			now += uint64(r.Intn(20))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestHitRateOnLoopWorkingSet(t *testing.T) {
	// A working set smaller than L1 must converge to ~100% hits.
	c := New(DefaultConfig())
	now := uint64(0)
	for pass := 0; pass < 4; pass++ {
		for a := uint32(0); a < 8<<10; a += 4 {
			lat := complete(t, c, a, now)
			now += uint64(lat)
		}
	}
	s := c.Stats()
	hitRate := float64(s.L1Hits) / float64(s.Loads)
	if hitRate < 0.9 {
		t.Errorf("hit rate = %.3f, want > 0.9", hitRate)
	}
}

func TestIntervalsMonotoneNonNegative(t *testing.T) {
	c := New(DefaultConfig())
	r := rand.New(rand.NewSource(99))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		addr := uint32(r.Intn(1<<20)) &^ 3
		id, d := c.LoadRequest(addr, now)
		if d < 0 {
			t.Fatalf("negative interval %d", d)
		}
		at := now + uint64(d)
		for {
			ready, d2 := c.LoadPoll(id, at)
			if ready {
				break
			}
			if d2 <= 0 {
				t.Fatalf("non-positive continuation interval %d", d2)
			}
			at += uint64(d2)
		}
		now += uint64(r.Intn(5))
	}
}

func TestAlternateGeometries(t *testing.T) {
	// Direct-mapped tiny L1, 4-way larger L2, 64-byte lines: the model
	// must respect every geometry, not just the paper's defaults.
	cfg := Config{
		L1Size: 1 << 10, L1Assoc: 1,
		L2Size: 64 << 10, L2Assoc: 4,
		Line: 64, MSHRs: 4,
		L1HitLat: 1, L1MissLat: 3, L2HitExtra: 5, MemLat: 30, BusBeats: 8,
	}
	c := New(cfg)
	// Direct-mapped conflicts: two addresses one L1-size apart always evict
	// each other.
	a, b := uint32(0), uint32(1<<10)
	complete(t, c, a, 0)
	complete(t, c, b, 100)
	lat := complete(t, c, a, 200) // must have been evicted by b
	if lat == cfg.L1HitLat {
		t.Errorf("direct-mapped conflict not modelled: latency %d", lat)
	}
	// 64-byte line: two words 32 bytes apart share a line.
	complete(t, c, 0x8000, 300)
	if lat := complete(t, c, 0x8000+32, 400); lat != cfg.L1HitLat {
		t.Errorf("64B line sharing: latency %d, want %d", lat, cfg.L1HitLat)
	}
}

func TestFourWaySurvivesThreeConflicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Size = 64 << 10
	cfg.L2Assoc = 4
	c := New(cfg)
	// Four L2 addresses in the same set (stride = size/assoc): all must
	// coexist in a 4-way set.
	stride := uint32(cfg.L2Size / cfg.L2Assoc)
	now := uint64(0)
	for i := uint32(0); i < 4; i++ {
		lat := complete(t, c, i*stride, now)
		now += uint64(lat) + 10
	}
	for i := uint32(0); i < 4; i++ {
		lat := complete(t, c, i*stride, now)
		now += uint64(lat) + 10
		want := cfg.L1MissLat + cfg.L2HitExtra // L1 also conflicts (2-way)
		if i >= 2 && lat > want {
			t.Errorf("way %d evicted from 4-way L2: latency %d", i, lat)
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count accepted")
		}
	}()
	New(Config{L1Size: 3000, L1Assoc: 2, L2Size: 1 << 20, L2Assoc: 2, Line: 32, MSHRs: 8,
		L1HitLat: 1, L1MissLat: 2, L2HitExtra: 3, MemLat: 10, BusBeats: 2})
}
