package core

import (
	"fmt"
	"reflect"
	"testing"

	"fastsim/internal/memo"
)

// loadHeavySrc issues sixteen independent loads, each to its own line, per
// iteration over a 64 KiB working set, then branches on a pseudo-random
// bit that the 2-bit predictor keeps mispredicting. The bit is mixed with
// the last loaded value (always zero), so the branch resolves only after
// younger loads have issued. With an L2 smaller
// than the working set nearly every load goes to memory, so the active
// list fills with loads in flight and squashes cancel some of them.
const loadHeavySrc = `
.data
buf:	.space 65536
.text
main:
	la   s0, buf
	li   t0, 800
	li   s2, 7
	li   s3, 0xffff
loop:
	slli t1, t0, 9
	and  t1, t1, s3
	add  t1, s0, t1
	lw   t2, 0(t1)
	lw   t2, 32(t1)
	lw   t2, 64(t1)
	lw   t2, 96(t1)
	lw   t2, 128(t1)
	lw   t2, 160(t1)
	lw   t2, 192(t1)
	lw   t2, 224(t1)
	lw   t2, 256(t1)
	lw   t2, 288(t1)
	lw   t2, 320(t1)
	lw   t2, 352(t1)
	lw   t2, 384(t1)
	lw   t2, 416(t1)
	lw   t2, 448(t1)
	lw   t2, 480(t1)
	slli s4, s2, 2
	add  s2, s2, s4
	addi s2, s2, 1
	xor  t6, s2, t2
	andi t6, t6, 8
	beqz t6, skip
	lw   t3, 16(t1)
	sw   t0, 4(t1)
skip:
	addi t0, t0, -1
	bnez t0, loop
	halt
`

// TestLiveLoadRingBitIdentical runs a load-heavy program, behind a 32 KiB
// L2 so loads stay in flight for a memory access, at the active-list sizes
// that stress the driver's ring of in-flight loads: the smallest (a
// one-slot ring), a non-power-of-two (rounded up to 32 slots, so the lQ
// index wraps with stale entries behind it) and the largest. At each size
// FastSim must equal SlowSim, and a run warmed through an in-memory shared
// graph must equal the cold run that published it.
func TestLiveLoadRingBitIdentical(t *testing.T) {
	p := build(t, loadHeavySrc)
	for _, al := range []int{1, 24, 255} {
		t.Run(fmt.Sprintf("active%d", al), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Uarch.ActiveList = al
			cfg.Cache.L2Size = 32 << 10
			slowCfg := cfg
			slowCfg.Memoize = false
			slow, err := Run(p, slowCfg)
			if err != nil {
				t.Fatalf("slowsim: %v", err)
			}
			checkOracle(t, p, slow, "slowsim")

			cfg.Shared = memo.NewShared(1)
			cold, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("cold: %v", err)
			}
			warm, err := Run(p, cfg)
			if err != nil {
				t.Fatalf("warm: %v", err)
			}
			if !warm.Shared.Warmed {
				t.Fatalf("warm run did not import the cold run's graph: %+v", warm.Shared)
			}
			if d := warm.Memo.DetailedInsts - cold.Memo.DetailedInsts; d != 0 {
				t.Errorf("warm run simulated %d insts in detail, want 0", d)
			}

			s, c, w := sharedNormalize(slow), sharedNormalize(cold), sharedNormalize(warm)
			s.Memoized, c.Memoized, w.Memoized = false, false, false
			if !reflect.DeepEqual(s, c) {
				t.Errorf("FastSim diverged from SlowSim:\nslow %+v\nfast %+v", s, c)
			}
			if !reflect.DeepEqual(c, w) {
				t.Errorf("warm Result diverged from cold:\ncold %+v\nwarm %+v", c, w)
			}
			if al > 1 && slow.Cache.Cancels == 0 {
				t.Errorf("no load was cancelled; the squash path went untested")
			}
		})
	}
}
