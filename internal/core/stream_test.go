package core_test

// Equivalence tests for the streaming path: a WindowAuditor fed block
// records one at a time must answer windowed audits with the exact values —
// and, through the shared renderers, the exact bytes — the batch auditor
// produces over the corresponding chain suffix. This is the determinism
// invariant behind POST /v1/ingest.

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"chainaudit/internal/core"
	"chainaudit/internal/index"
)

func render(t *testing.T, f func(io.Writer) error) string {
	t.Helper()
	var b bytes.Buffer
	if err := f(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWindowAuditorMatchesBatchSuffix(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry

	inc := index.NewIncremental(reg)
	win := core.NewWindowAuditor(0)
	for _, b := range c.Blocks() {
		rec, err := inc.AppendBlock(b)
		if err != nil {
			t.Fatalf("AppendBlock(%d): %v", b.Height, err)
		}
		if err := win.ObserveBlock(rec); err != nil {
			t.Fatalf("ObserveBlock(%d): %v", b.Height, err)
		}
	}
	if win.Len() != c.Len() {
		t.Fatalf("window retained %d blocks, chain has %d", win.Len(), c.Len())
	}

	pools := index.Build(c, reg).TopPoolsByShare(core.DefaultMinShare)
	if len(pools) == 0 {
		t.Fatal("no pools above the default share threshold")
	}

	for _, n := range []int{1, 7, 32, 0} {
		batch := &core.Auditor{Chain: c.Suffix(n), Registry: reg}
		opts := core.AuditOptions{}

		wantPPE := batch.AuditPPE(opts)
		gotPPE := win.AuditPPE(n, opts)
		wantText := render(t, func(w io.Writer) error { return core.WritePPESection(w, wantPPE) })
		gotText := render(t, func(w io.Writer) error { return core.WritePPESection(w, gotPPE) })
		if gotText != wantText {
			t.Errorf("window %d: PPE section diverged from batch suffix:\n--- batch ---\n%s--- window ---\n%s", n, wantText, gotText)
		}

		wantLow := batch.AuditLowFee(opts)
		gotLow := win.AuditLowFee(n)
		if len(wantLow) != len(gotLow) {
			t.Fatalf("window %d: low-fee counts diverged (%d vs %d)", n, len(wantLow), len(gotLow))
		}
		for i := range wantLow {
			if wantLow[i] != gotLow[i] {
				t.Fatalf("window %d: low-fee row %d diverged: %+v vs %+v", n, i, wantLow[i], gotLow[i])
			}
		}
		wantText = render(t, func(w io.Writer) error { return core.WriteLowFeeSection(w, wantLow) })
		gotText = render(t, func(w io.Writer) error { return core.WriteLowFeeSection(w, gotLow) })
		if gotText != wantText {
			t.Errorf("window %d: low-fee section bytes diverged", n)
		}

		for _, pool := range pools {
			// Exercise both the default threshold and an explicit lower one.
			for _, o := range []core.AuditOptions{{}, {SPPE: 50}} {
				want := batch.AuditDarkFee(pool, o)
				got := win.AuditDarkFee(pool, n, o)
				if len(want) != len(got) {
					t.Fatalf("window %d pool %s: candidate counts diverged (%d vs %d)", n, pool, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("window %d pool %s: candidate %d diverged: %+v vs %+v", n, pool, i, want[i], got[i])
					}
				}
				wantText = render(t, func(w io.Writer) error {
					return core.WriteDarkFeeSection(w, pool, o.SPPE, want)
				})
				gotText = render(t, func(w io.Writer) error {
					return core.WriteDarkFeeSection(w, pool, o.SPPE, got)
				})
				if gotText != wantText {
					t.Errorf("window %d pool %s: dark-fee section bytes diverged", n, pool)
				}
			}
		}
	}
}

// TestWindowAuditorEviction pins the sliding behavior: a bounded window that
// has seen the whole chain answers exactly like the batch audit of the last
// max blocks.
func TestWindowAuditorEviction(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	const max = 16
	if c.Len() <= max {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}

	ix := index.Build(c, reg)
	win := core.NewWindowAuditor(max)
	for i := 0; i < ix.Len(); i++ {
		if err := win.ObserveBlock(ix.Record(i)); err != nil {
			t.Fatalf("ObserveBlock(%d): %v", i, err)
		}
	}
	if win.Len() != max {
		t.Fatalf("window retained %d blocks, want %d", win.Len(), max)
	}
	// The retained blocks are the chain's last max: the window answers
	// byte for byte like the batch audit of that suffix.
	batch := &core.Auditor{Chain: c.Suffix(max), Registry: reg}
	want := render(t, func(w io.Writer) error { return core.WritePPESection(w, batch.AuditPPE(core.AuditOptions{})) })
	got := render(t, func(w io.Writer) error { return core.WritePPESection(w, win.AuditPPE(0, core.AuditOptions{})) })
	if got != want {
		t.Errorf("evicted window PPE diverged from batch suffix:\n--- batch ---\n%s--- window ---\n%s", want, got)
	}
	// An oversized query clamps to the retained window.
	got = render(t, func(w io.Writer) error { return core.WritePPESection(w, win.AuditPPE(999, core.AuditOptions{})) })
	if got != want {
		t.Errorf("oversized window query did not clamp to retained blocks")
	}
}

// TestWindowAuditorRejectsOutOfOrder pins the ordering guard: a duplicate
// or out-of-order height is refused deterministically (same error, window
// untouched) instead of silently corrupting the retained deltas.
func TestWindowAuditorRejectsOutOfOrder(t *testing.T) {
	ds := buildA(t)
	c, reg := ds.Result.Chain, ds.Registry
	if c.Len() < 3 {
		t.Skipf("fixture too small: %d blocks", c.Len())
	}
	ix := index.Build(c, reg)
	win := core.NewWindowAuditor(0)
	for i := 0; i < ix.Len(); i++ {
		if err := win.ObserveBlock(ix.Record(i)); err != nil {
			t.Fatalf("ObserveBlock(%d): %v", i, err)
		}
	}
	before := render(t, func(w io.Writer) error { return core.WritePPESection(w, win.AuditPPE(0, core.AuditOptions{})) })

	// A duplicate of the tip and a replay of an older record both fail with
	// the sentinel.
	for _, i := range []int{ix.Len() - 1, 0, ix.Len() / 2} {
		err := win.ObserveBlock(ix.Record(i))
		if !errors.Is(err, core.ErrStreamOrder) {
			t.Fatalf("ObserveBlock(record %d again) = %v, want ErrStreamOrder", i, err)
		}
	}
	if win.Len() != ix.Len() {
		t.Fatalf("rejected frames changed the window: retained %d, want %d", win.Len(), ix.Len())
	}
	after := render(t, func(w io.Writer) error { return core.WritePPESection(w, win.AuditPPE(0, core.AuditOptions{})) })
	if after != before {
		t.Errorf("rejected frames changed audit output:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}
