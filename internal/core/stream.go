package core

import (
	"errors"
	"fmt"

	"chainaudit/internal/index"
)

// ErrStreamOrder is the sentinel wrapped by ObserveBlock when a block
// arrives at or below the last observed height. Streams are strictly
// height-ordered; a duplicate or out-of-order frame is a feed bug the
// auditor rejects deterministically instead of silently corrupting the
// window.
var ErrStreamOrder = errors.New("core: block out of stream order")

// WindowAuditor is a small adapter that keeps its own sliding window of
// block records and answers the windowed PPE, low-fee, and dark-fee audits
// through the same record functions Auditor uses. It holds shallow copies
// of the observed records, so it is exactly Auditor.Last(n) over a window
// it owns. The service, the observer, and the experiments audit the index
// through Auditor.Last instead; the layered benchmark (perfbench) is the
// only non-test caller, and keeps this API for its per-layer timings.
//
// A WindowAuditor is not safe for concurrent use.
type WindowAuditor struct {
	// max bounds the window in blocks (0 = retain everything).
	max int
	// recs holds the retained records in stream order. A full bounded
	// window slides by copying down in place, so its backing array stops
	// growing once it holds max records.
	recs []index.BlockRecord
}

// NewWindowAuditor returns an empty windowed auditor retaining at most
// maxBlocks observed blocks (0 = unbounded).
func NewWindowAuditor(maxBlocks int) *WindowAuditor {
	return &WindowAuditor{max: max(maxBlocks, 0)}
}

// ObserveBlock adds one indexed block to the window, evicting the oldest
// block when the window is full. Records must arrive in strictly increasing
// height order — the order index.BlockIndex yields them; a duplicate or
// out-of-order height returns an error wrapping ErrStreamOrder and leaves
// the window unchanged.
func (w *WindowAuditor) ObserveBlock(rec *index.BlockRecord) error {
	if n := len(w.recs); n > 0 {
		if last := w.recs[n-1].Block.Height; rec.Block.Height <= last {
			return fmt.Errorf("%w: height %d after %d", ErrStreamOrder, rec.Block.Height, last)
		}
	}
	if w.max > 0 && len(w.recs) == w.max {
		n := copy(w.recs, w.recs[1:])
		w.recs[n] = *rec
		return nil
	}
	w.recs = append(w.recs, *rec)
	return nil
}

// Len returns the number of blocks currently retained.
func (w *WindowAuditor) Len() int { return len(w.recs) }

// AuditPPE is Auditor.AuditPPE over the last window blocks (0 = every
// retained block).
func (w *WindowAuditor) AuditPPE(window int, opts AuditOptions) PPEReport {
	return ppeReport(tail(w.recs, window), opts.minBlocks())
}

// AuditLowFee is Auditor.AuditLowFee over the last window blocks (0 = every
// retained block).
func (w *WindowAuditor) AuditLowFee(window int) []LowFeeConfirmation {
	return lowFee(tail(w.recs, window))
}

// AuditDarkFee is Auditor.AuditDarkFee over the last window blocks (0 =
// every retained block).
func (w *WindowAuditor) AuditDarkFee(pool string, window int, opts AuditOptions) []Candidate {
	return detectAccelerated(tail(w.recs, window), pool, opts.sppe())
}
