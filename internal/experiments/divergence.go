package experiments

import (
	"fmt"
	"strings"
	"time"

	"chainaudit/internal/core"
	"chainaudit/internal/index"
	"chainaudit/internal/obs"
	"chainaudit/internal/stats"
)

// ExtDivergenceDetection plants ground truth for the cross-observer
// divergence audit (DESIGN.md §14) and verifies its detection power, the
// way ExtCensorshipPower does for the deceleration test: three synthetic
// vantage points watch data set C's transactions — a clean pair ("alpha",
// "beta") whose arrival times differ only by sub-threshold propagation
// jitter, and one observer ("laggard") behind a systematic delay an order
// of magnitude over the flagging threshold. The audit must flag exactly the
// delayed observer; a missed laggard or a false positive on the clean pair
// is an error, not a table row. Partial coverage is part of the plant: each
// of beta and laggard misses a deterministic slice of the population, so
// the audit's shared-transaction accounting is exercised too.
func (s *Suite) ExtDivergenceDetection() (*core.DivergenceReport, error) {
	defer obs.Timed("experiment.ext.divergence")()
	const (
		lag    = 5 * time.Second        // planted systematic delay (threshold is 1s)
		jitter = 400 * time.Millisecond // per-sighting propagation noise, sub-threshold
	)
	rng := stats.NewRNG(s.Seed ^ 0xD17E)
	var ledger index.Ledger
	i := 0
	for _, b := range s.C.Result.Chain.Blocks() {
		for _, tx := range b.Body() {
			ledger.Add("alpha", tx.ID, tx.Time.Add(time.Duration(rng.Int63n(int64(jitter)))))
			if i%7 != 0 { // beta's vantage misses every 7th transaction
				ledger.Add("beta", tx.ID, tx.Time.Add(time.Duration(rng.Int63n(int64(jitter)))))
			}
			if i%11 != 0 { // the laggard misses every 11th
				ledger.Add("laggard", tx.ID, tx.Time.Add(lag+time.Duration(rng.Int63n(int64(jitter)))))
			}
			i++
		}
	}
	rep := core.DivergenceAudit(&ledger, core.DivergenceOptions{})
	flagged := rep.FlaggedSources()
	if len(flagged) != 1 || flagged[0] != "laggard" {
		return nil, fmt.Errorf("divergence: flagged %v, want exactly [laggard]", flagged)
	}
	return rep, nil
}

// divergenceNote renders the same summary line chainobserver and the
// divergence endpoint print, so every front-end reports the audit
// identically.
func divergenceNote(rep *core.DivergenceReport) string {
	flagged := "none"
	if f := rep.FlaggedSources(); len(f) > 0 {
		flagged = strings.Join(f, ",")
	}
	return fmt.Sprintf("divergence: %d sources, %d multi-source transactions, flagged: %s",
		len(rep.Sources), rep.SharedTxs, flagged)
}

// renderDivergence emits the report the way every divergence front-end
// does: summary note, per-source table, pairwise matrix.
func renderDivergence(rep *core.DivergenceReport, sink Sink) error {
	if err := sink.Note("%s", divergenceNote(rep)); err != nil {
		return err
	}
	if err := sink.Emit(core.DivergenceTable(rep)); err != nil {
		return err
	}
	if len(rep.Pairs) > 0 {
		return sink.Emit(core.DivergencePairTable(rep))
	}
	return nil
}
