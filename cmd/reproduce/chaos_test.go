package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chainaudit/internal/dataset"
	"chainaudit/internal/obs"
)

// TestRequireFaultsFailsCleanRun pins the -require-faults gate: a run that
// injected nothing must fail it, judged on this run's counter delta rather
// than process history.
func TestRequireFaultsFailsCleanRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds data sets")
	}
	var out bytes.Buffer
	err := run([]string{"-scale", "0.1", "-seed", "5", "-exp", "table1", "-require-faults"}, &out)
	if err == nil || !strings.Contains(err.Error(), "no fault fired") {
		t.Fatalf("err = %v, want require-faults failure", err)
	}
}

// TestChaosZeroRateMatchesBaseline pins the tentpole invariant end-to-end:
// a seeded all-zero-rate plan must produce byte-identical stdout to no plan
// at all, on the gap-aware figure path included.
func TestChaosZeroRateMatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds data sets")
	}
	sel := "table1,fig9"
	var base, zero bytes.Buffer
	if err := run([]string{"-scale", "0.1", "-seed", "5", "-exp", sel}, &base); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "0.1", "-seed", "5", "-exp", sel, "-chaos", "seed=77"}, &zero); err != nil {
		t.Fatal(err)
	}
	if stripTimings(base.String()) != stripTimings(zero.String()) {
		t.Errorf("zero-rate chaos diverges from baseline:\n--- base ---\n%s\n--- chaos ---\n%s",
			base.String(), zero.String())
	}
}

// TestChaosRunCompletesWithFaultsInManifest runs a fault-injected suite end
// to end: it must finish, satisfy -require-faults, and write a manifest
// recording the plan and nonzero fault/degradation tallies.
func TestChaosRunCompletesWithFaultsInManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds data sets")
	}
	path := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	// Fresh data sets: a cached build left by an earlier run of this test
	// (-count) injects nothing, leaving the fault delta at zero. The seed is
	// one no other test uses, so no fault-free build is cached under it
	// either.
	dataset.ResetCache()
	err := run([]string{"-scale", "0.1", "-seed", "91", "-exp", "table1,fig4,fig9",
		"-chaos", "seed=3,pool.outage=0.2,obs.miss=0.25,snap.blackout=0.3,snap.window=15m",
		"-metrics", path, "-require-faults"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	m, err := obs.ValidateManifestFile(path)
	if err != nil {
		t.Fatalf("manifest does not validate: %v", err)
	}
	if !strings.Contains(m.Chaos, "pool.outage=0.2") {
		t.Errorf("manifest chaos = %q", m.Chaos)
	}
	if m.FaultsInjected == 0 {
		t.Error("manifest records no injected faults")
	}
	if m.Degradations == 0 {
		t.Error("manifest records no degradations")
	}
	// The degraded figures carry their coverage on stdout.
	if !strings.Contains(out.String(), "coverage") {
		t.Error("degraded run prints no coverage annotation")
	}
}

// TestCheckpointResumesVerbatim proves resumed experiments are re-emitted
// from the checkpoint, not recomputed: poison one saved body and the poison
// must surface in the resumed run's output, with everything else unchanged.
func TestCheckpointResumesVerbatim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds data sets")
	}
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	args := []string{"-scale", "0.1", "-seed", "5", "-exp", "table1,fig2", "-checkpoint", cpPath}
	var first bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	// A checkpointed run must not perturb the output itself.
	var plain bytes.Buffer
	if err := run(args[:len(args)-2], &plain); err != nil {
		t.Fatal(err)
	}
	if stripTimings(first.String()) != stripTimings(plain.String()) {
		t.Error("checkpointing changed the output")
	}

	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Completed) != 2 {
		t.Fatalf("checkpoint holds %d experiments, want 2", len(cp.Completed))
	}
	cp.Completed["table1"] = "POISONED TABLE1 BODY\n"
	poisoned, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := run(args, &resumed); err != nil {
		t.Fatal(err)
	}
	s := resumed.String()
	if !strings.Contains(s, "POISONED TABLE1 BODY") {
		t.Fatal("resume recomputed table1 instead of replaying the checkpoint")
	}
	if !strings.Contains(s, "Figure 2: blocks and transactions") {
		t.Error("resume lost fig2's body")
	}

	// A config change invalidates the checkpoint: the poison must vanish.
	var fresh bytes.Buffer
	if err := run([]string{"-scale", "0.1", "-seed", "6", "-exp", "table1,fig2", "-checkpoint", cpPath}, &fresh); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fresh.String(), "POISONED") {
		t.Error("stale checkpoint replayed under a different config")
	}
}
