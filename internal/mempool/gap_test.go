package mempool

import (
	"testing"
	"time"
)

func series(start time.Time, offsets ...time.Duration) []Snapshot {
	out := make([]Snapshot, len(offsets))
	for i, off := range offsets {
		out[i] = Snapshot{Time: start.Add(off), Count: i + 1}
	}
	return out
}

func TestFindGapsNoGaps(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	snaps := series(start, 0, 15*time.Second, 30*time.Second, 45*time.Second)
	if gaps := FindGaps(snaps, SnapshotInterval); len(gaps) != 0 {
		t.Fatalf("clean cadence reported gaps: %+v", gaps)
	}
	// Jitter below 1.5x the interval is not a gap.
	jittery := series(start, 0, 16*time.Second, 36*time.Second)
	if gaps := FindGaps(jittery, SnapshotInterval); len(gaps) != 0 {
		t.Fatalf("jitter misreported as gaps: %+v", gaps)
	}
}

// TestFindGapsBlackout pins the satellite requirement: a hole spanning at
// least one SnapshotInterval shows up as explicitly absent snapshots — a Gap
// with the right bounds and missed-slot count — not as empty snapshots.
func TestFindGapsBlackout(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	// Cadence ...45s, then a 10-minute blackout, then cadence resumes.
	snaps := series(start,
		0, 15*time.Second, 30*time.Second, 45*time.Second,
		45*time.Second+10*time.Minute,
		60*time.Second+10*time.Minute,
	)
	gaps := FindGaps(snaps, SnapshotInterval)
	if len(gaps) != 1 {
		t.Fatalf("want 1 gap, got %+v", gaps)
	}
	g := gaps[0]
	if !g.Start.Equal(start.Add(45 * time.Second)) {
		t.Errorf("gap start %v, want last snapshot before the hole", g.Start)
	}
	if !g.End.Equal(start.Add(45*time.Second + 10*time.Minute)) {
		t.Errorf("gap end %v, want first snapshot after the hole", g.End)
	}
	if want := int(10*time.Minute/SnapshotInterval) - 1; g.Missed != want {
		t.Errorf("missed slots %d, want %d", g.Missed, want)
	}
	if d := g.End.Sub(g.Start); d != 10*time.Minute {
		t.Errorf("gap duration %v, want 10m", d)
	}
	// No snapshot exists inside the hole: absence, not zero-fill.
	for _, s := range snaps {
		if s.Time.After(g.Start) && s.Time.Before(g.End) {
			t.Fatalf("snapshot at %v inside the blackout window", s.Time)
		}
		if s.Count == 0 {
			t.Fatalf("zero-filled snapshot at %v", s.Time)
		}
	}
}

func TestSplitAtGaps(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	snaps := series(start,
		0, 15*time.Second,
		5*time.Minute, 5*time.Minute+15*time.Second, 5*time.Minute+30*time.Second,
		20*time.Minute,
	)
	segs := SplitAtGaps(snaps, SnapshotInterval)
	if len(segs) != 3 {
		t.Fatalf("want 3 segments, got %d", len(segs))
	}
	if len(segs[0]) != 2 || len(segs[1]) != 3 || len(segs[2]) != 1 {
		t.Fatalf("segment sizes %d/%d/%d, want 2/3/1", len(segs[0]), len(segs[1]), len(segs[2]))
	}
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	if total != len(snaps) {
		t.Fatalf("segments cover %d snapshots, want %d", total, len(snaps))
	}
}

func TestSplitAtGapsSingleSegmentSharesBacking(t *testing.T) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	snaps := series(start, 0, 15*time.Second, 30*time.Second)
	segs := SplitAtGaps(snaps, SnapshotInterval)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	if &segs[0][0] != &snaps[0] || len(segs[0]) != len(snaps) {
		t.Fatal("gap-free series should come back as the input slice")
	}
	if SplitAtGaps(nil, SnapshotInterval) != nil {
		t.Fatal("empty input should yield nil")
	}
}
