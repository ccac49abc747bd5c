package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// compareMain reads two sets of runs (parent, change) written by the steady
// command and gives each workload's end-to-end metrics a verdict against
// the bounds in BENCHMARK.json.
func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (bounds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
	}
	sp, err := readSpec(*spec)
	if err != nil {
		return err
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %-14s %24s %24s %8s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "delta", "verdict")
	for _, w := range workloads {
		p, c := parent[w], change[w]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		fmt.Fprintf(out, "%-12s failed share: parent %s, change %s\n", w, failShare(p), failShare(c))
		for _, m := range sp.EndToEnd {
			get := func(r Record) (float64, bool) { v, ok := r.Result.Metrics[m.Name]; return v.Value, ok }
			px, cx := collect(p, get), collect(c, get)
			if len(px) == 0 || len(cx) == 0 {
				continue
			}
			pm, cm := median(px), median(cx)
			delta := (cm - pm) / pm
			fmt.Fprintf(out, "%-12s %-14s %24s %24s %+7.1f%%  %s\n", w, m.Name, band(px), band(cx), 100*delta,
				verdict(px, cx, m.Better, m.Bound))
		}
	}
	return nil
}

// verdict judges change against parent: unresolved when either side's own
// spread exceeds the bound, worse when the change's median is worse by more
// than the bound, better when it is better by more than the parent's own
// spread, and within bound otherwise.
func verdict(px, cx []float64, better string, bound float64) string {
	if spread(px) > bound || spread(cx) > bound {
		return "unresolved (spread above bound)"
	}
	pm, cm := median(px), median(cx)
	gain := (pm - cm) / pm // positive = lower
	if better == "higher" {
		gain = -gain
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > spread(px):
		return "better"
	default:
		return "within bound"
	}
}

func band(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g]", median(xs), q1, q3)
}

func failShare(rs []Record) string {
	a, f := 0, 0
	for _, r := range rs {
		a += r.Result.Attempted
		f += r.Result.Failed
	}
	if a == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d (%.4g)", f, a, float64(f)/float64(a))
}

// readRecords reads untraced runs from a steady JSONL file, by workload.
func readRecords(path string) (map[string][]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && r.Result != nil {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}
