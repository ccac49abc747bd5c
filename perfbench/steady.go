package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Record is one run as the steady command stores it: one JSON line.
type Record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *Result `json:"result"`
	Detail   *Detail `json:"detail"`
}

// benchSpec is the part of BENCHMARK.json the commands read.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// checkSpec fails unless the spec lists exactly the metrics this program
// reports, with the same units and directions, in the same order.
func checkSpec(sp *benchSpec) error {
	var e2e []MetricDef
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, MetricDef{m.Name, m.Unit, m.Better})
	}
	for _, c := range []struct {
		key        string
		spec, code []MetricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", c.key, len(c.spec), len(c.code))
		}
		for i := range c.code {
			if c.spec[i] != c.code[i] {
				return fmt.Errorf("BENCHMARK.json %s[%d] is %+v, the benchmark reports %+v", c.key, i, c.spec[i], c.code[i])
			}
		}
	}
	return nil
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// steadyRuns is how many untraced runs steady makes per workload, with
// seeds 1 to steadyRuns: the ten runs a steadiness check takes quartiles of.
const steadyRuns = 10

// steadyMain runs every workload steadyRuns times for run_seconds, each run
// in a fresh process, rotating the order of the workloads from round to
// round, then makes one traced run per workload with seed 1. It appends every run to a JSONL
// file and prints each metric's spread beside its bound and the tracing
// overhead.
func steadyMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (bounds)")
	outPath := fs.String("out", ".bench_build/steady.jsonl", "append every run's record here")
	bin := fs.String("bin", ".bench_build", "directory holding the built binaries")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := readSpec(*spec)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(*outPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var recs []Record
	one := func(w string, seed uint64, trace bool) error {
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", t, "--bin", *bin)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		raw, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		rec, err := parseRun(raw)
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		rec.Workload, rec.Seed, rec.Trace = w, seed, trace
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "%s\n", line); err != nil {
			return err
		}
		recs = append(recs, *rec)
		fmt.Fprintf(out, "%-12s seed %-4d trace=%t correct=%t attempted=%d failed=%d wall %.1fs\n",
			w, seed, trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, time.Since(t0).Seconds())
		return nil
	}
	for i := 0; i < steadyRuns; i++ {
		for j := range workloads {
			w := workloads[(i+j)%len(workloads)]
			if err := one(w, uint64(i+1), false); err != nil {
				return err
			}
		}
	}
	for _, w := range workloads {
		if err := one(w, 1, true); err != nil {
			return err
		}
	}
	return summarize(out, sp, recs)
}

// parseRun reads a run's detail line and its last-line result.
func parseRun(raw []byte) (*Record, error) {
	var rec Record
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "detail "); ok {
			rec.Detail = &Detail{}
			if err := json.Unmarshal([]byte(d), rec.Detail); err != nil {
				return nil, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	rec.Result = &Result{}
	if err := json.Unmarshal([]byte(last), rec.Result); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &rec, nil
}

// summarize prints, per workload, each end-to-end metric's median, quartiles
// and spread beside its bound, then the workload's other figures.
func summarize(out io.Writer, sp *benchSpec, recs []Record) error {
	by := map[string][]Record{}
	for _, r := range recs {
		key := r.Workload
		if r.Trace {
			key += " (traced)"
		}
		by[key] = append(by[key], r)
	}
	for _, w := range sortedNames(by) {
		rs := by[w]
		failed, attempted := 0, 0
		for _, r := range rs {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
		fmt.Fprintf(out, "\n%s: %d runs, %d/%d operations failed\n", w, len(rs), failed, attempted)
		fmt.Fprintf(out, "  %-28s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		if !rs[0].Trace {
			for _, m := range sp.EndToEnd {
				xs := collect(rs, func(r Record) (float64, bool) { v, ok := r.Result.Metrics[m.Name]; return v.Value, ok })
				printRow(out, m.Name+" ("+m.Unit+")", xs, m.Bound)
			}
		}
		figs := map[string]bool{}
		for _, r := range rs {
			if r.Detail != nil {
				for k := range r.Detail.Figures {
					figs[k] = true
				}
			}
		}
		for _, k := range sortedNames(figs) {
			xs := collect(rs, func(r Record) (float64, bool) {
				if r.Detail == nil {
					return 0, false
				}
				v, ok := r.Detail.Figures[k]
				return v, ok
			})
			printRow(out, k, xs, math.NaN())
		}
	}
	// Tracing overhead: a traced run's unit of work against the untraced
	// median.
	for _, w := range workloads {
		tr, un := by[w+" (traced)"], by[w]
		if len(tr) == 0 || len(un) == 0 {
			continue
		}
		u := median(collect(un, func(r Record) (float64, bool) { v, ok := r.Result.Metrics["unit_s"]; return v.Value, ok }))
		t := median(collect(tr, func(r Record) (float64, bool) { v, ok := r.Detail.Figures["unit_s"]; return v, ok }))
		fmt.Fprintf(out, "tracing overhead %s: unit_s %.4g traced vs %.4g untraced (%+.1f%%)\n", w, t, u, 100*(t/u-1))
	}
	return nil
}

func collect(rs []Record, get func(Record) (float64, bool)) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := get(r); ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func printRow(out io.Writer, name string, xs []float64, bound float64) {
	if len(xs) == 0 {
		return
	}
	q1, q3 := quartiles(xs)
	b := ""
	if !math.IsNaN(bound) {
		b = fmt.Sprintf("%6.3f", bound)
	}
	fmt.Fprintf(out, "  %-28s %12.5g %12.5g %12.5g %8.4f %s\n", name, median(xs), q1, q3, spread(xs), b)
}
