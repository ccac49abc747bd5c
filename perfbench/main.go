// Command perfbench is chainaudit's end-to-end benchmark. It drives the
// reproduce and chainauditd binaries (built before any timing starts) on
// three workloads, checks their outputs, and prints one JSON result line:
//
//	perfbench --workload paper-repro|live-ingest|audit-mix --seed N \
//	          --seconds S --trace 0|1 [--short]
//	perfbench steady  [-out results.jsonl]
//	perfbench compare parent.jsonl change.jsonl
//
// It is normally started through run.sh, which builds the binaries into
// .bench_build. With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics from a traced run (spans
// recorded around every call this program makes into a layer). See
// README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"chainaudit/internal/dataset"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Detail is printed on the line before the result: the run's environment,
// its workload-specific figures and the first failure, for the steadiness
// and compare commands and for a reader of the log.
type Detail struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       Env                `json:"env"`
	Figures   map[string]float64 `json:"figures"`
	FirstErr  string             `json:"first_error,omitempty"`
	Attempted map[string]int     `json:"attempted"`
	Failed    map[string]int     `json:"failed"`
}

// run carries one workload run's configuration and accumulates its outcome.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	short    bool
	bin      string // directory holding reproduce and chainauditd
	dir      string // scratch directory of this run, removed at the end

	tr         *tracer
	feedDS     *dataset.Dataset // the live feed chain, once built
	feedBuilds []float64        // seconds per feed-chain build
	metrics    map[string]Metric
	figures    map[string]float64
	ops        map[string]int
	fails      map[string]int
	wrong      []string // failed correctness checks
	first      string   // first failed operation's error
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = Metric{Value: v, Unit: unit} }
func (r *run) fig(name string, v float64)       { r.figures[name] = v }

// op records one attempted operation of a kind and, if err is non-nil, its
// failure.
func (r *run) op(kind string, err error) {
	r.ops[kind]++
	if err != nil {
		r.fails[kind]++
		if r.first == "" {
			r.first = fmt.Sprintf("%s: %v", kind, err)
		}
	}
}

// check records a correctness check; a failed one makes the run incorrect.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			exitOn(steadyMain(os.Args[2:], os.Stdout))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:], os.Stdout))
			return
		}
	}
	exitOn(runMain(os.Args[1:], os.Stdout))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-repro | live-ingest | audit-mix")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	short := fs.Bool("short", false, "tiny inputs, every check kept (exercises the benchmark quickly)")
	bin := fs.String("bin", ".bench_build", "directory holding the built reproduce and chainauditd")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition; its metrics must match the ones reported")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := readSpec(*spec)
	if err != nil {
		return err
	}
	if err := checkSpec(sp); err != nil {
		return err
	}
	if *short && *workload == "" {
		return shortMain(*bin, *seed, out)
	}
	res, det, err := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *short, *bin)
	if err != nil {
		return err
	}
	return emit(out, res, det)
}

// shortMain runs every workload once at its short size.
func shortMain(bin string, seed uint64, out io.Writer) error {
	for _, w := range workloads {
		res, det, err := runWorkload(w, seed, 2*time.Second, false, true, bin)
		if err != nil {
			return err
		}
		if err := emit(out, res, det); err != nil {
			return err
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("short %s: correct=%t failed=%d (%s)", w, res.Correct, res.Failed, det.FirstErr)
		}
	}
	return nil
}

var workloads = []string{"paper-repro", "live-ingest", "audit-mix"}

func runWorkload(workload string, seed uint64, seconds time.Duration, trace, short bool, bin string) (*Result, *Detail, error) {
	abs, err := filepath.Abs(bin)
	if err != nil {
		return nil, nil, err
	}
	for _, exe := range []string{"reproduce", "chainauditd"} {
		if _, err := os.Stat(filepath.Join(abs, exe)); err != nil {
			return nil, nil, fmt.Errorf("missing %s binary (build with run.sh): %w", exe, err)
		}
	}
	dir, err := os.MkdirTemp(abs, "run-"+workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace, short: short,
		bin: abs, dir: dir,
		tr:      newTracer(trace),
		metrics: map[string]Metric{}, figures: map[string]float64{},
		ops: map[string]int{}, fails: map[string]int{},
	}
	env := captureEnv(dir)
	switch workload {
	case "paper-repro":
		err = r.paperRepro()
	case "live-ingest":
		err = r.live(false)
	case "audit-mix":
		err = r.live(true)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want paper-repro, live-ingest or audit-mix)", workload)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	if trace {
		if err := r.layers(); err != nil {
			return nil, nil, fmt.Errorf("%s: per-layer probe: %w", workload, err)
		}
		r.tr.report(r)
	}
	env.finish()
	res := &Result{Correct: len(r.wrong) == 0, Metrics: map[string]Metric{}}
	for k, n := range r.ops {
		res.Attempted += n
		res.Failed += r.fails[k]
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", workload, m.Name)
		}
		res.Metrics[m.Name] = v
	}
	det := &Detail{
		Workload: workload, Seed: seed, Trace: trace, Env: env,
		Figures: r.figures, FirstErr: r.first, Attempted: r.ops, Failed: r.fails,
	}
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", w)
	}
	if det.FirstErr == "" && len(r.wrong) > 0 {
		det.FirstErr = "check: " + r.wrong[0]
	}
	return res, det, nil
}

// emit prints the detail line, then the result as the last line.
func emit(out io.Writer, res *Result, det *Detail) error {
	d, err := json.Marshal(det)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "detail %s\n%s\n", d, b)
	return err
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
