// Command reproduce regenerates the paper's tables and figures from
// simulated data sets.
//
// Usage:
//
//	reproduce [-seed N] [-scale X] [-csv] [-exp list] [-parallel]
//	          [-cpuprofile f] [-memprofile f] [-metrics f]
//	reproduce -validate-metrics f
//
// -exp selects experiments by id (comma separated): fig1..fig14, table1..
// table5, norm3, ablations, or "all" (default); -only NAME runs exactly one
// experiment resolved through the experiments registry (the same registry
// chainauditd serves). -scale grows the simulated
// spans (1 = bench scale: A 12 h, B 16 h, C 48 h). With -parallel (the
// default) the selected experiments fan out over the pipeline executor and
// their outputs are emitted in deterministic order; -parallel=false forces
// the serial reference path. -cpuprofile/-memprofile write pprof profiles
// covering the whole run, for measuring pipeline speedups.
//
// -chaos runs the whole reproduction under a deterministic fault-injection
// plan (internal/faults spec, e.g. "seed=7,pool.outage=0.1,obs.miss=0.2"):
// the simulations degrade, the audits exclude what they can no longer trust
// and annotate their coverage, and the manifest tallies every fault and
// degradation. A zero-rate plan is byte-identical to no plan. -watchdog
// bounds each experiment (it defaults to 10m when chaos is active); there is
// no retry, because an experiment is a pure function of its inputs and a
// failed one would fail again; -require-faults fails the run unless at least one fault actually
// fired (the smoke gate for chaos runs). -checkpoint saves each completed
// experiment's rendered output so a killed run resumes verbatim — the final
// report of a killed-and-resumed run is byte-identical to an uninterrupted
// one.
//
// -metrics writes a run manifest (internal/obs schema chainaudit.metrics/v1)
// carrying provenance (seed, config hash, git revision), per-experiment wall
// times, data-set cache hits, and pipeline worker occupancy, and prints a
// human-readable digest on stderr; the experiment output on stdout is
// unaffected, so parallel runs stay byte-identical to serial ones.
// -validate-metrics checks an existing manifest against the schema and
// exits; the Makefile's check gate uses it to keep the observability surface
// from rotting.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"chainaudit/internal/experiments"
	"chainaudit/internal/faults"
	"chainaudit/internal/obs"
	"chainaudit/internal/pipeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed")
	scale := fs.Float64("scale", 1, "data set duration scale")
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (fig1..fig14, table1..table5, norm3, extensions, ablations, all)")
	onlyFlag := fs.String("only", "", "run exactly one experiment by registry name (overrides -exp)")
	par := fs.Bool("parallel", true, "run selected experiments on the parallel pipeline executor")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	metricsPath := fs.String("metrics", "", "write a run manifest (JSON) to this file and a summary to stderr")
	validatePath := fs.String("validate-metrics", "", "validate an existing run manifest and exit")
	chaosSpec := fs.String("chaos", "", "deterministic fault-injection spec: seed=N,knob=rate,... (see internal/faults)")
	checkpointPath := fs.String("checkpoint", "", "save each completed experiment here and resume verbatim on restart")
	watchdog := fs.Duration("watchdog", 0, "per-experiment watchdog timeout (0 = none; defaults to 10m under -chaos)")
	requireFaults := fs.Bool("require-faults", false, "fail unless the run injected at least one fault")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validatePath != "" {
		m, err := obs.ValidateManifestFile(*validatePath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "manifest ok: %s, %d experiments, config %s\n",
			*validatePath, len(m.Experiments), m.ConfigHash)
		return nil
	}

	// Selection resolves through the experiment registry — the same one
	// chainauditd serves — so the CLI can never offer an experiment the
	// service does not (or vice versa). Validation happens before any data
	// set is built.
	if *onlyFlag != "" {
		id := strings.TrimSpace(strings.ToLower(*onlyFlag))
		if _, ok := experiments.ByName(id); !ok {
			return fmt.Errorf("unknown experiment id %q (known: %s)",
				id, strings.Join(experiments.Names(), ", "))
		}
		*expFlag = id
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id != "all" {
			if _, ok := experiments.ByName(id); !ok {
				return fmt.Errorf("unknown experiment id %q", id)
			}
		}
		want[id] = true
	}
	selected := func(id string) bool { return want["all"] || want[id] }

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reproduce: memprofile:", err)
			}
		}()
	}

	var plan *faults.Plan
	if *chaosSpec != "" {
		var err error
		if plan, err = faults.ParseSpec(*chaosSpec); err != nil {
			return err
		}
	}
	if *watchdog == 0 && plan.Active() {
		*watchdog = 10 * time.Minute
	}

	faultsBefore := sumFaultCounters()
	start := time.Now()
	fmt.Fprintf(out, "building data sets (seed=%d scale=%g)...\n", *seed, *scale)
	suite, err := experiments.NewSuiteChaos(*seed, *scale, plan)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "data sets ready in %v\n\n", time.Since(start).Round(time.Second))

	// Every experiment comes from the registry, in canonical order; each runs
	// against a text sink over its own buffer, reproducing the historical
	// inline dispatch byte-for-byte.
	var picked []*experiments.Descriptor
	for _, d := range experiments.All() {
		if selected(d.ID) {
			picked = append(picked, d)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("no experiment matched %q", *expFlag)
	}
	// Per-experiment wall times for the manifest, stored atomically: an
	// attempt abandoned by the watchdog may report late, concurrently with
	// its retry. Timing observes the runs without altering them, so stdout
	// stays byte-identical across modes.
	expWall := make([]atomic.Int64, len(picked))
	timed := func(i int, w io.Writer) error {
		t0 := time.Now()
		err := picked[i].Run(suite, experiments.NewTextSink(w, *asCSV))
		expWall[i].Store(int64(time.Since(t0)))
		return err
	}

	// Serial and parallel share one path: every experiment renders into its
	// own buffer under the cancellation/watchdog/retry layer, and buffers are
	// emitted in selection order — byte-identical either way. -parallel only
	// picks the worker count.
	exec := pipeline.Default()
	if !*par {
		exec = pipeline.New(1)
	}
	var cp *checkpoint
	if *checkpointPath != "" {
		// The checkpoint hash covers exactly the flags that determine output
		// bytes — parallelism deliberately excluded.
		cp = loadCheckpoint(*checkpointPath, obs.ConfigHash(
			fmt.Sprintf("seed=%d", *seed),
			fmt.Sprintf("scale=%g", *scale),
			fmt.Sprintf("exp=%s", *expFlag),
			fmt.Sprintf("csv=%t", *asCSV),
			fmt.Sprintf("chaos=%s", plan.Fingerprint()),
		))
	}
	bufs := make([]bytes.Buffer, len(picked))
	resumed := make([]bool, len(picked))
	if cp != nil {
		for i, s := range picked {
			if body, ok := cp.Completed[s.ID]; ok {
				bufs[i].WriteString(body)
				resumed[i] = true
			}
		}
	}
	rc := pipeline.RunConfig{Timeout: *watchdog}
	results, batchErr := pipeline.MapCtx(exec, context.Background(), len(picked), rc,
		func(ctx context.Context, i int) (struct{}, error) {
			if resumed[i] {
				return struct{}{}, nil
			}
			// Render into a task-local buffer: a watchdog-abandoned task
			// keeps writing after the executor has moved on.
			var local bytes.Buffer
			if err := timed(i, &local); err != nil {
				return struct{}{}, err
			}
			bufs[i] = local
			if cp != nil {
				return struct{}{}, cp.record(*checkpointPath, picked[i].ID, bufs[i].String())
			}
			return struct{}{}, nil
		})
	if batchErr != nil {
		return batchErr
	}
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", picked[i].ID, r.Err)
		}
		fmt.Fprintf(out, "### %s\n", picked[i].ID)
		if _, err := bufs[i].WriteTo(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "done: %d experiments in %v\n", len(picked), time.Since(start).Round(time.Second))

	if *metricsPath != "" {
		workers := exec.Workers()
		m := obs.NewManifest("", *seed, *scale, obs.ConfigHash(
			fmt.Sprintf("seed=%d", *seed),
			fmt.Sprintf("scale=%g", *scale),
			fmt.Sprintf("exp=%s", *expFlag),
			fmt.Sprintf("parallel=%t", *par),
			fmt.Sprintf("workers=%d", workers),
			fmt.Sprintf("chaos=%s", plan.Fingerprint()),
		))
		m.Parallel = *par
		m.Workers = workers
		m.Chaos = plan.Fingerprint()
		m.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		for i, s := range picked {
			m.Experiments = append(m.Experiments, obs.ExperimentTiming{
				ID:     s.ID,
				WallMS: float64(expWall[i].Load()) / float64(time.Millisecond),
			})
		}
		m.FillFromSnapshot(obs.Default.Snapshot())
		if err := m.WriteFile(*metricsPath); err != nil {
			return err
		}
		m.Summary(os.Stderr)
	}
	if *requireFaults {
		if injected := sumFaultCounters() - faultsBefore; injected == 0 {
			return fmt.Errorf("require-faults: no fault fired (chaos plan %q)", *chaosSpec)
		}
	}
	return nil
}

// sumFaultCounters totals every injected-fault counter; run() takes a delta
// so -require-faults judges this run, not the process history.
func sumFaultCounters() int64 {
	var total int64
	for name, v := range obs.Default.Snapshot().Counters {
		if strings.HasPrefix(name, "faults.") {
			total += v
		}
	}
	return total
}
