package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chainaudit/internal/dataset"
	"chainaudit/internal/experiments"
)

// The paper-repro workload reproduces the whole paper at one fixed seed and
// scale: the Table 2 checks need the planted ViaBTC self-interest effect to
// reach p < 0.001, which it does at seed 42 from scale 0.2 on.
const (
	reproSeed  = 42
	reproScale = 0.2
)

// plantedSelfInterest are the (owner, pool) pairs internal/dataset plants
// for Table 2: four selfish pools and ViaBTC's two collusions.
var plantedSelfInterest = map[[2]string]bool{
	{"F2Pool", "F2Pool"}: true, {"ViaBTC", "ViaBTC"}: true,
	{"1THash&58Coin", "1THash&58Coin"}: true, {"SlushPool", "SlushPool"}: true,
	{"1THash&58Coin", "ViaBTC"}: true, {"SlushPool", "ViaBTC"}: true,
}

// manifest is the part of reproduce's -metrics run manifest the benchmark
// reads.
type manifest struct {
	Experiments []struct {
		ID     string  `json:"id"`
		WallMS float64 `json:"wall_ms"`
	} `json:"experiments"`
	Metrics struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
		Timers   map[string]struct {
			Count   float64 `json:"count"`
			TotalMS float64 `json:"total_ms"`
		} `json:"timers"`
	} `json:"metrics"`
}

// table1Row is the ground truth for one Table 1 row, counted on the built
// chain itself.
type table1Row struct {
	Name        string
	Blocks      int
	TxConfirmed int64
	Empty       int
}

func (r *run) paperRepro() error {
	exp := "all"
	ids := experimentIDs
	if r.short {
		ids = []string{"table1", "table2", "table3", "streameq", "divergence"}
		exp = strings.Join(ids, ",")
	}
	truth, err := r.table1Truth()
	if err != nil {
		return err
	}
	var walls, cpus, setups, rss []float64
	var last *manifest
	// Reproductions run back to back, at least one, until the run's time is
	// up; each builds its own data sets, which is its set-up.
	deadline := time.Now().Add(r.seconds)
	for round := 0; round < 1 || time.Now().Before(deadline); round++ {
		if r.short && round == 1 {
			break
		}
		outPath := filepath.Join(r.dir, "repro.out")
		manPath := filepath.Join(r.dir, "manifest.json")
		args := []string{"-seed", strconv.Itoa(reproSeed), "-scale", strconv.FormatFloat(reproScale, 'g', -1, 64),
			"-exp", exp, "-metrics", manPath}
		if r.trace {
			args = append(args, "-cpuprofile", filepath.Join(r.dir, "cpu.pprof"))
		}
		outf, err := os.Create(outPath)
		if err != nil {
			return err
		}
		cmd := exec.Command(filepath.Join(r.bin, "reproduce"), args...)
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = outf, &stderr
		_, end := r.tr.begin("reproduce", int64(round+1), 0)
		t0 := time.Now()
		runErr := cmd.Run()
		wall := time.Since(t0)
		end()
		if cerr := outf.Close(); runErr == nil {
			runErr = cerr
		}
		if runErr != nil {
			for _, id := range ids {
				r.op("experiment", fmt.Errorf("%s: %v: %s", id, runErr, strings.TrimSpace(stderr.String())))
			}
			continue
		}
		out, err := os.ReadFile(outPath)
		if err != nil {
			return err
		}
		sections := splitSections(string(out))
		for _, id := range ids {
			if _, ok := sections[id]; ok {
				r.op("experiment", nil)
			} else {
				r.op("experiment", fmt.Errorf("%s: missing from the report", id))
			}
		}
		r.checkRepro(sections, truth)
		m, err := readManifest(manPath)
		if err != nil {
			return err
		}
		last = m
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
		setups = append(setups, m.Metrics.Timers["experiment.suite_build"].TotalMS/1000)
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, float64(ru.Maxrss)/1024)
		}
	}
	if len(walls) == 0 {
		return errors.New("no reproduction completed")
	}
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", median(rss))
	r.set("cpu_s", "s", median(cpus))
	r.set("unit_s", "s", median(walls))
	r.fig("unit_s", median(walls))
	r.fig("repro_s", median(walls))
	r.fig("rounds", float64(len(walls)))
	if r.trace {
		return r.reproLayers(last, filepath.Join(r.dir, "cpu.pprof"), median(walls))
	}
	return nil
}

// checkRepro checks one report against ground truth and the properties the
// method must have on the planted data sets.
func (r *run) checkRepro(sections map[string]string, truth []table1Row) {
	if sec, ok := sections["table1"]; ok {
		rows := tableRows(sec, "Table 1")
		r.check(len(rows) == len(truth), "table1: %d rows, want %d", len(rows), len(truth))
		for i := 0; i < len(rows) && i < len(truth); i++ {
			row, want := rows[i], truth[i]
			first, _ := strconv.Atoi(row["heights"])
			lastH, _ := strconv.Atoi(row["blocks"])
			issued, _ := strconv.ParseInt(row["tx_issued"], 10, 64)
			conf, _ := strconv.ParseInt(row["tx_confirmed"], 10, 64)
			empty, _ := strconv.Atoi(row["empty_blocks"])
			r.check(row["dataset"] == want.Name && lastH-first+1 == want.Blocks && issued >= conf &&
				conf == want.TxConfirmed && empty == want.Empty,
				"table1 row %v disagrees with the built chain %+v", row, want)
		}
	}
	if sec, ok := sections["table2"]; ok {
		seen := map[[2]string]bool{}
		for _, row := range tableRows(sec, "Table 2") {
			p, err := strconv.ParseFloat(row["p_accel"], 64)
			r.check(err == nil, "table2: bad p_accel %q", row["p_accel"])
			if err == nil && p < 0.001 {
				pair := [2]string{row["owner"], row["pool"]}
				seen[pair] = true
				r.check(plantedSelfInterest[pair], "table2: %s→%s significant but not planted", pair[0], pair[1])
			}
		}
		for _, pair := range [][2]string{{"F2Pool", "F2Pool"}, {"ViaBTC", "ViaBTC"}} {
			r.check(seen[pair], "table2: planted %s→%s not found at p < 0.001", pair[0], pair[1])
		}
	}
	if sec, ok := sections["table3"]; ok {
		for _, row := range tableRows(sec, "Table 3") {
			for _, col := range []string{"p_accel", "p_decel"} {
				p, err := strconv.ParseFloat(row[col], 64)
				r.check(err == nil && p >= 0.001, "table3: %s %s = %q, want ≥ 0.001 (no scam prioritization is planted)",
					row["pool"], col, row[col])
			}
		}
	}
}

// table1Truth builds the suite's data sets in this process, before any
// timing starts, and counts blocks, confirmed transactions and coinbase-only
// blocks by walking each chain's blocks. The number of transactions issued
// is not recorded on the chain; only the simulator counts it, so the check
// holds it to the property that no more transactions confirm than were
// issued.
func (r *run) table1Truth() ([]table1Row, error) {
	suite, err := experiments.NewSuite(reproSeed, reproScale)
	if err != nil {
		return nil, err
	}
	var rows []table1Row
	for _, d := range []*dataset.Dataset{suite.A, suite.B, suite.C} {
		row := table1Row{Name: d.Name}
		for _, b := range d.Result.Chain.Blocks() {
			row.Blocks++
			body := 0
			for _, tx := range b.Txs {
				if len(tx.Inputs) > 0 {
					body++
				}
			}
			row.TxConfirmed += int64(body)
			if body == 0 {
				row.Empty++
			}
		}
		rows = append(rows, row)
	}
	// The suite's data sets sit in the process-wide data-set cache; drop them
	// before any timing starts.
	dataset.ResetCache()
	debug.FreeOSMemory()
	return rows, nil
}

// splitSections splits reproduce's report into its "### id" sections.
func splitSections(out string) map[string]string {
	secs := map[string]string{}
	parts := strings.Split("\n"+out, "\n### ")
	for _, p := range parts[1:] {
		id, body, _ := strings.Cut(p, "\n")
		secs[strings.TrimSpace(id)] = body
	}
	return secs
}

// tableRows parses the aligned text table whose title starts with title:
// a "== title ==" line, a header, a dashed rule, then one row per line
// until a blank line. Cells hold no spaces in the tables read here.
func tableRows(section, title string) []map[string]string {
	lines := strings.Split(section, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "== "+title) || i+2 >= len(lines) {
			continue
		}
		header := strings.Fields(lines[i+1])
		var rows []map[string]string
		for _, row := range lines[i+3:] {
			f := strings.Fields(row)
			if len(f) == 0 {
				break
			}
			m := map[string]string{}
			for j, h := range header {
				if j < len(f) {
					m[h] = f[j]
				}
			}
			rows = append(rows, m)
		}
		return rows
	}
	return nil
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}
