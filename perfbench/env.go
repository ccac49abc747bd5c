package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Env records what a run ran on, so that a run disturbed by the host can be
// told apart from a slow program.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Fsync      string `json:"fsync_policy"`
	WALFS      string `json:"wal_fs"`
	// StealTicks is the host's CPU steal time (USER_HZ ticks, summed over
	// CPUs) accrued while the run was measuring; -1 when /proc/stat is
	// unreadable.
	StealTicks int64 `json:"steal_ticks"`

	stealStart int64
}

func captureEnv(walDir string) Env {
	e := Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   revision(),
		Fsync:      fsyncPolicy,
		WALFS:      fsType(walDir),
		stealStart: steal(),
	}
	return e
}

func (e *Env) finish() {
	end := steal()
	if e.stealStart < 0 || end < 0 {
		e.StealTicks = -1
		return
	}
	e.StealTicks = end - e.stealStart
}

// revision is the checkout's git revision, or "none" outside a git work tree.
func revision() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// steal reads the aggregate steal column of /proc/stat's cpu line.
func steal() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			v, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// fsType finds the filesystem type of the mount holding dir, from
// /proc/self/mountinfo (longest matching mount point wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), g[0]
		}
	}
	return typ
}
