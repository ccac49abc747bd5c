package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clkTck = 100

// procCPU reads a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// rusageCPU returns the user+system CPU time of this process and of its
// reaped children.
func rusageCPU() (self, children time.Duration) {
	var ru syscall.Rusage
	cpu := func() time.Duration {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = cpu()
	}
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = cpu()
	}
	return self, children
}

// procPeakRSS reads a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// daemon is one running chainauditd.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed once the process has been reaped; waitErr is its
	// exit status.
	exited  chan struct{}
	waitErr error
}

// startDaemon boots chainauditd with args plus an ephemeral address and a
// ready file, and waits until /v1/healthz answers ok.
func startDaemon(ctx context.Context, bin, dir string, args []string) (*daemon, error) {
	ready := filepath.Join(dir, "ready")
	_ = os.Remove(ready) // a stale file from an earlier boot would be read as this boot's address
	logPath := filepath.Join(dir, "chainauditd.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	all := append([]string{"-addr", "127.0.0.1:0", "-ready-file", ready}, args...)
	cmd := exec.Command(filepath.Join(bin, "chainauditd"), all...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if raw, err := os.ReadFile(ready); err == nil && len(raw) > 0 {
			d.addr = "http://" + strings.TrimSpace(string(raw))
			if resp, err := probe.Get(d.addr + "/v1/healthz"); err == nil {
				ok := resp.StatusCode == http.StatusOK
				_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
				resp.Body.Close()
				if ok {
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("chainauditd exited during boot (%v); log %s: %s", d.waitErr, logPath, tail(logPath))
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("chainauditd not ready after 120s; log: %s", tail(logPath))
		}
	}
}

// kill stops the daemon with SIGKILL and waits until it has exited; killing
// an exited daemon is a no-op.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // it may exit on its own meanwhile; the wait below covers both
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// tail returns the last few hundred bytes of a log file, for error messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	return tailBytes(raw)
}

func tailBytes(b []byte) string {
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(b)
}

// getJSON GETs url and decodes a 200 JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

// post sends body to url and returns the response body, failing on any
// status but 200.
func post(c *http.Client, url string, body io.Reader, n int64) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// oneConnClient is an HTTP client that keeps at most one connection open:
// the benchmark's load comes from at most two such clients.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}
