package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one uvmsimd or uvmfleet process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// startDaemon launches bin with args and returns once it has printed its
// "listening on ADDR" banner, so readiness costs no polling.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = lf
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, log: lf}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	line, err := bufio.NewReader(out).ReadString('\n')
	i := strings.Index(line, "listening on ")
	if err != nil || i < 0 {
		d.stop()
		return nil, fmt.Errorf("%s: no listening banner (got %q, %v); see %s", filepath.Base(bin), line, err, logPath)
	}
	d.addr = "http://" + strings.TrimSpace(line[i+len("listening on "):])
	return d, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// stop asks for a graceful shutdown, escalates to SIGKILL after 10 s, and
// waits for the process to end.
func (d *daemon) stop() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	d.log.Close()
}

// stopAll stops every daemon still running (error paths).
func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSMB reads VmHWM of pid from /proc, in MB (10^6 bytes).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// tracer keeps spans in memory and writes them out at the end. A nil
// tracer records nothing: untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call into a layer. Op ties the spans of one op
// together; Parent names the enclosing span.
type span struct {
	Name    string  `json:"name"`
	Op      string  `json:"op"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start returns the span start time (zero when untraced).
func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a span from s to now and returns its duration.
func (t *tracer) end(name, op, parent string, s time.Time) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		StartUS: float64(s.Sub(t.t0)) / 1e3, EndUS: float64(now.Sub(t.t0)) / 1e3})
	t.mu.Unlock()
	return now.Sub(s)
}

// durMS returns the durations (ms) of every span with this name.
func (t *tracer) durMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	return os.WriteFile(path, b.Bytes(), 0o644)
}
