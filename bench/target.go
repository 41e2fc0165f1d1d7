package main

// This file runs rooflined as a child process and reads its state:
// /metrics, the -debug heap profile, and /proc.

import (
	"bufio"
	"bytes"
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

// newClient returns an HTTP client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// target is one rooflined child process.
type target struct {
	cmd     *exec.Cmd
	url     string
	ctl     *http.Client  // health, metrics and trace scrapes
	drained chan struct{} // closed once the child's stdout reaches EOF
}

// buildRooflined builds the rooflined binary from the repository into dir.
func buildRooflined(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rooflined")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rooflined")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building rooflined: %w", err)
	}
	return bin, nil
}

// startTarget starts rooflined on a free loopback port and waits until
// /healthz answers 200. The child is killed if this process dies.
func startTarget(bin string, debug bool) (*target, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if debug {
		args = append(args, "-debug")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rooflined: %w", err)
	}
	t := &target{cmd: cmd, ctl: newClient(), drained: make(chan struct{})}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	go func() {
		io.Copy(io.Discard, r)
		close(t.drained)
	}()
	const banner = "rooflined listening on "
	if err != nil || !strings.HasPrefix(line, banner) {
		t.stop()
		return nil, fmt.Errorf("rooflined did not announce its address (%q, %v)", line, err)
	}
	t.url = strings.TrimSpace(strings.TrimPrefix(line, banner))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := t.get("/healthz"); err == nil {
			return t, nil
		}
		if time.Now().After(deadline) {
			t.stop()
			return nil, fmt.Errorf("rooflined at %s never became healthy", t.url)
		}
	}
}

// get fetches path from the target and requires a 200.
func (t *target) get(path string) ([]byte, error) {
	resp, err := t.ctl.Get(t.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// counters scrapes the target's /metrics page into name → value.
func (t *target) counters() (map[string]float64, error) {
	page, err := t.get("/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok {
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, nil
}

// runtimeStats reads the allocation count and GC CPU fraction from the
// target's MemStats, as /debug/pprof/heap?debug=1 prints them (-debug only).
func (t *target) runtimeStats() (mallocs, gcFraction float64, err error) {
	page, err := t.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
			found++
		} else if v, ok := strings.CutPrefix(line, "# GCCPUFraction = "); ok {
			gcFraction, err = strconv.ParseFloat(v, 64)
			found++
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks Mallocs or GCCPUFraction")
	}
	return mallocs, gcFraction, nil
}

// procStatus returns the target's CPU seconds (user + system) and its
// peak resident set in MB, from /proc.
func (t *target) procStatus() (cpu, peakMB float64, err error) {
	pid := t.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks of
	// 1/100 s on Linux.
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	peakMB, err = peakRSS(pid)
	return (utime + stime) / 100, peakMB, err
}

// peakRSS returns VmHWM of process pid in MB.
func peakRSS(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's CPU seconds (user + system).
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// stop terminates the target and waits for it to exit. Signal errors
// are dropped: the child may have exited already, and Wait reports how.
func (t *target) stop() error {
	t.ctl.CloseIdleConnections()
	_ = t.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-t.drained:
	case <-time.After(10 * time.Second):
		_ = t.cmd.Process.Kill()
		<-t.drained
	}
	return t.cmd.Wait()
}
