package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// child is one gsketch-serve process under test.
type child struct {
	cmd      *exec.Cmd
	httpAddr string
	wireAddr string
	log      *os.File
	waited   chan struct{} // closed once cmd.Wait has returned
	control  *http.Client  // control-plane requests: readiness, stats, repartition
	released sync.Once
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startChild execs the server with its own listen addresses and log file.
// The process has started when this returns; waitReady tells when it
// serves.
func startChild(bin, logPath string, args ...string) (*child, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", httpAddr, "-wire-addr", wireAddr, "-log-level", "warn"}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{
		cmd:      cmd,
		httpAddr: httpAddr,
		wireAddr: wireAddr,
		log:      logf,
		waited:   make(chan struct{}),
		control:  &http.Client{Timeout: 60 * time.Second},
	}
	go func() {
		_ = cmd.Wait() // exit status is not a result: stop and kill decide it
		close(c.waited)
	}()
	return c, nil
}

func (c *child) url(path string) string { return "http://" + c.httpAddr + path }

// waitReady polls /readyz until it answers 200, the process exits, or the
// deadline passes.
func (c *child) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.waited:
			return fmt.Errorf("server exited before it was ready (see %s)", c.log.Name())
		default:
		}
		resp, err := c.control.Get(c.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not ready after %s (see %s)", timeout, c.log.Name())
}

// stop asks for a graceful shutdown and waits for the process to end,
// killing it if it does not within ten seconds. Stopping twice is harmless.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.waited:
		c.release()
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// kill ends the process at once and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.waited
	c.release()
}

func (c *child) release() {
	c.released.Do(func() {
		c.control.CloseIdleConnections()
		c.log.Close()
	})
}

// cpuSeconds is the user+system CPU the process has used so far.
func (c *child) cpuSeconds() (float64, error) {
	return procCPUSeconds(c.cmd.Process.Pid)
}

// procCPUSeconds sums the time every thread of the process has spent on a
// CPU, from the scheduler's per-thread counters, which count nanoseconds.
// /proc/<pid>/stat counts 10 ms ticks, too coarse for a 100 ms window; it
// is the fallback on a kernel built without scheduler statistics.
func procCPUSeconds(pid int) (float64, error) {
	tasks, _ := filepath.Glob(filepath.Join("/proc", strconv.Itoa(pid), "task", "*", "schedstat"))
	var ns int64
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		onCPU, _, _ := strings.Cut(string(raw), " ")
		n, err := strconv.ParseInt(onCPU, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s", path)
		}
		ns += n
	}
	if ns > 0 {
		return float64(ns) / 1e9, nil
	}
	return procStatCPUSeconds(pid)
}

func procStatCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return float64(utime+stime) / clockTicks, nil
}

// rssPeakMB is the process's peak resident set (VmHWM) in MB.
func (c *child) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// do sends a control-plane request with an optional JSON body and decodes
// the reply into v when v is not nil.
func (c *child) do(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, c.url(path), bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.control.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape fetches the /metrics exposition.
func (c *child) scrape() ([]byte, error) {
	resp, err := c.control.Get(c.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
