package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// arserve is one running server process on a loopback port.
type arserve struct {
	cmd    *exec.Cmd
	base   string
	ctl    *http.Client // control-plane client: /healthz, /metrics, /admin
	exited chan struct{}
	log    *tailBuffer
}

// tailBuffer keeps the last few KB a process writes, for error reports.
type tailBuffer struct{ b []byte }

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > 8192 {
		t.b = append([]byte(nil), t.b[len(t.b)-8192:]...)
	}
	return len(p), nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startArserve runs the server binary with args and waits until it
// answers /healthz. The caller must stop it.
func startArserve(ctx context.Context, bin string, args ...string) (*arserve, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	a := &arserve{
		cmd:    exec.Command(bin, append(args, "-addr", addr)...),
		base:   "http://" + addr,
		ctl:    newClient(),
		exited: make(chan struct{}),
		log:    &tailBuffer{},
	}
	a.cmd.Stdout, a.cmd.Stderr = a.log, a.log
	// The server must not outlive the benchmark, even if it is killed.
	a.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := a.cmd.Start(); err != nil {
		return nil, err
	}
	pid := a.cmd.Process.Pid
	children.Store(pid, struct{}{})
	go func() {
		_ = a.cmd.Wait() // the exit status is not needed: stop reports a hang, health polls report a crash
		children.Delete(pid)
		close(a.exited)
	}()
	deadline := time.Now().Add(150 * time.Second)
	for {
		resp, err := a.ctl.Get(a.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return a, nil
			}
		}
		select {
		case <-a.exited:
			return nil, fmt.Errorf("arserve exited during start-up: %s", a.log.b)
		case <-ctx.Done():
			a.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			a.stop()
			return nil, fmt.Errorf("arserve not ready after 150s")
		}
	}
}

// stop interrupts the server, kills it if it has not exited within ten
// seconds, and waits for it to be gone.
func (a *arserve) stop() {
	_ = a.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-a.exited:
	case <-time.After(10 * time.Second):
		_ = a.cmd.Process.Kill()
		<-a.exited
	}
	a.ctl.CloseIdleConnections()
}

// do sends one control-plane request and returns the body of a 200.
func (a *arserve) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := a.ctl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, b)
	}
	return b, nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Transactions int    `json:"transactions"`
	Swaps        uint64 `json:"swaps"`
	Refresh      *struct {
		IncrementalSuccesses uint64 `json:"incrementalSuccesses"`
		IncrementalFallbacks uint64 `json:"incrementalFallbacks"`
	} `json:"refresh"`
}

func (a *arserve) health() (health, error) {
	var h health
	b, err := a.do("GET", "/healthz", nil)
	if err == nil {
		err = json.Unmarshal(b, &h)
	}
	return h, err
}

// scrape reads /metrics into a map keyed by series, labels included:
// closedrules_http_requests_total{endpoint="support"}.
func (a *arserve) scrape() (map[string]float64, error) {
	b, err := a.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// cpuTime is the server's user+system CPU time so far, from
// /proc/<pid>/stat.
func (a *arserve) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", a.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ, 100
	// on Linux).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB is VmHWM of process pid, in MB.
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// statusMB reads a memory field of /proc/<pid>/status, in MB.
func statusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// children holds the pids of running arserve processes.
var children sync.Map

// memCapMB bounds the resident memory of the benchmark and of each
// server it runs: a change that makes mining blow up must fail the
// run, not exhaust the host's memory.
const memCapMB = 2048

// watchMemory checks every quarter second that no process of the run
// holds more than memCapMB, and otherwise kills the servers and exits.
// It runs for the life of the process.
func watchMemory(stderr io.Writer) {
	for range time.Tick(250 * time.Millisecond) {
		pids := []int{os.Getpid()}
		children.Range(func(k, _ any) bool {
			pids = append(pids, k.(int))
			return true
		})
		for _, pid := range pids {
			if rss, err := statusMB(pid, "VmRSS:"); err == nil && rss > memCapMB {
				fmt.Fprintf(stderr, "perfbench: process %d holds %.0f MB, over the %d MB cap\n", pid, rss, memCapMB)
				children.Range(func(k, _ any) bool {
					_ = syscall.Kill(k.(int), syscall.SIGKILL) // it may have exited meanwhile
					return true
				})
				os.Exit(3)
			}
		}
	}
}
