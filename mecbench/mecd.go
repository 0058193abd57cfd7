package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times
// (USER_HZ, 100 on every Linux architecture Go supports).
const userHZ = 100

// servingLine matches mecd's start-up banner, which names the bound address.
var servingLine = regexp.MustCompile(`serving \d+ cells on \d+ shards at (http://\S+) `)

// daemon is one running mecd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the child's stdout reaches EOF
	// ready is exec → first /healthz 200.
	ready time.Duration
}

// startMecd execs mecd on a free loopback port and waits until /healthz
// answers 200. mecd finishes crash recovery before it listens, so for a
// durable daemon the wait covers WAL replay too.
func startMecd(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// Should the harness die without killing it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mecd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
			d.base = m[1]
			break
		}
	}
	go func() {
		io.Copy(io.Discard, out) //nolint:errcheck // only drains the pipe
		close(d.drained)
	}()
	if d.base == "" {
		d.kill()
		return nil, fmt.Errorf("mecd %v exited before serving", args)
	}
	probe := &http.Client{Timeout: time.Second}
	for deadline := t0.Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := probe.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			d.ready = time.Since(t0)
			probe.CloseIdleConnections()
			return d, nil
		}
	}
	d.kill()
	return nil, fmt.Errorf("mecd %v: /healthz not 200 within 60s", args)
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-d.drained
	d.cmd.Wait() //nolint:errcheck // a killed child always reports the signal
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cellRow is one cell's row of GET /v1/cells.
type cellRow struct {
	Cell           int     `json:"cell"`
	Slot           int     `json:"slot"`
	AvgDelayMS     float64 `json:"avg_delay_ms"`
	PendingObserve bool    `json:"pending_observe"`
}

func fetchCells(base string) ([]cellRow, error) {
	resp, err := http.Get(base + "/v1/cells")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Cells []cellRow `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /v1/cells: %w", err)
	}
	return body.Cells, nil
}

// procSample is a child's CPU time and peak RSS at one instant.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB uint64        // VmHWM
}

func sampleProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	return parseProc(stat, status)
}

// parseProc extracts utime+stime from a /proc/<pid>/stat line and VmHWM from
// the matching /proc/<pid>/status.
func parseProc(stat, status []byte) (procSample, error) {
	// The command name (field 2) is parenthesised and may hold spaces or
	// parentheses, so fields are counted from the last ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return procSample{}, fmt.Errorf("stat: no command name")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procSample{}, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procSample{}, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procSample{}, fmt.Errorf("stat stime: %w", err)
	}
	s := procSample{cpu: time.Duration(utime+stime) * time.Second / userHZ}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return procSample{}, fmt.Errorf("status VmHWM: %w", err)
			}
			s.hwmKB = kb
			return s, nil
		}
	}
	return procSample{}, fmt.Errorf("status: no VmHWM line")
}
