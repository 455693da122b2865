package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running balignd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	logs *tailBuffer
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// startDaemon starts the balignd binary with default flags on a free
// loopback port and waits until /v1/readyz answers 200.
func startDaemon(ctx context.Context, bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		logs: &tailBuffer{max: 4 << 10},
		done: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	d.cmd.Stdout = d.logs
	d.cmd.Stderr = d.logs
	// Take balignd down with the benchmark should the benchmark be killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting balignd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("balignd exited before it was ready (%v): %s", d.err, d.logs)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("balignd not ready after 30s: %s", d.logs)
}

// stop sends SIGTERM (balignd drains and exits 0), escalates to SIGKILL
// after ten seconds, and returns once the process has been reaped.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	return d.err
}

// cpuTime reads the process's user+system CPU time from /proc.
func (d *daemon) cpuTime() (time.Duration, error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// utime and stime are fields 14 and 15 of the line, 12 and 13 after
	// the parenthesised command name.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %w", pid, err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// memMB reads one memory field of /proc/<pid>/status ("VmRSS",
// "VmHWM") in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	pid := d.cmd.Process.Pid
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// sampleRSS reads VmRSS every interval until stop is closed and returns
// the samples.
func (d *daemon) sampleRSS(interval time.Duration, stop <-chan struct{}) []float64 {
	var out []float64
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if mb, err := d.memMB("VmRSS"); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it: balignd writes one
// access-log line per request, and only the tail explains a failure.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
