package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one drevald process listening on a loopback port.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{} // closed once Wait returns
}

var listeningRe = regexp.MustCompile(`msg="drevald listening" addr=(\S+)`)

// launch starts drevald with its default flags plus extra, on a port
// the kernel picks, with stdout and stderr appended to logPath. It
// returns once drevald has logged the address it listens on.
func launch(ctx context.Context, bin, logPath string, extra ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	before, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping it, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting drevald: %w", err)
	}
	d := &daemon{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState if needed
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(logPath); err == nil && int64(len(b)) > before {
			if m := listeningRe.FindSubmatch(b[before:]); m != nil {
				d.base = "http://" + string(m[1])
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("drevald exited during start-up: %s", d.logTail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("drevald did not report its address within 30s: %s", d.logTail())
		}
	}
}

// stop asks drevald to drain and exit, kills it if it has not exited
// 15 seconds later, and returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is drevald's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; the
	// fields after it start at field 3, so utime (14) and stime (15)
	// are the 12th and 13th.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB is drevald's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitReady polls /healthz until drevald answers 200 and, with a WAL,
// has finished replaying it. It returns the recovered epoch (0 without
// a WAL).
func (d *daemon) waitReady(ctx context.Context, c *http.Client) (int, error) {
	deadline := time.Now().Add(120 * time.Second)
	for {
		var h healthReply
		status, err := getJSON(ctx, c, d.base+"/healthz", &h)
		if err == nil && status == http.StatusOK {
			switch {
			case h.WAL == nil:
				return 0, nil
			case h.WAL.ReplayError != "":
				return 0, fmt.Errorf("wal replay failed: %s", h.WAL.ReplayError)
			case !h.WAL.Replaying:
				return h.WAL.Epoch, nil
			}
		}
		select {
		case <-d.exited:
			return 0, fmt.Errorf("drevald exited before it was ready: %s", d.logTail())
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, errors.New("drevald not ready within 120s")
		}
	}
}

// newClient returns the suite's HTTP client: at most two connections,
// one per load goroutine, kept alive across requests.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// statusError is an answer other than 200 OK.
type statusError struct {
	code int
	body []byte
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %.200s", e.code, e.body) }

// postOK sends a JSON body and returns the response body; a transport
// failure or a status other than 200 is an error.
func postOK(ctx context.Context, c *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, resp, err := do(c, req)
	if err == nil && status != http.StatusOK {
		err = &statusError{status, resp}
	}
	return resp, err
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	status, body, err := do(c, req)
	if err != nil {
		return 0, err
	}
	if status == http.StatusOK {
		err = json.Unmarshal(body, v)
	}
	return status, err
}

func do(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
