package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the directory holding
// go.mod: `go run ./bench` starts there, `go test ./bench` one below.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// outDir is bench/out under the repository root: server logs, the
// ringsrv binary, temp snapshot files, trace files and -out records all
// live there (git-ignored), so a run writes nothing outside its checkout.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildServer compiles cmd/ringsrv from the checkout's source into
// bench/out and reports how long the build took.
func buildServer(ctx context.Context, root, out string) (string, time.Duration, error) {
	bin := filepath.Join(out, "ringsrv")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ringsrv")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/ringsrv: %v\n%s", err, msg)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before ringsrv binds it; nothing else on a benchmark box races
// for ephemeral loopback ports in that gap.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// health is the part of ringsrv's /healthz body the bench reads.
type health struct {
	Routing      bool   `json:"routing"`
	BuildVersion string `json:"build_version"`
	Objects      *struct {
		Ready bool `json:"ready"`
	} `json:"objects"`
}

// server is one ringsrv subprocess in its own process group.
type server struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:port
	// bootTime is exec → first 200 on /healthz.
	bootTime time.Duration
	health   health
	exited   chan struct{}
	waitErr  error
}

// startServer execs ringsrv with args plus a fresh -addr, appending its
// stdout and stderr to logPath, and waits for the first 200 on /healthz.
func startServer(ctx context.Context, bin, logPath string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, so stop() can signal everything ringsrv spawns;
	// Pdeathsig covers the one path stop() cannot: the bench itself dying
	// without running its deferred clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()

	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if h, err := fetchHealth(hc, s.base); err == nil {
			s.bootTime = time.Since(start)
			s.health = h
			return s, nil
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("ringsrv exited during boot (%v); see %s", s.waitErr, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("ringsrv not healthy after 60s; see %s", logPath)
		}
	}
}

func fetchHealth(hc *http.Client, base string) (health, error) {
	var h health
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// waitRouting polls /healthz until the background hydration of a warm
// start has swapped the full snapshot in (routing and the object
// directory online) and reports how long that took.
func (s *server) waitRouting(ctx context.Context) (time.Duration, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	start := time.Now()
	for {
		h, err := fetchHealth(hc, s.base)
		if err == nil && h.Routing && (h.Objects == nil || h.Objects.Ready) {
			return time.Since(start), nil
		}
		select {
		case <-s.exited:
			return 0, fmt.Errorf("ringsrv exited while hydrating (%v)", s.waitErr)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			return 0, errors.New("ringsrv did not hydrate within 60s")
		}
	}
}

// stop ends the whole process group: SIGTERM, then SIGKILL if the drain
// takes longer than five seconds. It returns once the process has been
// reaped and is safe to call more than once.
func (s *server) stop() {
	if s == nil {
		return
	}
	pgid := s.cmd.Process.Pid
	select {
	case <-s.exited:
	default:
		_ = syscall.Kill(-pgid, syscall.SIGTERM) // ESRCH means it is already gone
		select {
		case <-s.exited:
		case <-time.After(5 * time.Second):
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
			<-s.exited
		}
	}
	s.log.Close()
}

// procCPU reads the process's cumulative user and system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s — the
// USER_HZ every Linux ABI Go supports reports).
func procCPU(pid int) (user, sys time.Duration, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// procStatusMB reads one "VmXXX: N kB" line of /proc/<pid>/status.
func procStatusMB(pid int, key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status %s: %v", pid, key, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s line", pid, key)
}

// selfCPU is the bench process's own cumulative CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
