package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// replica is one gossipd process the benchmark booted, with its own port,
// store directory and cache.
type replica struct {
	cmd  *exec.Cmd
	dir  string
	url  string
	exit chan error
}

// startReplica boots gossipd on a fresh loopback port with a fresh store
// under dir and waits until it answers /healthz.
func startReplica(bin, dir string, procs, cacheEntries int) (*replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating replica dir: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "gossipd.log"))
	if err != nil {
		return nil, fmt.Errorf("creating gossipd log: %w", err)
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-store", filepath.Join(dir, "store"),
		"-workers", strconv.Itoa(procs),
		"-cache-entries", strconv.Itoa(cacheEntries),
		"-timeout", "60s",
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed from outside must not leave its replica running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gossipd: %w", err)
	}
	r := &replica{cmd: cmd, dir: dir, url: "http://" + addr, exit: make(chan error, 1)}
	go func() { r.exit <- cmd.Wait() }()
	c := newClient(r.url, 1)
	defer c.close()
	if err := c.waitReady(15 * time.Second); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop drains the replica with SIGTERM, kills it if the drain stalls, and
// returns once the process has exited.
func (r *replica) stop() {
	if r.cmd.Process == nil {
		return
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-r.exit:
	case <-time.After(15 * time.Second):
		_ = r.cmd.Process.Kill() // the exit wait below reaps it either way
		<-r.exit
	}
}

// peakRSSMB is the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
