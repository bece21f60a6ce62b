package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one codecompd child process serving on loopback with a
// private data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	dataDir string
	exited  chan struct{}
	log     bytes.Buffer // the child's stderr, shown when it fails
}

// startDaemon launches bin with default flags plus -addr and -data-dir
// and waits until /healthz answers.
func startDaemon(bin, dataDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-data-dir", dataDir)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.log
	// If the benchmark is killed before it can stop the daemon, the kernel
	// kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck — exit status is irrelevant once stop was asked for
		close(d.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("codecompd exited during start-up: %s", strings.TrimSpace(d.log.String()))
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("codecompd did not answer /healthz within 15s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// ten seconds) and removes its data directory.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck — already gone is fine
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck
			<-d.exited
		}
	}
	os.RemoveAll(d.dataDir)
}

// peakRSSMB is the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
