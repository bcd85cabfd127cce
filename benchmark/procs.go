package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the product commands the process workloads spawn
// into dir and returns their paths. It runs from the repository root.
func buildBinaries(dir string) (serveBin, gatewayBin string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(os.PathSeparator), pkgServe, pkgGateway)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("go build %s %s: %v\n%s", pkgServe, pkgGateway, err, out)
	}
	return filepath.Join(abs, filepath.Base(pkgServe)), filepath.Join(abs, filepath.Base(pkgGateway)), nil
}

// proc is a spawned server process listening on url.
type proc struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{}
}

// handedOut remembers the addresses freeAddr has returned: the kernel may
// offer a just-closed port again, and two replicas spawned at once must not
// be told to listen on the same one.
var handedOut = struct {
	sync.Mutex
	addrs map[string]bool
}{addrs: map[string]bool{}}

// freeAddr returns a loopback address nothing listens on right now and that
// this process has not handed out before.
func freeAddr() (string, error) {
	handedOut.Lock()
	defer handedOut.Unlock()
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		addr := ln.Addr().String()
		if err := ln.Close(); err != nil {
			return "", err
		}
		if !handedOut.addrs[addr] {
			handedOut.addrs[addr] = true
			return addr, nil
		}
	}
}

// spawn starts bin with args plus -addr on a free loopback port, logging to
// logPath. The caller must stop it.
func spawn(bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{flagAddr, addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping the server (a panic, a
	// SIGKILL), the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	started := make(chan error)
	go func() {
		// Pdeathsig fires when the thread that started the child ends, not
		// the process, so this goroutine holds its thread until the child
		// has exited.
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err != nil {
			return
		}
		cmd.Wait() //nolint:errcheck // a signalled exit is the normal way out
		close(p.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	running.Lock()
	running.procs[p] = true
	running.Unlock()
	return p, nil
}

// running is every spawned process that has not been stopped yet.
var running = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// stopOnSignal makes a signal that ends the benchmark early (the driver's
// time limit, Ctrl-C) kill the spawned servers and wait for them first.
func stopOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-c
		fmt.Fprintf(os.Stderr, "benchmark: %v: stopping spawned processes\n", s)
		running.Lock() // held to the end: nothing is spawned from here on
		for p := range running.procs {
			p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
			<-p.exited
		}
		os.Exit(1)
	}()
}

// waitReady polls GET /readyz until it answers 200.
func (p *proc) waitReady(timeout time.Duration) error {
	t := newHTTPTarget(p.url, 1)
	defer t.close()
	deadline := time.Now().Add(timeout)
	for {
		// Exit first: a server that lost its port to another process must
		// not pass for ready because that other process answers.
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready; log:\n%s", p.cmd.Path, tail(p.logPath))
		default:
		}
		if _, status, err := t.get(pathReadyz); err == nil && status == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v; log:\n%s", p.cmd.Path, timeout, tail(p.logPath))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) from
// /proc, in MB.
func (p *proc) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// stop asks the process to drain (SIGTERM), waits for it to exit, and kills
// it if it does not within five seconds.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-p.exited
	}
	running.Lock()
	delete(running.procs, p)
	running.Unlock()
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}
