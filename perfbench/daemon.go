package main

import (
	"bufio"
	"errors"
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

// daemon is one percival-serve process the benchmark started.
type daemon struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited
	err  error         // exit status, valid after done
}

var (
	procsMu sync.Mutex
	procs   []*daemon
)

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon launches percival-serve on a fresh loopback port with the
// given extra flags, logging to logPath. The process is killed if the
// benchmark dies.
func startDaemon(bin, name, logPath string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no percival-serve binary (run through perfbench/run.sh or pass -serve-bin)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("reserve port for %s: %w", name, err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	procsMu.Lock()
	procs = append(procs, d)
	procsMu.Unlock()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls /healthz until the daemon answers 200.
func (d *daemon) waitReady(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (%v); see %s", d.name, d.err, d.log.Name())
		default:
		}
		resp, err := client.Get(d.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v; see %s", d.name, timeout, d.log.Name())
}

// peakRSS is the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// stop asks the daemon to drain and exit, kills it if it does not within
// ten seconds, and waits until it has ended.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
}

// stopAll stops every daemon still running.
func stopAll() {
	procsMu.Lock()
	ds := procs
	procs = nil
	procsMu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			d.stop()
		}(d)
	}
	wg.Wait()
}

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name, labels string
	value        float64
}

type promSnapshot []promSample

// scrape reads the daemon's /metrics.
func (d *daemon) scrape() (promSnapshot, error) {
	resp, err := http.Get(d.url("/metrics"))
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", d.name, resp.StatusCode)
	}
	var snap promSnapshot
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		snap = append(snap, promSample{name: name, labels: labels, value: v})
	}
	return snap, sc.Err()
}

// sum adds every sample of a metric across its label sets.
func (p promSnapshot) sum(name string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// labelled lists the label sets a metric carries.
func (p promSnapshot) labelled(name string) []string {
	var out []string
	for _, s := range p {
		if s.name == name {
			out = append(out, s.labels)
		}
	}
	return out
}
