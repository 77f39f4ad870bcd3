package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"percival/internal/tensor"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stamp identifies the machine and build a run measured.
type stamp struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GemmKernel string  `json:"gemm_kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	StealShare float64 `json:"steal_share"`
}

func newStamp() stamp {
	return stamp{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GemmKernel: tensor.GemmKernelName(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from .git without running git; a checkout that is
// not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == name {
			return id
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate line of /proc/stat in jiffies: the time the
// CPUs were busy or wanted to be (steal included), and the part of it the
// hypervisor gave to other guests.
type cpuTimes struct{ busy, steal float64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	// user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i >= 8 || i == 3 || i == 4 {
			continue
		}
		t.busy += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the CPU time the VM wanted between a and b
// that the hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	return ratio(b.steal-a.steal, b.busy-a.busy)
}

// resetPeakRSS sets this process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// vmHWM returns a process's peak resident set (VmHWM) in MB.
func vmHWM(pid int) (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM in %s: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
