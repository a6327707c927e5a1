package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
}

// readCPUStat reads the host-wide CPU counters; zero where /proc/stat is
// unavailable.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var s cpuStat
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// noiseLine reports the run's noise diagnostics, which are printed and not
// gated: host steal share since since, CPU counts, Go version, CPU model.
func noiseLine(since cpuStat) string {
	now := readCPUStat()
	steal := 0.0
	if now.total > since.total {
		steal = float64(now.steal-since.steal) / float64(now.total-since.total)
	}
	return fmt.Sprintf("noise: steal %.1f%% nproc %d GOMAXPROCS %d %s cpu %q",
		100*steal, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}
