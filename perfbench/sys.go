package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealTicks reads the machine-wide steal counter (USER_HZ ticks) from the
// aggregate cpu line of /proc/stat: time a hypervisor ran another guest
// while this VM wanted the CPU.
func stealTicks() (uint64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseUint(f[8], 10, 64)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS sets VmHWM back to the current RSS, so the next peakRSSMB
// reading covers only what runs after this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuModel names the processor from /proc/cpuinfo.
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

// Runtime counters read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mLiveHeap   = "/gc/heap/live:bytes"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
)

// runtimeSnapshot is one reading of the runtime counters a phase reports.
type runtimeSnapshot struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	gcCycles   uint64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCCycles}}
	metrics.Read(s)
	return runtimeSnapshot{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// readUint64 reads one uint64-valued runtime metric.
func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
