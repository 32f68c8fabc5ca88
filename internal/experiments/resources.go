package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// ResourceUsage is one sample of process resource consumption, the raw
// material of the paper's Table 4 (server CPU % and memory %).
type ResourceUsage struct {
	// CPUPercent is process CPU utilisation over the sampling window
	// (100 % = one core fully busy).
	CPUPercent float64
	// HeapBytes is the live Go heap.
	HeapBytes uint64
	// SysBytes is the total memory obtained from the OS by the runtime.
	SysBytes uint64
	// Goroutines is the current goroutine count.
	Goroutines int
	// Window is the sampling interval the CPU figure covers.
	Window time.Duration
}

// MemoryPercent expresses SysBytes as a percentage of totalBytes (e.g. the
// paper's 32 GB server).
func (r ResourceUsage) MemoryPercent(totalBytes uint64) float64 {
	if totalBytes == 0 {
		return 0
	}
	return float64(r.SysBytes) / float64(totalBytes) * 100
}

// String implements fmt.Stringer.
func (r ResourceUsage) String() string {
	return fmt.Sprintf("cpu=%.1f%% heap=%.1fMB sys=%.1fMB goroutines=%d",
		r.CPUPercent, float64(r.HeapBytes)/(1<<20), float64(r.SysBytes)/(1<<20), r.Goroutines)
}

// ResourceSampler measures process CPU time (via /proc/self/stat on Linux)
// and Go runtime memory between Start and Sample calls.
type ResourceSampler struct {
	startCPU  time.Duration
	startWall time.Time
	ticksPerS float64
}

// NewResourceSampler starts a sampling window.
func NewResourceSampler() *ResourceSampler {
	s := &ResourceSampler{ticksPerS: 100} // Linux USER_HZ
	s.Reset()
	return s
}

// Reset restarts the sampling window.
func (s *ResourceSampler) Reset() {
	s.startCPU = processCPUTime(s.ticksPerS)
	s.startWall = time.Now()
}

// Sample returns resource usage over the window since the last Reset.
func (s *ResourceSampler) Sample() ResourceUsage {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	wall := time.Since(s.startWall)
	cpu := processCPUTime(s.ticksPerS) - s.startCPU
	usage := ResourceUsage{
		HeapBytes:  mem.HeapAlloc,
		SysBytes:   mem.Sys,
		Goroutines: runtime.NumGoroutine(),
		Window:     wall,
	}
	if wall > 0 {
		usage.CPUPercent = float64(cpu) / float64(wall) * 100
	}
	return usage
}

// processCPUTime reads utime+stime from /proc/self/stat. On platforms
// without procfs it returns 0 (CPU percentages read as 0 rather than
// failing the experiment).
func processCPUTime(ticksPerSecond float64) time.Duration {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// Field 2 (comm) may contain spaces; skip past the closing paren.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 || i+2 > len(s) {
		return 0
	}
	fields := strings.Fields(s[i+2:])
	// utime and stime are fields 14 and 15 of the full stat line; after
	// comm they are at index 11 and 12.
	if len(fields) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	seconds := (utime + stime) / ticksPerSecond
	return time.Duration(seconds * float64(time.Second))
}
