package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go
// supports, whatever the kernel's internal tick rate.
const clockTicks = 100

// parseStatCPU returns utime+stime in ticks from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat string) (uint64, error) {
	rp := strings.LastIndexByte(stat, ')')
	if rp < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ')' come fields 3 (state) onward; utime and stime are fields
	// 14 and 15, i.e. indexes 11 and 12 here.
	f := strings.Fields(stat[rp+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want ≥13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return ut + st, nil
}

// parseVmHWM returns the peak resident set size in KiB from the contents
// of /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuMS reads the user+system CPU time of a process in ms.
func cpuMS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(ticks) * 1000 / clockTicks, nil
}

// peakRSSMB reads a process's peak resident set size in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(raw))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
