package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 40. The command name holds
	// spaces and a ')' to prove fields are counted from the last one.
	stat := "4242 (cov erd) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 40 0 0 20 0 5 0 100 123456 789 18446744073709551615\n"
	got, err := parseStatCPU(stat)
	if err != nil || got != 290 {
		t.Errorf("parseStatCPU = %d, %v; want 290", got, err)
	}
	for _, bad := range []string{"4242 coverd S 1", "4242 (coverd) S 1 2 3", "4242 (coverd) S 1 2 3 4 5 6 7 8 9 10 x 40 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcoverd\nVmPeak:\t  812345 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 45678 {
		t.Errorf("parseVmHWM = %d, %v; want 45678", got, err)
	}
	for _, bad := range []string{"Name:\tcoverd\n", "VmHWM:\t45678 MB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted a malformed status", bad)
		}
	}
}

// The parsers must read the live kernel's format, not just the samples
// above.
func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this system")
	}
	if _, err := cpuMS(os.Getpid()); err != nil {
		t.Error(err)
	}
	if rss, err := peakRSSMB(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peakRSSMB = %g, %v", rss, err)
	}
}
