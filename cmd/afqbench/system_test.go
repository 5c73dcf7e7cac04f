package main

import "testing"

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (afq (srv) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 1234 66 0 0 20 0 9 0 100 200 300"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 13 {
		t.Errorf("cpu seconds = %v, %v; want (1234+66)/100 = 13", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat accepted")
	}

	mb, err := parseVmHWM("Name:\tafqserver\nVmPeak:\t  900000 kB\nVmHWM:\t  117760 kB\nVmRSS:\t 100 kB\n")
	if err != nil || mb != 115 {
		t.Errorf("VmHWM = %v MiB, %v; want 115", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}

	before, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseHostCPU("cpu  150 0 70 1500 10 0 5 65 7 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// total 1000 → 1800, steal 35 → 65; guest time is not counted twice.
	if got := stealShare(before, after); !near(got, 30.0/800) {
		t.Errorf("steal share = %v, want %v", got, 30.0/800)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("malformed /proc/stat accepted")
	}
}
