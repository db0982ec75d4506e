package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSweep(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "gtc", "-scale", "0.05", "-iterations", "1",
		"-latencies", "10,100"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "latency sweep") || !strings.Contains(text, "normalized") {
		t.Errorf("output incomplete:\n%s", text)
	}
	if strings.Count(text, "\n") < 4 {
		t.Error("expected two sweep rows")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing -app must error")
	}
	if err := run([]string{"-app", "gtc", "-latencies", "ten"}, &out); err == nil {
		t.Error("bad latency must error")
	}
	if err := run([]string{"-app", "nonesuch"}, &out); err == nil {
		t.Error("unknown app must error")
	}
	// Out-of-range latencies are cpusim validation errors, returned before
	// the app runs rather than panicking mid-sweep.
	for _, lats := range []string{"10,0", "10,-5", "10,NaN,Inf", "Inf"} {
		out.Reset()
		if err := run([]string{"-app", "gtc", "-scale", "0.05", "-latencies", lats}, &out); err == nil {
			t.Errorf("-latencies %s must error", lats)
		}
		if out.Len() != 0 {
			t.Errorf("-latencies %s printed rows before failing:\n%s", lats, out.String())
		}
	}
}
