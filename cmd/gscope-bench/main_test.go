package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.window != 400*time.Millisecond || cfg.reps != 5 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if got := cfg.signals; len(got) != 4 || got[0] != 1 || got[3] != 32 {
		t.Fatalf("signals = %v", got)
	}
	if cfg.soak != 0 || cfg.chaos {
		t.Fatalf("soak flags set by default: %+v", cfg)
	}
}

func TestParseFlagsSignalsList(t *testing.T) {
	cfg, err := parseFlags([]string{"-signals", " 2, 4 ,8 "})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.signals) != 3 || cfg.signals[0] != 2 || cfg.signals[2] != 8 {
		t.Fatalf("signals = %v", cfg.signals)
	}
}

func TestParseFlagsRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"positional argument", []string{"extra"}},
		{"zero window", []string{"-window", "0s"}},
		{"negative window", []string{"-window", "-1s"}},
		{"zero reps", []string{"-reps", "0"}},
		{"negative soak", []string{"-soak", "-5s"}},
		{"sub-second soak", []string{"-soak", "500ms"}},
		{"chaos without soak", []string{"-chaos"}},
		{"zero soak publishers", []string{"-soak", "5s", "-soak-publishers", "0"}},
		{"too many soak publishers", []string{"-soak", "5s", "-soak-publishers", "65"}},
		{"zero soak subscribers", []string{"-soak", "5s", "-soak-subscribers", "0"}},
		{"too many soak subscribers", []string{"-soak", "5s", "-soak-subscribers", "65"}},
		{"bad signals token", []string{"-signals", "1,x,8"}},
		{"negative signals token", []string{"-signals", "-3"}},
		{"empty signals list", []string{"-signals", " , "}},
	}
	for _, c := range cases {
		if _, err := parseFlags(c.args); err == nil {
			t.Errorf("%s: %v accepted", c.name, c.args)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h should surface flag.ErrHelp, got %v", err)
	}
}

func TestParseFlagsSoakDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-soak", "2s", "-chaos"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.soak != 2*time.Second || !cfg.chaos {
		t.Fatalf("soak flags wrong: %+v", cfg)
	}
	if cfg.soakPublishers != 4 || cfg.soakSubscribers != 8 || cfg.seed != 1 {
		t.Fatalf("soak defaults wrong: %+v", cfg)
	}
}

// TestSoakSmoke runs the full-pipeline soak at its minimum duration —
// the end-to-end test of the publisher → relay → hub → subscriber →
// recorder path, with every continuous invariant armed.
func TestSoakSmoke(t *testing.T) {
	cfg, err := parseFlags([]string{"-soak", "1s", "-soak-publishers", "2", "-soak-subscribers", "8"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runBench(cfg, &out); err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"publishers         ",
		"root hub           ",
		"sub0(plain-v1)",
		"sub3(max-rate)",
		"sub5(no-stream)",
		"sub6(binary)",
		"sub7(binary-filtered)",
		"replay             ",
		"invariants         OK (0 violations)",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}
