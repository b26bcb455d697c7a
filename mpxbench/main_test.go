package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runSmoke runs workload w at smoke size and decodes its result line.
func runSmoke(t *testing.T, w workload, trace, corrupt bool) (int, result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cfg := config{workload: w.name, seed: 5, seconds: 10, trace: trace, root: t.TempDir(), rate: openRate, corrupt: corrupt}
	code := runWorkload(cfg, smoke(w), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if len(lines) >= 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
		}
	}
	return code, res, errOut.String()
}

func TestWorkloadsVerifyClean(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			code, res, stderr := runSmoke(t, w, trace, false)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: exit %d, result %+v\n%s", w.name, trace, code, res, stderr)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayerNames)
			}
			if len(res.Metrics) != want {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Fatalf("%s: ok_frac %v on unchanged code", w.name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestVerifierCanFail corrupts one build and one query expectation: the
// run must count the mismatches as failed operations and exit non-zero.
func TestVerifierCanFail(t *testing.T) {
	code, res, stderr := runSmoke(t, workloads[1], false, true) // build-road
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted expectation passed: exit %d, result %+v", code, res)
	}
	if ok := res.Metrics["ok_frac"].Value; !(ok < 1) {
		t.Fatalf("ok_frac = %v with a corrupted expectation, want < 1", ok)
	}
	for _, want := range []string{"fingerprint", "checksum"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("failure report does not name the %s mismatch:\n%s", want, stderr)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "query-mix", "--trace", "2"},
		{"--workload", "query-mix", "--seconds", "0"},
		{"--workload", "query-mix", "--rate", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
