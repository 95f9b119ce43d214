package main

import (
	"io"
	"strings"
	"testing"
)

// TestCleanRunExitsZero mirrors the acceptance criterion: a storm over the
// skiplist with a fixed seed verifies cleanly.
func TestCleanRunExitsZero(t *testing.T) {
	err := run([]string{"-workload", "skiplist", "-seed", "1", "-ops", "80"}, io.Discard)
	if err != nil {
		t.Fatalf("clean skiplist storm failed: %v", err)
	}
}

// TestAllWorkloads runs every workload once at a small size.
func TestAllWorkloads(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-workload", "all", "-ops", "60", "-workers", "3"}, &sb); err != nil {
		t.Fatalf("all-workload storm failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "skiplist") || !strings.Contains(sb.String(), "bank") {
		t.Fatalf("summary lines missing workloads:\n%s", sb.String())
	}
}

// TestCorruptRecorderExitsNonZero is the deliberately-broken-fixture
// criterion: recording the storm through the version-skewing recorder must
// make stormcheck exit non-zero.
func TestCorruptRecorderExitsNonZero(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-workload", "linkedlist", "-seed", "1", "-ops", "80", "-selftest-corrupt"}, &sb)
	if err == nil {
		t.Fatalf("corrupted run exited zero:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "correctly rejected") {
		t.Fatalf("selftest did not report the rejection:\n%s", sb.String())
	}
}

// TestExploreFlag runs the exhaustive tiny-interleaving suite.
func TestExploreFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-workload", "cells", "-ops", "40", "-explore"}, &sb); err != nil {
		t.Fatalf("explore run failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "figure4") {
		t.Fatalf("explore output missing figure4:\n%s", sb.String())
	}
}

// TestCrashPointsFlag runs the exhaustive crash-point exploration through
// the CLI surface CI invokes.
func TestCrashPointsFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-workload", "cells", "-ops", "40", "-crashpoints"}, &sb); err != nil {
		t.Fatalf("crashpoints run failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "crashpoints ") || !strings.Contains(sb.String(), "— ok") {
		t.Fatalf("crashpoints output missing its summary line:\n%s", sb.String())
	}
}

// TestBadFlags covers the config-error paths.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-mix", "1,2"},
		{"-mix", "0,0,0"},
		{"-mix", "a,b,c"},
	} {
		if err := run(append(args, "-ops", "5"), io.Discard); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
