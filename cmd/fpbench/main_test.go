package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fpmix/internal/experiments"
)

func TestWriteJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.json")
	want := experiments.BitExactRow{Bench: "amg", Class: "W", Outputs: 1, Match: true}
	if err := writeJSON(path, &results{BitExact: []experiments.BitExactRow{want}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got results
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.BitExact) != 1 || got.BitExact[0] != want {
		t.Errorf("round trip = %+v, want [%+v]", got.BitExact, want)
	}
}

func TestWriteJSONReportsWriteFailure(t *testing.T) {
	// Every write to /dev/full fails with ENOSPC.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := writeJSON("/dev/full", &results{}); err == nil {
		t.Error("write to a full device reported no error")
	}
}
