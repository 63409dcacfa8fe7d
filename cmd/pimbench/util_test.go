package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testEntry struct {
	Label string `json:"label"`
	N     int    `json:"n"`
}

func testLabel(e testEntry) string { return e.Label }

// TestMergeBenchEntry covers the shared results-file writer: fresh-file
// creation, append of a new label, in-place replacement of an existing
// label, and refusal to touch a corrupt file.
func TestMergeBenchEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	n, replaced, err := mergeBenchEntry(path, "test", "unit", testEntry{Label: "a", N: 1}, testLabel)
	if err != nil || n != 1 || replaced {
		t.Fatalf("fresh write: n=%d replaced=%v err=%v, want 1,false,nil", n, replaced, err)
	}

	n, replaced, err = mergeBenchEntry(path, "test", "unit", testEntry{Label: "b", N: 2}, testLabel)
	if err != nil || n != 2 || replaced {
		t.Fatalf("append: n=%d replaced=%v err=%v, want 2,false,nil", n, replaced, err)
	}

	n, replaced, err = mergeBenchEntry(path, "test", "unit", testEntry{Label: "a", N: 3}, testLabel)
	if err != nil || n != 2 || !replaced {
		t.Fatalf("replace: n=%d replaced=%v err=%v, want 2,true,nil", n, replaced, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file benchJSON[testEntry]
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Bench != "test" || file.Unit != "unit" {
		t.Errorf("header = %q/%q, want test/unit", file.Bench, file.Unit)
	}
	want := []testEntry{{Label: "a", N: 3}, {Label: "b", N: 2}}
	if len(file.Entries) != len(want) {
		t.Fatalf("entries = %v, want %v", file.Entries, want)
	}
	for i, e := range file.Entries {
		if e != want[i] {
			t.Errorf("entry %d = %v, want %v", i, e, want[i])
		}
	}
}

func TestMergeBenchEntryRefusesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := mergeBenchEntry(path, "test", "unit", testEntry{Label: "a"}, testLabel)
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("corrupt file: err = %v, want refusal", err)
	}
	raw, rerr := os.ReadFile(path)
	if rerr != nil || string(raw) != "{truncated" {
		t.Errorf("corrupt file was modified: %q, %v", raw, rerr)
	}
}

// TestMergeBenchEntryKeepsUnknownFields: an existing entry carrying a field
// the current entry struct no longer declares survives, byte for byte, a
// merge that appends a different label.
func TestMergeBenchEntryKeepsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	old := `{
  "bench": "test",
  "unit": "unit",
  "entries": [
    {
      "label": "old",
      "n": 1,
      "retired": true,
      "ratio": 1.50
    }
  ]
}
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	entries := func(raw []byte) []json.RawMessage {
		t.Helper()
		var file benchJSON[json.RawMessage]
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		return file.Entries
	}
	before := entries([]byte(old))[0]

	n, replaced, err := mergeBenchEntry(path, "test", "unit", testEntry{Label: "new", N: 2}, testLabel)
	if err != nil || n != 2 || replaced {
		t.Fatalf("append: n=%d replaced=%v err=%v, want 2,false,nil", n, replaced, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after := entries(raw)
	if len(after) != 2 {
		t.Fatalf("entries = %d, want 2", len(after))
	}
	if string(after[0]) != string(before) {
		t.Errorf("recorded entry changed:\n got %s\nwant %s", after[0], before)
	}
}

// stubExit replaces exitFn with one that records the code and panics with
// sentinel (so the refusing command stops like a real exit would), and
// returns a closure that asserts exactly one exit with code 1 happened.
func stubExit(t *testing.T, run func()) (exited bool, code int) {
	t.Helper()
	type exitSentinel struct{ code int }
	old := exitFn
	exitFn = func(c int) { panic(exitSentinel{c}) }
	defer func() { exitFn = old }()
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(exitSentinel)
			if !ok {
				panic(r)
			}
			exited, code = true, s.code
		}
	}()
	run()
	return false, 0
}

// TestRefuseExitsNonZero pins the refusal contract: every "not recording"
// path funnels through refuse, which must exit with a non-zero status so
// CI catches oracle divergences instead of reading a green run.
func TestRefuseExitsNonZero(t *testing.T) {
	oldStderr := os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devnull
	defer func() { os.Stderr = oldStderr; devnull.Close() }()

	exited, code := stubExit(t, func() { refuse("synthetic divergence: %d != %d", 1, 2) })
	if !exited || code != 1 {
		t.Fatalf("refuse: exited=%v code=%d, want exit 1", exited, code)
	}
}

// TestChaosRefusalExitsNonZero drives the chaos command end-to-end into a
// refusal (corrupt results file) and asserts it exits 1 — the regression
// for divergence-style failures escaping CI with status 0.
func TestChaosRefusalExitsNonZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_chaos.json")
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = devnull
	defer func() { os.Stderr = oldStderr; devnull.Close() }()

	var exited bool
	var code int
	quiet(t, func() {
		exited, code = stubExit(t, func() {
			runChaos([]string{"-out", path, "-p", "4", "-batches", "4"})
		})
	})
	if !exited || code != 1 {
		t.Fatalf("chaos refusal: exited=%v code=%d, want exit 1", exited, code)
	}
}
