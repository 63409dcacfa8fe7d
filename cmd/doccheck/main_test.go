package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func collect() (func(string, ...any), *[]string) {
	var got []string
	return func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}, &got
}

func TestCheckMarkdown(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", "BENCH_real.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	write("ok.md", "see [design](design.md) and [anchor](#local) and [web](https://example.com);\n"+
		"`pimgo.Frontend` coalesces, and pimgo.Cluster.Rebalance validates its\n"+
		"first identifier; the file pimgo.go itself is not an API reference.\n"+
		"Numbers live in results/BENCH_real.json.")
	write("design.md", "run `pimbench trace` or `go run ./cmd/pimbench chaos -out x.json`;\n"+
		"in prose, pimbench regenerates tables. Placeholder: `pimbench <cmd>`, flag: `pimbench -list`.")
	write("bad.md", "see [missing](gone.md); run `pimbench bogus`;\n"+
		"`pimgo.Nonexistent` was renamed away; results/BENCH_phantom.json was never recorded")

	valid := map[string]bool{"trace": true, "chaos": true}
	exported := map[string]bool{"Frontend": true, "Cluster": true}
	report, got := collect()
	checkMarkdown(dir, valid, exported, report)

	if len(*got) != 4 {
		t.Fatalf("got %d problems, want 4: %v", len(*got), *got)
	}
	var link, cmd, sym, bench bool
	for _, p := range *got {
		if strings.Contains(p, "broken link") {
			link = true
		}
		if strings.Contains(p, "unknown pimbench command") {
			cmd = true
		}
		if strings.Contains(p, "unknown API reference") && strings.Contains(p, "Nonexistent") {
			sym = true
		}
		if strings.Contains(p, "not checked in") && strings.Contains(p, "BENCH_phantom") {
			bench = true
		}
	}
	if !link || !cmd || !sym || !bench {
		t.Fatalf("missing expected problem kinds in %v", *got)
	}
}

// TestCheckMarkdownPlanDocs: a stale command or API name in a root-level
// history or plan file passes, while the same names in docs/ or in a
// root-level reference doc fail. Links are checked in every file.
func TestCheckMarkdownPlanDocs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := "`pimbench gone` and `pimgo.Gone` were removed.\n"
	for name, body := range map[string]string{
		"CHANGES.md":                      stale + "[old](missing.md)\n",
		"ROADMAP.md":                      stale,
		"NOTES.md":                        stale,
		"README.md":                       stale,
		filepath.Join("docs", "GUIDE.md"): stale,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	report, got := collect()
	checkMarkdown(dir, map[string]bool{"trace": true}, map[string]bool{"Frontend": true}, report)

	if len(*got) != 5 {
		t.Fatalf("got %d problems, want 5: %v", len(*got), *got)
	}
	var cmd, sym, link, ref bool
	for _, p := range *got {
		switch {
		case strings.Contains(p, "GUIDE.md") && strings.Contains(p, "unknown pimbench command"):
			cmd = true
		case strings.Contains(p, "GUIDE.md") && strings.Contains(p, "unknown API reference"):
			sym = true
		case strings.Contains(p, "CHANGES.md") && strings.Contains(p, "broken link"):
			link = true
		case strings.Contains(p, "README.md"):
			ref = true
		}
	}
	if !cmd || !sym || !link || !ref {
		t.Fatalf("want docs/ and README.md command and API problems plus the CHANGES.md link, got %v", *got)
	}
}

func TestCheckGodoc(t *testing.T) {
	dir := t.TempDir()
	src := `// Package sample is a doc-coverage fixture.
package sample

// Documented is fine.
func Documented() {}

func Undocumented() {}

// Grouped declarations share the group comment.
var (
	A = 1
	B = 2
)

type Bare struct{}
`
	if err := os.WriteFile(filepath.Join(dir, "sample.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	report, got := collect()
	exported := checkGodoc(dir, report)

	for _, name := range []string{"Documented", "Undocumented", "A", "B", "Bare"} {
		if !exported[name] {
			t.Fatalf("exported set %v is missing %s", exported, name)
		}
	}
	if len(*got) != 2 {
		t.Fatalf("got %d problems, want 2 (Undocumented, Bare): %v", len(*got), *got)
	}
	var fn, ty bool
	for _, p := range *got {
		if strings.Contains(p, "Undocumented") {
			fn = true
		}
		if strings.Contains(p, "Bare") {
			ty = true
		}
	}
	if !fn || !ty {
		t.Fatalf("missing expected identifiers in %v", *got)
	}
}

// TestRepoDocsClean runs the real checks over the repository itself, so a
// broken doc link or an undocumented facade export fails `go test ./...`
// too, not only the `make docs` gate.
func TestRepoDocsClean(t *testing.T) {
	report, got := collect()
	exported := checkGodoc("../..", report)
	checkMarkdown("../..", nil, exported, report) // command list needs pimbench; make docs covers it
	if len(*got) != 0 {
		t.Fatalf("repository docs have %d problem(s): %v", len(*got), *got)
	}
}
